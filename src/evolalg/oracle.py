"""Brute-force verifiers over tiny prime fields.

Everything here enumerates: all subspaces of F_p^n (by reduced-echelon
basis, so each subspace appears exactly once), or all p^n coordinate
vectors.  These routes are deliberately independent of the closed forms
in the ideals and decompose modules; the fast paths must agree with them
on every enumerable instance.  The exception is enumerate_ideals, which
keeps the subspaces passing ideals.is_ideal: e_i^2 in I for each i of
the support of I, held to the product loop by the tests.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .algebra import EvolutionAlgebra
from .errors import BudgetExceededError, FieldError
from .fields import PrimeField
from .ideals import is_ideal
from .linalg import (Matrix, Subspace, full_subspace, subspace_intersection,
                     zero_subspace)


class EnumerationBudget(namedtuple("EnumerationBudget", "max_vectors", defaults=(4096,))):
    """Cap on |F_p|^n; instances beyond it are refused, not attempted."""

    __slots__ = ()


DEFAULT_BUDGET = EnumerationBudget()

# Cap on the number of subspaces enumerate_ideals visits, whatever the
# budget: at tens of microseconds per subspace it keeps every admitted
# instance to a few seconds (GF(2)^7 and GF(3)^6 pass, GF(2)^8 and GF(3)^7
# do not).
MAX_SUBSPACES = 100_000


def _require_enumerable(algebra: EvolutionAlgebra, budget: EnumerationBudget) -> int:
    field = algebra.field
    if not isinstance(field, PrimeField):
        raise FieldError("brute-force oracles run over prime fields only")
    count = field.p ** algebra.dim
    if count > budget.max_vectors:
        raise BudgetExceededError("%d vectors exceed the budget of %d"
                                  % (count, budget.max_vectors))
    return field.p


def all_vectors(field: PrimeField, n: int):
    """Every coordinate tuple of F_p^n."""
    return itertools.product(range(field.p), repeat=n)


def subspace_count(p: int, n: int) -> int:
    """Number of subspaces of F_p^n: the Gaussian binomials [n, d]_p summed
    over d, each got from the one before it."""
    total, term = 0, 1
    for d in range(n + 1):
        total += term
        term = term * (p ** (n - d) - 1) // (p ** (d + 1) - 1)
    return total


def enumerate_subspaces(field: PrimeField, n: int):
    """Every subspace of F_p^n exactly once, via its reduced-echelon basis."""
    yield zero_subspace(field, n)
    for d in range(1, n + 1):
        for pivots in itertools.combinations(range(n), d):
            pivot_set = set(pivots)
            free = [(r, c) for r in range(d)
                    for c in range(pivots[r] + 1, n)
                    if c not in pivot_set]
            for values in itertools.product(range(field.p), repeat=len(free)):
                rows = [[0] * n for _ in range(d)]
                for r in range(d):
                    rows[r][pivots[r]] = 1
                for (r, c), v in zip(free, values):
                    rows[r][c] = v
                basis = Matrix(d, n, tuple(tuple(r) for r in rows))
                yield Subspace(field, n, basis)


def enumerate_ideals(algebra: EvolutionAlgebra, budget: EnumerationBudget = DEFAULT_BUDGET):
    """All subspaces passing is_ideal, the zero and full ones included."""
    p = _require_enumerable(algebra, budget)
    count = subspace_count(p, algebra.dim)
    if count > MAX_SUBSPACES:
        raise BudgetExceededError("F_%d^%d has %d subspaces, more than the cap of %d"
                                  % (p, algebra.dim, count, MAX_SUBSPACES))
    return [s for s in enumerate_subspaces(algebra.field, algebra.dim)
            if is_ideal(algebra, s)]


def absorption_oracle(algebra: EvolutionAlgebra, ideal: Subspace,
                      budget: EnumerationBudget = DEFAULT_BUDGET) -> bool:
    """Absorption by exhaustive vector enumeration: every x with xA inside
    the ideal must itself lie in the ideal."""
    _require_enumerable(algebra, budget)
    n = algebra.dim
    for x in all_vectors(algebra.field, n):
        if ideal.contains(x):
            continue
        if all(ideal.contains(algebra.multiply(x, algebra.basis_element(i)))
               for i in range(1, n + 1)):
            return False
    return True


def radical_oracle(algebra: EvolutionAlgebra, budget: EnumerationBudget = DEFAULT_BUDGET,
                   ideals=None) -> Subspace:
    """Literal intersection of every enumerated ideal that absorbs."""
    _require_enumerable(algebra, budget)
    if ideals is None:
        ideals = enumerate_ideals(algebra, budget)
    result = full_subspace(algebra.field, algebra.dim)
    for ideal in ideals:
        if absorption_oracle(algebra, ideal, budget):
            result = subspace_intersection(result, ideal)
    return result


def simple_oracle(algebra: EvolutionAlgebra, budget: EnumerationBudget = DEFAULT_BUDGET,
                  ideals=None) -> bool:
    """Nonzero product and no ideal strictly between 0 and the whole space."""
    _require_enumerable(algebra, budget)
    if not any(map(any, algebra._squares)):
        return False
    if ideals is None:
        ideals = enumerate_ideals(algebra, budget)
    return all(s.dim in (0, algebra.dim) for s in ideals)


ClassicalChecks = namedtuple("ClassicalChecks", "semiprime classically_nondegenerate")


def classical_checks(algebra: EvolutionAlgebra, budget: EnumerationBudget = DEFAULT_BUDGET,
                     ideals=None) -> ClassicalChecks:
    """The classical notions, decided by enumeration.

    semiprime: no nonzero ideal squares to zero.  classically
    nondegenerate: a(Aa) = 0 happens only for a = 0.
    """
    _require_enumerable(algebra, budget)
    f = algebra.field
    n = algebra.dim
    if ideals is None:
        ideals = enumerate_ideals(algebra, budget)

    semiprime = True
    for s in ideals:
        if s.dim == 0:
            continue
        vectors = s.vectors()
        squares_to_zero = not any(any(algebra.multiply(u, v))
                                  for u in vectors for v in vectors)
        if squares_to_zero:
            semiprime = False
            break

    classically = True
    for a in all_vectors(f, n):
        if not any(a):
            continue
        if not any(any(algebra.multiply(a, algebra.multiply(algebra.basis_element(i), a)))
                   for i in range(1, n + 1)):
            classically = False
            break

    return ClassicalChecks(semiprime, classically)
