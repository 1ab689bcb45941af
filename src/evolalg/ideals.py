"""Ideal-theoretic computations: annihilator, absorption property and
radical, ideals generated by one element, quotient algebras.

Ideals are carried as plain linalg.Subspace values; operations that only
make sense on an ideal validate their input with is_ideal first.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import EvolutionAlgebra
from .errors import DimensionError, FieldError, PreconditionError
from .graph import associated_graph
from .linalg import (Matrix, Subspace, _residue, _rref_rows, coordinate_subspace,
                     mat_vec, subspace_from_vectors)


def annihilator(algebra: EvolutionAlgebra) -> Subspace:
    """Span of the basis elements whose square is zero (the graph sinks);
    always an ideal."""
    return coordinate_subspace(algebra.field, algebra.dim, associated_graph(algebra).sinks())


def is_nondegenerate(algebra: EvolutionAlgebra) -> bool:
    """True exactly when no basis square vanishes (the graph has no sink)."""
    return not associated_graph(algebra).sinks()


def is_ideal(algebra: EvolutionAlgebra, subspace: Subspace) -> bool:
    """The defining test, e_i * v in I for every basis index i and basis
    vector v, read through e_i * v = v_i e_i^2: e_i^2 in I for every i
    where a basis vector of I is nonzero."""
    if subspace.ambient_dim != algebra.dim:
        raise DimensionError("subspace ambient dim %d does not match algebra dim %d"
                             % (subspace.ambient_dim, algebra.dim))
    if subspace.field != algebra.field:
        raise FieldError("subspace over %r in an algebra over %r"
                         % (subspace.field, algebra.field))
    support = {i for v in subspace.vectors() for i, x in enumerate(v, 1) if x}
    return all(subspace.contains(algebra.square_of_basis(i)) for i in support)


def _require_ideal(algebra, subspace):
    if not is_ideal(algebra, subspace):
        raise PreconditionError("subspace is not an ideal of the algebra")


def absorption_preimage(algebra: EvolutionAlgebra, ideal: Subspace) -> Subspace:
    """The set {x : xA inside I}.  Since x*e_i = x_i * e_i^2 the condition
    is coordinate-wise, so this is the span of the e_i with e_i^2 in I."""
    _require_ideal(algebra, ideal)
    return coordinate_subspace(algebra.field, algebra.dim,
                               [i for i in range(1, algebra.dim + 1)
                                if ideal.contains(algebra.square_of_basis(i))])


def has_absorption_property(algebra: EvolutionAlgebra, ideal: Subspace) -> bool:
    """True when xA inside I forces x in I."""
    preimage = absorption_preimage(algebra, ideal)
    return all(ideal.contains(v) for v in preimage.vectors())


def radical(algebra: EvolutionAlgebra) -> Subspace:
    """Smallest ideal with the absorption property: the span of the e_i
    for the indices i from which no directed path reaches a cycle, read
    off the graph's condensation (AssociatedGraph.reaches_no_cycle).  The
    brute-force enumeration oracle validates this route over tiny prime
    fields.
    """
    return coordinate_subspace(algebra.field, algebra.dim,
                               associated_graph(algebra).reaches_no_cycle())


def ideal_generated_by_square(algebra: EvolutionAlgebra, k: int) -> Subspace:
    """<e_k^2> = span of the squares e_j^2 over j in D(k) plus k itself."""
    indices = sorted(associated_graph(algebra).forward_closure({k}))
    return subspace_from_vectors(algebra.field, algebra.dim,
                                 [algebra.square_of_basis(j) for j in indices])


def lambda_x(algebra: EvolutionAlgebra, x) -> frozenset:
    """Indices i with e_i * x nonzero: x_i nonzero and e_i^2 nonzero.  x
    is coerced first, so a raw coordinate such as 7 over GF(7) is zero."""
    sinks = associated_graph(algebra).sinks()
    return frozenset(i for i, c in enumerate(algebra.element(x), 1) if c and i not in sinks)


def mu_n(algebra: EvolutionAlgebra, x, n: int) -> Subspace:
    """Span of the n-fold left multiplications applied to x.

    n = 0 gives span{x}; n = 1 the span of the squares indexed by
    lambda_x; n >= 2 the span of e_j^2 over the (n-1)-step descendents of
    those indices.
    """
    if n < 0:
        raise ValueError("multiplication depth must be >= 0")
    f = algebra.field
    if n == 0:
        return subspace_from_vectors(f, algebra.dim, [algebra.element(x)])
    lam = lambda_x(algebra, x)
    if n == 1:
        indices = set(lam)
    else:
        graph = associated_graph(algebra)
        indices = set()
        for i in lam:
            indices |= graph.descendents_m(i, n - 1)
    return subspace_from_vectors(f, algebra.dim,
                                 [algebra.square_of_basis(j) for j in sorted(indices)])


def ideal_generated_by(algebra: EvolutionAlgebra, x) -> Subspace:
    """<x> = span{x} + span of e_j^2 over j in the forward closure of
    lambda_x (each seed included)."""
    indices = associated_graph(algebra).forward_closure(lambda_x(algebra, x))
    gens = [algebra.element(x)] + [algebra.square_of_basis(j) for j in sorted(indices)]
    return subspace_from_vectors(algebra.field, algebra.dim, gens)


def ideal_closure(algebra: EvolutionAlgebra, x) -> Subspace:
    """<x> by iterated multiplication until the span stabilizes.

    Independent of ideal_generated_by; the two must agree and the test
    suite holds them to it.
    """
    f = algebra.field
    span = subspace_from_vectors(f, algebra.dim, [algebra.element(x)])
    while True:
        products = [algebra.multiply(algebra.basis_element(i), v)
                    for v in span.vectors()
                    for i in range(1, algebra.dim + 1)]
        grown = subspace_from_vectors(f, algebra.dim, list(span.vectors()) + products)
        if grown == span:
            return span
        span = grown


class QuotientPresentation(namedtuple("QuotientPresentation", "chosen quotient projection")):
    """A/I presented on the greedily chosen surviving basis images.

    chosen holds the indices i whose images form a natural basis of the
    quotient; projection is the (dim(A)-dim(I)) x dim(A) matrix taking
    coordinates in A to coordinates in the quotient, with kernel exactly I.
    """

    __slots__ = ()

    def project(self, v) -> tuple:
        return mat_vec(self.quotient.field, self.projection, v)


def quotient(algebra: EvolutionAlgebra, ideal: Subspace) -> QuotientPresentation:
    """Quotient algebra by an ideal, on the natural basis of surviving
    images chosen greedily by ascending index."""
    _require_ideal(algebra, ideal)
    f = algebra.field
    n = algebra.dim
    # greedily, i survives when e_i is not in I + span{e_1..e_(i-1)}, i.e.
    # when i is not the last nonzero position l of a vector of I: the pivots
    # of I's basis with its columns reversed, whose reduced row w for l is 1
    # at l and 0 at every other l
    rows = [list(reversed(v)) for v in ideal.vectors()]
    _, pivots = _rref_rows(f, rows, n)
    reduced = {n - col: row for col, row in zip(pivots, rows)}
    chosen = [i for i in range(1, n + 1) if i not in reduced]
    keep = [n - c for c in chosen]  # the chosen positions, reversed
    q = len(chosen)
    # P has kernel I and takes each e_c to a unit vector, so P e_l is -w and
    # P v is the residue of v modulo the rows w, both on the chosen positions
    columns = [[f.coerce(-reduced[j][k]) for k in keep] if j in reduced
               else [f.one if c == j else f.zero for c in chosen]
               for j in range(1, n + 1)]
    projection = Matrix(q, n, tuple(zip(*columns)))
    residues = [_residue(f, rows, pivots, algebra.square_of_basis(i)[::-1]) for i in chosen]
    squares = tuple(tuple(r[k] for k in keep) for r in residues)
    return QuotientPresentation(tuple(chosen), EvolutionAlgebra._from_canonical(f, squares),
                                projection)
