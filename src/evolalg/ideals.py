"""Ideal-theoretic computations: annihilator, absorption property and
radical, ideals generated by one element, quotient algebras.

Ideals are carried as plain linalg.Subspace values; a subspace handed in
must live in the algebra's space (linalg._same_ambient, the check the
subspace operations make), and operations that only make sense on an
ideal validate their input first.  A coordinate vector handed in is
coerced once, where it enters; basis squares and subspace bases are
canonical already, so they reach the span (linalg._span) and membership
(Subspace._holds) cores as they are.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import EvolutionAlgebra
from .errors import PreconditionError
from .graph import associated_graph
from .linalg import (Matrix, Subspace, _combine, _same_ambient, _span, _unit_rows,
                     _vector, coordinate_subspace, subspace_from_vectors)


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
    _same_ambient(algebra.field, algebra.dim, subspace)
    support = {i for v in subspace.vectors() for i, x in enumerate(v, 1) if x}
    return all(subspace._holds(algebra.square_of_basis(i)) for i in support)


def absorption_preimage(algebra: EvolutionAlgebra, ideal: Subspace) -> Subspace:
    """The set {x : xA inside I}.  Since x*e_i = x_i * e_i^2 the condition
    is coordinate-wise, so this is the span of the e_i with e_i^2 in I."""
    if not is_ideal(algebra, ideal):
        raise PreconditionError("subspace is not an ideal of the algebra")
    return coordinate_subspace(algebra.field, algebra.dim,
                               [i for i in range(1, algebra.dim + 1)
                                if ideal._holds(algebra.square_of_basis(i))])


def has_absorption_property(algebra: EvolutionAlgebra, ideal: Subspace) -> bool:
    """True when xA inside I forces x in I.  x in I puts e_i^2 = e_i x / x_i
    in I wherever x_i != 0, so I lies inside the preimage, and the two are
    equal exactly when their dims are."""
    return absorption_preimage(algebra, ideal).dim == ideal.dim


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
    """<e_k^2> = span of the squares e_j^2 over j in D(k) plus k itself:
    <x> at x = e_k^2, whose nonzero coordinates are the out-neighbours of k."""
    return _generated(algebra, algebra.square_of_basis(k))


def lambda_x(algebra: EvolutionAlgebra, x) -> frozenset:
    """Indices i with e_i * x nonzero: x_i nonzero and e_i^2 nonzero.  x
    is coerced first, so a raw coordinate such as 7 over GF(7) is zero."""
    sinks = associated_graph(algebra).sinks()
    return frozenset(i for i, c in enumerate(algebra.element(x), 1) if c and i not in sinks)


def mu_n(algebra: EvolutionAlgebra, x, n: int) -> Subspace:
    """Span of the n-fold left multiplications applied to x.

    n = 0 gives span{x}; n >= 1 the span of e_j^2 over the ends j of the
    paths of exactly n - 1 edges from lambda_x (AssociatedGraph._level),
    which at n = 1 are the indices of lambda_x themselves.
    """
    if n < 0:
        raise ValueError("multiplication depth must be >= 0")
    if n == 0:
        return _span(algebra.field, algebra.dim, [algebra.element(x)])
    indices = associated_graph(algebra)._level(lambda_x(algebra, x), n - 1)
    return _span(algebra.field, algebra.dim, [*map(algebra.square_of_basis, sorted(indices))])


def ideal_generated_by(algebra: EvolutionAlgebra, x) -> Subspace:
    """<x> = span{x} + span of e_j^2 over j in the forward closure of
    lambda_x (each seed included)."""
    return _generated(algebra, algebra.element(x))


def _generated(algebra, x) -> Subspace:
    """<x> for a canonical x.  The closure starts from all nonzero
    coordinates of x, not only from lambda_x: the others are sinks, which
    reach nothing and add only their square, zero."""
    indices = associated_graph(algebra).forward_closure(i for i, c in enumerate(x, 1) if c)
    return _span(algebra.field, algebra.dim, [x, *map(algebra.square_of_basis, sorted(indices))])


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
        """The quotient coordinates of v, a vector of A that is checked and
        coerced first (_vector): P v, the sum of v_i times column i of P
        (linalg._combine)."""
        f, P = self.quotient.field, self.projection
        return tuple(_combine(f, [f.zero] * P.rows, _vector(f, P.cols, v), zip(*P.entries)))


def quotient(algebra: EvolutionAlgebra, ideal: Subspace) -> QuotientPresentation:
    """Quotient algebra by an ideal, on the natural basis of surviving
    images chosen greedily by ascending index."""
    _same_ambient(algebra.field, algebra.dim, ideal)
    return _quotient(algebra, ideal.vectors())


def _quotient(algebra, vectors) -> QuotientPresentation:
    """quotient by the span I of vectors, canonical rows of A's length
    that are neither checked nor coerced.  I is spanned once, with its
    columns reversed, and the projection P is read off that span alone;
    P has kernel I, so P v is zero exactly when v lies in I, and both the
    ideal check and the quotient's squares are P v (linalg._combine)."""
    f, n = algebra.field, algebra.dim
    reversed_span = _span(f, n, [v[::-1] for v in vectors])
    rows, pivots = reversed_span.basis.entries, reversed_span._pivots
    # Greedily, i survives when e_i is not in I + span{e_1..e_(i-1)}, i.e.
    # when i is not the last nonzero position l of a vector of I: the pivots
    # of reversed_span, whose reduced row w for l is 1 at l and 0 at every
    # other l
    chosen = sorted(set(range(1, n + 1)).difference(n - col for col in pivots))
    keep = [n - c for c in chosen]  # the chosen positions, reversed
    # P e_c is the unit vector of the place of c among the chosen, and
    # e_l - w lies in I, so P e_l is P w, -w on the chosen positions
    reduced = {n - col: row for col, row in zip(pivots, rows)}
    units = iter(_unit_rows(f.zero, f.one, len(chosen), range(1, len(chosen) + 1)))
    columns = [f._canonical([-reduced[i][q] for q in keep]) if i in reduced else next(units)
               for i in range(1, n + 1)]

    def project(v):
        return tuple(_combine(f, [f.zero] * len(chosen), v, columns))

    # I is an ideal when it holds e_i^2 for each i in its support
    support = {n - col for row in rows for col, x in enumerate(row) if x}
    if any(any(project(algebra.square_of_basis(i))) for i in support):
        raise PreconditionError("subspace is not an ideal of the algebra")
    projection = Matrix(len(chosen), n, tuple(zip(*columns)))
    squares = tuple(project(algebra.square_of_basis(i)) for i in chosen)
    return QuotientPresentation(tuple(chosen), EvolutionAlgebra._from_canonical(f, squares),
                                projection)
