"""Ideal-theoretic computations: annihilator, absorption property and
radical, ideals generated by one element, quotient algebras.

Ideals are carried as plain linalg.Subspace values; operations that only
make sense on an ideal validate their input with is_ideal first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import EvolutionAlgebra
from .errors import DimensionError, PreconditionError
from .graph import associated_graph
from .linalg import (Matrix, Subspace, inverse, mat_vec, subspace_from_vectors,
                     subspace_sum)


def annihilator(algebra: EvolutionAlgebra) -> Subspace:
    """Span of the basis elements whose square is zero (the graph sinks);
    always an ideal."""
    f = algebra.field
    gens = [algebra.basis_element(i) for i in range(1, algebra.dim + 1)
            if all(f.is_zero(x) for x in algebra.square_of_basis(i))]
    return subspace_from_vectors(f, algebra.dim, gens)


def is_nondegenerate(algebra: EvolutionAlgebra) -> bool:
    """True exactly when no basis square vanishes (every structure column
    is nonzero)."""
    f = algebra.field
    return all(any(not f.is_zero(x) for x in algebra.square_of_basis(i))
               for i in range(1, algebra.dim + 1))


def is_ideal(algebra: EvolutionAlgebra, subspace: Subspace) -> bool:
    """The defining test: e_i * v stays inside for every basis index i and
    every basis vector v (enough by bilinearity)."""
    if subspace.ambient_dim != algebra.dim:
        raise DimensionError("subspace ambient dim %d does not match algebra dim %d"
                             % (subspace.ambient_dim, algebra.dim))
    f = algebra.field
    for v in subspace.vectors():
        for i in range(1, algebra.dim + 1):
            if f.is_zero(v[i - 1]):
                continue  # e_i * v is identically zero then
            if not subspace.contains(algebra.multiply(algebra.basis_element(i), v)):
                return False
    return True


def _require_ideal(algebra, subspace):
    if not is_ideal(algebra, subspace):
        raise PreconditionError("subspace is not an ideal of the algebra")


def absorption_preimage(algebra: EvolutionAlgebra, ideal: Subspace) -> Subspace:
    """The set {x : xA inside I}.  Since x*e_i = x_i * e_i^2 the condition
    is coordinate-wise, so this is the span of the e_i with e_i^2 in I."""
    _require_ideal(algebra, ideal)
    gens = [algebra.basis_element(i) for i in range(1, algebra.dim + 1)
            if ideal.contains(algebra.square_of_basis(i))]
    return subspace_from_vectors(algebra.field, algebra.dim, gens)


def has_absorption_property(algebra: EvolutionAlgebra, ideal: Subspace) -> bool:
    """True when xA inside I forces x in I."""
    preimage = absorption_preimage(algebra, ideal)
    return all(ideal.contains(v) for v in preimage.vectors())


def radical(algebra: EvolutionAlgebra) -> Subspace:
    """Smallest ideal with the absorption property.

    Computed as the least fixpoint S0 = {}, S_{k+1} = {i : D1(i) inside S_k}:
    e_i lands in the radical exactly when no directed path from i reaches a
    cycle.  The brute-force enumeration oracle validates this route over
    tiny prime fields.
    """
    graph = associated_graph(algebra)
    dead = set()
    changed = True
    while changed:
        changed = False
        for i in range(1, algebra.dim + 1):
            if i not in dead and graph.out_edges(i) <= dead:
                dead.add(i)
                changed = True
    gens = [algebra.basis_element(i) for i in sorted(dead)]
    return subspace_from_vectors(algebra.field, algebra.dim, gens)


def ideal_generated_by_square(algebra: EvolutionAlgebra, k: int) -> Subspace:
    """<e_k^2> = span of the squares e_j^2 over j in D(k) plus k itself."""
    graph = associated_graph(algebra)
    indices = sorted(graph.descendents(k) | {k})
    return subspace_from_vectors(algebra.field, algebra.dim,
                                 [algebra.square_of_basis(j) for j in indices])


def lambda_x(algebra: EvolutionAlgebra, x) -> frozenset:
    """Indices i with e_i * x nonzero: x_i nonzero and e_i^2 nonzero."""
    if len(x) != algebra.dim:
        raise DimensionError("element with %d coordinates in dimension %d"
                             % (len(x), algebra.dim))
    f = algebra.field
    out = []
    for i in range(1, algebra.dim + 1):
        if f.is_zero(x[i - 1]):
            continue
        if any(not f.is_zero(c) for c in algebra.square_of_basis(i)):
            out.append(i)
    return frozenset(out)


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
    lam = lambda_x(algebra, x)
    graph = associated_graph(algebra)
    indices = set()
    for i in lam:
        indices |= {i} | graph.descendents(i)
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


@dataclass(frozen=True)
class QuotientPresentation:
    """A/I presented on the greedily chosen surviving basis images.

    chosen holds the indices i whose images form a natural basis of the
    quotient; projection is the (dim(A)-dim(I)) x dim(A) matrix taking
    coordinates in A to coordinates in the quotient, with kernel exactly I.
    """

    chosen: tuple
    quotient: EvolutionAlgebra
    projection: Matrix

    def project(self, v) -> tuple:
        return mat_vec(self.quotient.field, self.projection, v)


def quotient(algebra: EvolutionAlgebra, ideal: Subspace) -> QuotientPresentation:
    """Quotient algebra by an ideal, on the natural basis of surviving
    images chosen greedily by ascending index."""
    _require_ideal(algebra, ideal)
    f = algebra.field
    n = algebra.dim
    chosen = []
    current = ideal
    for i in range(1, n + 1):
        e = algebra.basis_element(i)
        if not current.contains(e):
            chosen.append(i)
            current = subspace_sum(current, subspace_from_vectors(f, n, [e]))
    # columns: ideal basis vectors, then the chosen basis elements; the
    # bottom rows of the inverse read off quotient coordinates
    columns = list(ideal.vectors()) + [algebra.basis_element(i) for i in chosen]
    change = Matrix.from_rows(columns, cols=n).transpose()
    change_inv = inverse(f, change)
    projection = Matrix(len(chosen), n, change_inv.entries[ideal.dim:])
    quotient_columns = [mat_vec(f, projection, algebra.square_of_basis(i)) for i in chosen]
    q = len(chosen)
    structure = Matrix(q, q, tuple(tuple(quotient_columns[c][r] for c in range(q))
                                   for r in range(q)))
    return QuotientPresentation(tuple(chosen), EvolutionAlgebra(f, structure), projection)
