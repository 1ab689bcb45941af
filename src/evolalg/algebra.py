"""Evolution algebras presented by a structure matrix over an exact field.

The distinguished natural basis is e_1..e_n, distinct basis elements
multiply to zero, and column i of the structure matrix holds the
coordinates of e_i*e_i, i.e. entry (k, i) is the coefficient of e_k in
e_i^2.  Elements are plain coordinate tuples relative to that basis.
"""

from __future__ import annotations

import functools

from .errors import DimensionError
from .linalg import Matrix


class EvolutionAlgebra:

    def __init__(self, field, structure: Matrix):
        if structure.rows != structure.cols:
            raise DimensionError("structure matrix must be square, got %dx%d"
                                 % (structure.rows, structure.cols))
        # every entry is coerced to a canonical Fraction or int in [0, p)
        rows = [tuple(map(field.coerce, row)) for row in structure.entries]
        self._adopt(field, tuple(zip(*rows)))

    @classmethod
    def _from_canonical(cls, field, squares: tuple) -> "EvolutionAlgebra":
        """The algebra of the basis squares, a tuple of n tuples of n
        entries that already are canonical scalars of field; no entry is
        coerced again."""
        return cls.__new__(cls)._adopt(field, squares)

    def _adopt(self, field, squares: tuple) -> "EvolutionAlgebra":
        self.field = field
        self.dim = len(squares)
        # the product is held once, as the columns of M_B: _squares[i] is
        # the coordinate tuple of e_{i+1}^2
        self._squares = squares
        self._invariants = {}  # filled by functions decorated with _memoized
        return self

    @classmethod
    def from_squares(cls, field, squares) -> "EvolutionAlgebra":
        """Build from the list of basis squares: squares[i] = coords of e_{i+1}^2."""
        n = len(squares)
        for v in squares:
            if len(v) != n:
                raise DimensionError("square with %d coordinates in dimension %d" % (len(v), n))
        return cls._from_canonical(field, tuple(tuple(map(field.coerce, v)) for v in squares))

    @functools.cached_property
    def structure(self) -> Matrix:
        """The structure matrix M_B, entry (k, i) the coefficient of e_k in
        e_i^2: a dense row-major view of the squares, built on first use."""
        return Matrix(self.dim, self.dim, tuple(zip(*self._squares)))

    def __eq__(self, other):
        return (isinstance(other, EvolutionAlgebra)
                and self.field == other.field
                and self._squares == other._squares)

    def __hash__(self):
        return hash((self.field, self._squares))

    def __repr__(self):
        return "EvolutionAlgebra(%r, dim=%d)" % (self.field, self.dim)

    def _check_index(self, i: int):
        if not 1 <= i <= self.dim:
            raise IndexError("basis index %d outside 1..%d" % (i, self.dim))

    def zero_element(self) -> tuple:
        return (self.field.zero,) * self.dim

    def basis_element(self, i: int) -> tuple:
        self._check_index(i)
        f = self.field
        return tuple(f.one if k == i - 1 else f.zero for k in range(self.dim))

    def element(self, coords) -> tuple:
        """Coerce a coordinate sequence into a canonical element."""
        if len(coords) != self.dim:
            raise DimensionError("element with %d coordinates in dimension %d"
                                 % (len(coords), self.dim))
        return tuple(self.field.coerce(x) for x in coords)

    def square_of_basis(self, i: int) -> tuple:
        self._check_index(i)
        return self._squares[i - 1]

    def multiply(self, a, b) -> tuple:
        """Product of two elements: sum over i of a_i*b_i times e_i^2,
        each coordinate summed with Python's operators and coerced once."""
        if len(a) != self.dim or len(b) != self.dim:
            raise DimensionError("operands must have %d coordinates" % self.dim)
        out = [0] * self.dim
        for x, y, square in zip(a, b, self._squares):
            c = x * y
            if c:
                for k, s in enumerate(square):
                    if s:
                        out[k] += c * s
        return tuple(map(self.field.coerce, out))


def _memoized(compute):
    """Decorator for an invariant of an algebra: compute(algebra) runs once
    per algebra object, later calls return its result.  An algebra never
    changes after __init__, so the result never goes stale."""
    @functools.wraps(compute)
    def memoized(algebra):
        memo = algebra._invariants
        if compute not in memo:
            memo[compute] = compute(algebra)
        return memo[compute]
    return memoized


def algebra_from_graph(field, graph) -> EvolutionAlgebra:
    """Evolution algebra of a directed graph, an AssociatedGraph: e_i^2 is
    the sum of the e_j over the edges i -> j, so the structure matrix is
    the transpose of the graph's adjacency matrix over {0, 1}, and
    associated_graph gives the graph back."""
    one, zero = field.one, field.zero
    vertices = range(1, graph.n + 1)
    return EvolutionAlgebra._from_canonical(field, tuple(
        tuple(one if j in targets else zero for j in vertices)
        for targets in map(graph.out_edges, vertices)))
