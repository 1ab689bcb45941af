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
        n = structure.rows
        entries = tuple(tuple(field.coerce(x) for x in row) for row in structure.entries)
        self.field = field
        self.dim = n
        self.structure = Matrix(n, n, entries)
        # column i = coordinates of e_{i+1}^2; kept around because multiply
        # touches columns constantly
        self._squares = tuple(self.structure.column(i) for i in range(n))
        self._invariants = {}  # filled by functions decorated with _memoized

    @classmethod
    def from_squares(cls, field, squares) -> "EvolutionAlgebra":
        """Build from the list of basis squares: squares[i] = coords of e_{i+1}^2."""
        n = len(squares)
        for v in squares:
            if len(v) != n:
                raise DimensionError("square with %d coordinates in dimension %d" % (len(v), n))
        rows = tuple(tuple(squares[i][k] for i in range(n)) for k in range(n))
        return cls(field, Matrix(n, n, rows))

    def __eq__(self, other):
        return (isinstance(other, EvolutionAlgebra)
                and self.field == other.field
                and self.structure == other.structure)

    def __hash__(self):
        return hash((self.field, self.structure))

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
        """Product of two elements: sum over i of a_i*b_i times e_i^2."""
        if len(a) != self.dim or len(b) != self.dim:
            raise DimensionError("operands must have %d coordinates" % self.dim)
        f = self.field
        out = [f.zero] * self.dim
        for i in range(self.dim):
            c = f.mul(a[i], b[i])
            if f.is_zero(c):
                continue
            col = self._squares[i]
            for k in range(self.dim):
                if not f.is_zero(col[k]):
                    out[k] = f.add(out[k], f.mul(c, col[k]))
        return tuple(out)


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


def power_associativity_witnesses(algebra: EvolutionAlgebra) -> frozenset:
    """Indices i where (e_i^2)(e_i^2) differs from ((e_i^2)e_i)e_i.

    An empty set is necessary for power-associativity; only these two
    fourth-power expressions are compared, nothing more is decided.
    """
    bad = []
    for i in range(1, algebra.dim + 1):
        sq = algebra.square_of_basis(i)
        e = algebra.basis_element(i)
        lhs = algebra.multiply(sq, sq)
        rhs = algebra.multiply(algebra.multiply(sq, e), e)
        if lhs != rhs:
            bad.append(i)
    return frozenset(bad)


def algebra_from_graph(field, adjacency) -> EvolutionAlgebra:
    """Evolution algebra of a directed graph given by a boolean adjacency
    matrix: adjacency[i][j] truthy means an edge (i+1) -> (j+1), and the
    structure matrix is its transpose over {0, 1}."""
    n = len(adjacency)
    rows = []
    for r in adjacency:
        if len(r) != n:
            raise DimensionError("adjacency matrix must be square")
        rows.append([bool(x) for x in r])
    one, zero = field.one, field.zero
    entries = tuple(tuple(one if rows[i][k] else zero for i in range(n)) for k in range(n))
    return EvolutionAlgebra(field, Matrix(n, n, entries))
