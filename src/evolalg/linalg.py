"""Exact dense linear algebra over a pluggable field.

Matrices are immutable row-major grids of field scalars.  A Subspace is
stored through its unique reduced row-echelon basis with zero rows
dropped, so two subspaces describe the same set of vectors exactly when
they compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError


@dataclass(frozen=True)
class Matrix:
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative matrix shape")
        if len(self.entries) != self.rows:
            raise DimensionError("expected %d rows, got %d" % (self.rows, len(self.entries)))
        for r in self.entries:
            if len(r) != self.cols:
                raise DimensionError("expected %d columns, got %d" % (self.cols, len(r)))

    @classmethod
    def from_rows(cls, rows, cols=None) -> "Matrix":
        rows = tuple(tuple(r) for r in rows)
        if cols is None:
            if not rows:
                raise DimensionError("column count required for a matrix with no rows")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(tuple(self.entries[r][c] for r in range(self.rows))
                            for c in range(self.cols)))


def identity(field, n: int) -> Matrix:
    one, zero = field.one, field.zero
    return Matrix(n, n, tuple(tuple(one if i == j else zero for j in range(n))
                              for i in range(n)))


def _rref_rows(field, rows, width):
    """Reduce a list of row lists in place; return (rank, pivot columns)."""
    pivot_row = 0
    pivots = []
    for col in range(width):
        hit = None
        for r in range(pivot_row, len(rows)):
            if not field.is_zero(rows[r][col]):
                hit = r
                break
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        inv = field.inv(rows[pivot_row][col])
        rows[pivot_row] = [field.mul(inv, x) for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and not field.is_zero(rows[r][col]):
                factor = rows[r][col]
                rows[r] = [field.sub(x, field.mul(factor, y))
                           for x, y in zip(rows[r], rows[pivot_row])]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return pivot_row, pivots


def rref(field, m: Matrix):
    """Unique reduced row-echelon form of m (shape preserved).

    Returns (rank, reduced) where rank counts the nonzero rows.
    """
    rows = [list(r) for r in m.entries]
    rank, _ = _rref_rows(field, rows, m.cols)
    return rank, Matrix(m.rows, m.cols, tuple(tuple(r) for r in rows))


def det(field, m: Matrix):
    """Exact determinant by Gaussian elimination; m must be square."""
    if m.rows != m.cols:
        raise DimensionError("determinant of a non-square %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    rows = [list(r) for r in m.entries]
    result = field.one
    for col in range(n):
        hit = None
        for r in range(col, n):
            if not field.is_zero(rows[r][col]):
                hit = r
                break
        if hit is None:
            return field.zero
        if hit != col:
            rows[col], rows[hit] = rows[hit], rows[col]
            result = field.neg(result)
        pivot = rows[col][col]
        result = field.mul(result, pivot)
        for r in range(col + 1, n):
            if not field.is_zero(rows[r][col]):
                factor = field.div(rows[r][col], pivot)
                rows[r] = [field.sub(x, field.mul(factor, y))
                           for x, y in zip(rows[r], rows[col])]
    return result


def inverse(field, m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise DimensionError("inverse of a non-square matrix")
    n = m.rows
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)]
           for i, r in enumerate(m.entries)]
    rank, _ = _rref_rows(field, aug, 2 * n)
    if rank < n:
        raise ValueError("matrix is singular")
    return Matrix(n, n, tuple(tuple(r[n:]) for r in aug))


def mat_vec(field, m: Matrix, v) -> tuple:
    if len(v) != m.cols:
        raise DimensionError("vector of length %d against %d columns" % (len(v), m.cols))
    out = []
    for row in m.entries:
        acc = field.zero
        for x, y in zip(row, v):
            if not (field.is_zero(x) or field.is_zero(y)):
                acc = field.add(acc, field.mul(x, y))
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace held by its canonical (RREF, no zero rows) basis."""

    field: object
    ambient_dim: int
    basis: Matrix

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.basis.rows == 0

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionError("vector of length %d in an ambient space of dim %d"
                                 % (len(v), self.ambient_dim))
        f = self.field
        v = [f.coerce(x) for x in v]
        for row in self.basis.entries:
            pivot_col = next(j for j, x in enumerate(row) if not f.is_zero(x))
            c = v[pivot_col]
            if not f.is_zero(c):
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        return all(f.is_zero(x) for x in v)

    def vectors(self):
        """Canonical basis rows."""
        return self.basis.entries


def subspace_from_vectors(field, ambient_dim: int, vectors) -> Subspace:
    rows = []
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionError("vector of length %d in an ambient space of dim %d"
                                 % (len(v), ambient_dim))
        rows.append([field.coerce(x) for x in v])
    rank, _ = _rref_rows(field, rows, ambient_dim)
    basis = Matrix(rank, ambient_dim, tuple(tuple(r) for r in rows[:rank]))
    return Subspace(field, ambient_dim, basis)


def zero_subspace(field, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, Matrix(0, ambient_dim, ()))


def full_subspace(field, ambient_dim: int) -> Subspace:
    return Subspace(field, ambient_dim, identity(field, ambient_dim))


def _same_ambient(s1: Subspace, s2: Subspace):
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionError("subspaces live in different ambient dimensions")


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    _same_ambient(s1, s2)
    return subspace_from_vectors(s1.field, s1.ambient_dim,
                                 list(s1.basis.entries) + list(s2.basis.entries))


def subspace_intersection(s1: Subspace, s2: Subspace) -> Subspace:
    """Zassenhaus: reduce [B1|B1; B2|0]; rows with zero left half carry the
    intersection in their right half."""
    _same_ambient(s1, s2)
    f = s1.field
    n = s1.ambient_dim
    zeros = [f.zero] * n
    stacked = [list(r) + list(r) for r in s1.basis.entries]
    stacked += [list(r) + zeros for r in s2.basis.entries]
    _rref_rows(f, stacked, 2 * n)
    carriers = [row[n:] for row in stacked
                if all(f.is_zero(x) for x in row[:n])
                and not all(f.is_zero(x) for x in row[n:])]
    return subspace_from_vectors(f, n, carriers)


def subspace_contains(s: Subspace, v) -> bool:
    return s.contains(v)


def subspace_equal(s1: Subspace, s2: Subspace) -> bool:
    _same_ambient(s1, s2)
    return s1.basis == s2.basis
