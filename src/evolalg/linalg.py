"""Exact dense linear algebra over a pluggable field.

Matrices are immutable row-major grids of field scalars.  A Subspace is
stored through its unique reduced row-echelon basis with zero rows
dropped, so two subspaces describe the same set of vectors exactly when
they compare equal.

One forward-elimination kernel, _echelon, is the only code that
eliminates below a pivot: det reads the determinant it returns, and
_rref_rows back-substitutes on the rows it leaves (Subspace.contains
needs no elimination; see below).  Its inner loops run on Python
ints and call no field method per entry.  Over F_p each row is one int
of fixed-width slots, wide enough for (rows + 1) p^2, so one row update
is one multiply-add with no carry between slots, and one inversion per
pivot; a row is reduced mod p slot by slot only when it becomes a pivot
row.  Over QQ the rows are scaled by the lcm of their denominators and
reduced with Bareiss fraction-free elimination (Bareiss 1968, Math.
Comp. 22), whose every division is exact.  Entries go back to canonical
scalars (Fraction over QQ, ints in [0, p) over F_p) only where a reduced
basis is handed out.  A canonical basis needs no elimination at all:
Subspace.contains subtracts from v its coordinate at each pivot times
that pivot's row (_residue) and asks whether anything is left; the pivot
columns are found once per subspace.
Subspaces spanned by natural-basis vectors skip the kernel altogether:
coordinate_subspace writes their canonical basis down.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from struct import iter_unpack

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


def _echelon(field, rows, width):
    """Forward elimination in place on integer rows, touching only the
    columns from each pivot on.  Returns (pivot columns, signed
    determinant of the pivot block as a field scalar).

    Over F_p each row is reduced to residues in [0, p) and packed into one
    int of fixed-width slots, column 0 in the most significant one.  A slot
    starts below p and gains less than p^2 at each pivot, and there are
    fewer pivots than rows + 1, so a slot of the bit length of
    (rows + 1) p^2, rounded up to whole bytes, never carries into the next.
    One row update is one multiply-add, masked to the columns right of the
    pivot, so a row's entry in the next column is one shift.  A row is
    reduced slot by slot only when it becomes a pivot row and was updated
    since it was packed; a nonzero multiple of p left in a column with no
    pivot is cleared.  The residues go back into the row lists at the end.

    Over QQ each row is first scaled by the lcm of its denominators, and
    the rows are left as ints: Bareiss fraction-free elimination, where
    every entry is a minor of the scaled matrix and each update divides
    exactly by the pivot of the step that last updated the row.  A row
    whose entry in the pivot column is zero is left alone: if it later
    becomes a pivot row, it is multiplied by the last pivot and divided by
    its own divisor first, which is what the skipped updates would have
    done to it."""
    if field.kind != "rational":
        p = field.p
        nbytes = -(-((len(rows) + 1) * p * p).bit_length() // 8)
        bits, zero, slot = 8 * nbytes, bytes(nbytes), "%ds" % nbytes
        packed = [int.from_bytes(b"".join([(x % p).to_bytes(nbytes, "big") if x else zero
                                           for x in row]), "big") for row in rows]
        # rows[r]: the input row of packed[r], None once packed[r] is
        # updated, and its residues once it is a pivot row
        pivots = []
        sign = value = 1
        for col in range(width):
            top = len(pivots)
            if top == len(rows):
                break
            shift = bits * (width - 1 - col)
            keep = (1 << shift) - 1  # the columns right of col
            hit = None
            for r in range(top, len(rows)):
                row = packed[r]
                if row > keep:
                    if (row >> shift) % p:
                        hit = r
                        break
                    packed[r] = row & keep
            if hit is None:
                continue
            if hit != top:
                rows[top], rows[hit] = rows[hit], rows[top]
                packed[top], packed[hit] = packed[hit], packed[top]
                sign = -sign
            if rows[top] is None:
                raw = packed[top].to_bytes((width - col) * nbytes, "big")
                tail = [int.from_bytes(x, "big") % p if x != zero else 0
                        for x, in iter_unpack(slot, raw)]
                packed[top] = int.from_bytes(b"".join([x.to_bytes(nbytes, "big") if x else zero
                                                       for x in tail]), "big")
                rows[top] = [0] * col + tail
            else:
                rows[top] = [x % p for x in rows[top]]
            pivot_row = packed[top]
            lead = pivot_row >> shift
            value = value * lead % p
            minus_inv = p - pow(lead, -1, p)
            for r in range(top + 1, len(rows)):
                row = packed[r]
                if row > keep:
                    packed[r] = (row + (row >> shift) * minus_inv % p * pivot_row) & keep
                    rows[r] = None
            pivots.append(col)
        for r in range(len(pivots), len(rows)):
            rows[r] = [0] * width
        return pivots, sign * value % p
    scales = []
    for i, row in enumerate(rows):
        scale = lcm(*[x.denominator for x in row])
        rows[i] = ([x.numerator for x in row] if scale == 1
                   else [x.numerator * (scale // x.denominator) for x in row])
        scales.append(scale)
    divisors = [1] * len(rows)
    pivots = []
    # value: the last Bareiss pivot, the determinant of the pivot block so
    # far of the scaled rows
    sign = value = 1
    for col in range(width):
        top = len(pivots)
        if top == len(rows):
            break
        hit = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        if hit != top:
            rows[top], rows[hit] = rows[hit], rows[top]
            divisors[top], divisors[hit] = divisors[hit], divisors[top]
            scales[top], scales[hit] = scales[hit], scales[top]
            sign = -sign
        pivot_row = rows[top]
        if divisors[top] != value:
            pivot_row[col:] = [x * value // divisors[top] for x in pivot_row[col:]]
        value = pivot_row[col]
        tail = pivot_row[col:]
        for r in range(top + 1, len(rows)):
            row = rows[r]
            a = row[col]
            if a:
                d = divisors[r]
                row[col:] = [(value * x - a * y) // d for x, y in zip(row[col:], tail)]
                divisors[r] = value
        pivots.append(col)
    return pivots, Fraction(sign * value, prod(scales[:len(pivots)]))


def _rref_rows(field, rows, width):
    """Reduce a list of row lists in place to canonical field scalars;
    return (rank, pivot columns)."""
    pivots, _ = _echelon(field, rows, width)
    rank = len(pivots)
    if field.kind != "rational":
        p = field.p
        for top in reversed(range(rank)):
            col = pivots[top]
            pivot_row = rows[top]
            inv = pow(pivot_row[col], -1, p)
            pivot_row[col:] = [inv * x % p for x in pivot_row[col:]]
            tail = pivot_row[col:]
            for row in rows[:top]:
                if row[col]:
                    factor = row[col]
                    row[col:] = [(x - factor * y) % p for x, y in zip(row[col:], tail)]
        return rank, pivots
    # integer back-substitution: with d the last pivot, the determinant of
    # the scaled pivot block, each row becomes d times its reduced row,
    # which is integral by Cramer's rule, so every division is exact
    d = rows[rank - 1][pivots[-1]] if rank else 1
    for top in reversed(range(rank)):
        col = pivots[top]
        row = rows[top]
        below = [(row[pivots[j]], rows[j]) for j in range(top + 1, rank) if row[pivots[j]]]
        pk = row[col]
        if pk == d and not below:
            continue
        acc = [d * x for x in row[col:]]
        for a, other in below:
            acc = [x - a * y for x, y in zip(acc, other[col:])]
        row[col:] = [x // pk for x in acc]
    zero, one = field.zero, field.one
    for i, row in enumerate(rows):
        rows[i] = [zero if not x else one if x == d else Fraction(x, d) for x in row]
    return rank, pivots


def rref(field, m: Matrix):
    """Unique reduced row-echelon form of m (shape preserved).

    Returns (rank, reduced) where rank counts the nonzero rows.
    """
    rows = [list(r) for r in m.entries]
    rank, _ = _rref_rows(field, rows, m.cols)
    return rank, Matrix(m.rows, m.cols, tuple(tuple(r) for r in rows))


def det(field, m: Matrix):
    """Exact determinant of a square m, or zero below full rank: the value
    _echelon returns, which over F_p is the signed product of its pivots
    mod p and over QQ its last Bareiss pivot, signed and divided by the
    row scales that cleared the denominators.  A zero row or zero column
    gives zero with no elimination (a zero scalar is falsy in every field)."""
    if m.rows != m.cols:
        raise DimensionError("determinant of a non-square %dx%d matrix" % (m.rows, m.cols))
    if not all(map(any, m.entries)) or not all(map(any, zip(*m.entries))):
        return field.zero
    pivots, value = _echelon(field, [list(r) for r in m.entries], m.cols)
    return value if len(pivots) == m.rows else field.zero


def _residue(field, basis, pivots, v) -> list:
    """v minus v[p] b over the rows b of a canonical basis, p the pivot
    column of b (pivots lists them in row order), which is zero exactly
    when v lies in their span: each row is 1 at its own pivot and 0 at
    every other, so v[p] is its coefficient.  Zero entries are skipped,
    and over F_p each coordinate is reduced once."""
    out = list(v)
    for col, row in zip(pivots, basis):
        c = v[col]
        if c:
            out = [x - c * y if y else x for x, y in zip(out, row)]
    if field.kind != "rational":
        p = field.p
        return [x % p for x in out]
    return out


def mat_vec(field, m: Matrix, v) -> tuple:
    """m times the column vector v: each coordinate is one sum of the
    products whose factors are both nonzero, reduced once mod p over F_p."""
    if len(v) != m.cols:
        raise DimensionError("vector of length %d against %d columns" % (len(v), m.cols))
    sums = [sum([x * y for x, y in zip(row, v) if x and y], field.zero) for row in m.entries]
    if field.kind == "rational":
        return tuple(sums)
    return tuple(s % field.p for s in sums)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace held by its canonical (RREF, no zero rows) basis."""

    field: object
    ambient_dim: int
    basis: Matrix

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, v) -> bool:
        if len(v) != self.ambient_dim:
            raise DimensionError("vector of length %d in an ambient space of dim %d"
                                 % (len(v), self.ambient_dim))
        return not any(_residue(self.field, self.basis.entries, self._pivots,
                                [self.field.coerce(x) for x in v]))

    @cached_property
    def _pivots(self) -> list:
        """The pivot column of each basis row: its first nonzero entry, a one."""
        return [row.index(1) for row in self.basis.entries]

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


def coordinate_subspace(field, ambient_dim: int, indices) -> Subspace:
    """Span of the e_i over indices in 1..ambient_dim; an index outside
    that range is refused.  Distinct unit vectors in ascending order
    already are the canonical basis; each is copied from one row of zeros
    with a one set at its index."""
    indices = sorted(set(indices))
    if indices and not 1 <= indices[0] <= indices[-1] <= ambient_dim:
        raise IndexError("indices outside 1..%d" % ambient_dim)
    one, zero = field.one, field.zero
    template = [zero] * ambient_dim
    rows = []
    for i in indices:
        template[i - 1] = one
        rows.append(tuple(template))
        template[i - 1] = zero
    return Subspace(field, ambient_dim, Matrix(len(rows), ambient_dim, tuple(rows)))


def zero_subspace(field, ambient_dim: int) -> Subspace:
    return coordinate_subspace(field, ambient_dim, ())


def full_subspace(field, ambient_dim: int) -> Subspace:
    return coordinate_subspace(field, ambient_dim, range(1, ambient_dim + 1))


def _same_ambient(s1: Subspace, s2: Subspace):
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionError("subspaces live in different ambient dimensions")


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    _same_ambient(s1, s2)
    return subspace_from_vectors(s1.field, s1.ambient_dim,
                                 list(s1.basis.entries) + list(s2.basis.entries))


def subspace_intersection(s1: Subspace, s2: Subspace) -> Subspace:
    """Zassenhaus: reduce [B1|B1; B2|0]; rows with zero left half carry the
    intersection in their right half, and those halves already are in
    reduced echelon form."""
    _same_ambient(s1, s2)
    f = s1.field
    n = s1.ambient_dim
    zeros = [f.zero] * n
    stacked = [list(r) + list(r) for r in s1.basis.entries]
    stacked += [list(r) + zeros for r in s2.basis.entries]
    _rref_rows(f, stacked, 2 * n)
    carriers = tuple(tuple(row[n:]) for row in stacked
                     if all(f.is_zero(x) for x in row[:n])
                     and not all(f.is_zero(x) for x in row[n:]))
    return Subspace(f, n, Matrix(len(carriers), n, carriers))


def subspace_equal(s1: Subspace, s2: Subspace) -> bool:
    _same_ambient(s1, s2)
    return s1.basis == s2.basis
