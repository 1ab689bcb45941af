"""Exact dense linear algebra over a pluggable field.

Matrices are immutable row-major grids of field scalars.  A Subspace is
stored through its unique reduced row-echelon basis with zero rows
dropped, so two subspaces describe the same set of vectors exactly when
they compare equal.

One forward-elimination kernel, _echelon, is the only code that
eliminates below a pivot: det reads the determinant it returns, and
_rref_rows back-substitutes on the rows it leaves (Subspace.contains
needs no elimination; see below).  Its inner loops run on Python
ints and call no field method per entry.  Over F_p no loop runs per
entry in Python: each row is packed by one struct call into one int of
fixed-width slots, wide enough for (rows + 1) p^2, and stays packed, so
one row update is one multiply-add with no carry between slots, and one
inversion per pivot.  All slots of a row are reduced mod p at once by a
Barrett step on its even and its odd slots (SWAR), before the row serves
as a pivot row; the back-substitution of _rref_rows runs on the packed
rows too, and each row is unpacked once, by one struct call, at the
end.  Over QQ the rows are scaled by the lcm of their denominators and
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

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import lcm, prod
from struct import Struct

from .errors import DimensionError, FieldError


class Matrix(namedtuple("Matrix", "rows cols entries")):
    """A rows x cols grid; entries is a tuple of row tuples."""

    __slots__ = ()

    def __new__(cls, rows, cols, entries):
        if rows < 0 or cols < 0:
            raise DimensionError("negative matrix shape")
        if len(entries) != rows:
            raise DimensionError("expected %d rows, got %d" % (rows, len(entries)))
        for r in entries:
            if len(r) != cols:
                raise DimensionError("expected %d columns, got %d" % (cols, len(r)))
        return tuple.__new__(cls, (rows, cols, entries))


def _slots(p, count, width):
    """The layout of count packed rows of width residues mod p: (bits,
    pack, unpack, reduce).

    A slot is nbytes bytes, the bit length of (count + 1) p^2 rounded up to
    whole bytes, so bits = 8 nbytes; column 0 is the most significant slot.
    pack turns a row of ints into one int with one struct call: each slot
    is nbytes - size pad bytes and the smallest struct code of size bytes
    that holds p - 1.  Where no code does (p > 2^64), int.to_bytes is
    mapped over the row instead.  A row with an entry outside [0, p) is
    reduced first, so raw ints pack as their residues.  unpack is the
    inverse on a reduced row, one struct call again.

    reduce takes every slot of a packed int mod p at once (SWAR: the same
    arithmetic on all slots of one int), given that each slot holds less
    than 2^bits.  The even and the odd slots are split apart, so that each
    value v sits alone in a region of 2 bits bits, and each half takes one
    Barrett step (Barrett 1986, CRYPTO) with m = 2^bits // p: the quotient
    estimate q = (v m) >> bits is the true quotient or one less, so v - q p
    lies in [0, 2p), and adding 2^bits - p to it carries into bit bits of
    its region exactly when one more p is to be subtracted.  No product
    leaves its region, so no slot borrows from or carries into another."""
    nbytes = -(-((count + 1) * p * p).bit_length() // 8)
    bits = 8 * nbytes
    if p <= 1 << 64:
        size, code = next((s, c) for s, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
                          if p <= 1 << 8 * s)
        layout = Struct(">" + "%dx%s" % (nbytes - size, code) * width)
        write, read = layout.pack, layout.unpack
    else:
        layout = Struct(">" + "%ds" % nbytes * width)

        def write(*row):
            return b"".join(map(int.to_bytes, row, repeat(nbytes), repeat("big")))

        def read(raw):
            return map(int.from_bytes, layout.unpack(raw), repeat("big"))

    def pack(row):
        if row and (min(row) < 0 or max(row) >= p):
            row = [*map(p.__rmod__, row)]  # x % p for each x
        return int.from_bytes(write(*row), "big")

    def unpack(x):
        return [*read(x.to_bytes(nbytes * width, "big"))]

    # one: a 1 at the foot of every region of 2 bits bits, as many regions
    # as there are even slots
    one = int.from_bytes(b"\1".rjust(2 * nbytes, b"\0") * ((width + 1) // 2), "big")
    low, m, lift = ((1 << bits) - 1) * one, (1 << bits) // p, ((1 << bits) - p) * one

    def reduce(x):
        even, odd = x & low, x >> bits & low
        even -= (even * m >> bits & low) * p
        even -= ((even + lift) >> bits & one) * p
        odd -= (odd * m >> bits & low) * p
        odd -= ((odd + lift) >> bits & one) * p
        return even | odd << bits

    return bits, pack, unpack, reduce


def _echelon(field, rows, width):
    """Forward elimination in place on integer rows, touching only the
    columns from each pivot on.  Returns (pivot columns, signed
    determinant of the pivot block as a field scalar).

    Over F_p each row is packed once into one int of fixed-width slots
    (_slots) and stays packed: the rows are left as those ints.  A slot
    starts below p and gains less than p^2 at each pivot, and there are
    fewer pivots than rows + 1, so it stays below (rows + 1) p^2 and never
    carries into the next.  One row update is one multiply-add, masked to
    the columns right of the pivot, so a row's entry in the next column is
    one shift.  Every row below a pivot is updated, with factor zero where
    its entry is zero, so each pivot row but the first has been updated:
    it is reduced mod p in all its slots at once (SWAR) before it serves.
    A nonzero multiple of p left in a column with no pivot is cleared.
    The determinant is read off the pivots alone; no row is unpacked.

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
        bits, pack, _, reduce = _slots(p, len(rows), width)
        rows[:] = map(pack, rows)
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
                row = rows[r]
                if row > keep:
                    if (row >> shift) % p:
                        hit = r
                        break
                    rows[r] = row & keep
            if hit is None:
                continue
            if hit != top:
                rows[top], rows[hit] = rows[hit], rows[top]
                sign = -sign
            pivot_row = rows[top] = reduce(rows[top]) if top else rows[top]
            lead = pivot_row >> shift
            value = value * lead % p
            minus_inv = p - pow(lead, -1, p)
            rows[top + 1:] = [(row + (row >> shift) * minus_inv % p * pivot_row) & keep
                              for row in rows[top + 1:]]
            pivots.append(col)
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
    return (rank, pivot columns).

    Over F_p the back-substitution runs on the packed rows _echelon leaves:
    from the last pivot up, its row is reduced, scaled by the inverse of
    its lead and reduced again, and each row above gets one multiply-add
    that makes its slot in the pivot column a multiple of p, its factor
    read off that slot.  A row above gains less than p^2 per slot at each
    pivot below it, so the slots stay below (rows + 1) p^2.  Each pivot
    row is reduced when its turn comes and is not touched after, and the
    rows below the rank are zero, so each row is unpacked once as it is."""
    pivots, _ = _echelon(field, rows, width)
    rank = len(pivots)
    if field.kind != "rational":
        p = field.p
        bits, _, unpack, reduce = _slots(p, len(rows), width)
        slot = (1 << bits) - 1
        for top in reversed(range(rank)):
            shift = bits * (width - 1 - pivots[top])
            row = reduce(rows[top])
            row = rows[top] = reduce(row * pow(row >> shift, -1, p))
            rows[:top] = [above + -(above >> shift & slot) % p * row for above in rows[:top]]
        rows[:] = map(unpack, rows)
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
    pivots, value = _echelon(field, list(m.entries), m.cols)
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


class Subspace(namedtuple("Subspace", "field ambient_dim basis")):
    """A linear subspace held by its canonical (RREF, no zero rows) basis.
    The class has no __slots__: its instances keep their pivot columns,
    found on first use, in their __dict__."""

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
    if s1.field != s2.field:
        raise FieldError("subspaces over different fields, %r and %r" % (s1.field, s2.field))


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
                     if not any(row[:n]) and any(row[n:]))
    return Subspace(f, n, Matrix(len(carriers), n, carriers))


def subspace_equal(s1: Subspace, s2: Subspace) -> bool:
    _same_ambient(s1, s2)
    return s1.basis == s2.basis
