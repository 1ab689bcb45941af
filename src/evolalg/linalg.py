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
fixed-width slots, wide enough for every value elimination reaches, and
stays packed: a row update is one multiply-add with no carry, and one
inversion per pivot.  All slots of a row are reduced mod p at once by a
Barrett step on its even and its odd slots (SWAR), before the row serves
as a pivot row; the back-substitution of _rref_rows runs on the packed
rows too, and each row is unpacked once, by one struct call, at the
end.  Over QQ a row of plain ints is taken as it is, any other row is
scaled by the lcm of its denominators, and the rows are reduced with
Bareiss fraction-free elimination (Bareiss 1968, Math. Comp. 22), whose
every division is exact, in its two-step form from Sylvester's
identity: each pass takes two pivots, the second from the first column
right of the first that holds one, and brings every row below them down
two levels, each entry a sum of products of two minors divided by one,
the last pivot (BENCH_sylvester.json times it against a form that
divided by a product of two); where no column holds a second pivot,
every row below is left zero.  The QQ back-substitution
of _rref_rows runs on the non-pivot columns alone, writing the pivot
columns as an identity's, so a span of full rank back-substitutes
nothing.  Entries go back to canonical scalars (over QQ an int, or a
Fraction where the division leaves a remainder; ints in [0, p) over
F_p) only where a reduced basis or a determinant is handed out.  Every
sum of scaled rows goes through _combine, which adds each nonzero
coefficient times the nonzero entries of its row and makes the sum
canonical by one call of field._canonical: the product of two elements
of an algebra, a quotient projection P v, and membership.  A canonical
basis needs no elimination at all: Subspace.contains subtracts from v
its coordinate at each pivot times that pivot's row and asks whether
anything is left; the pivot columns are found once per subspace.
Subspaces spanned by natural-basis vectors skip the kernel altogether:
coordinate_subspace writes their canonical basis down, each row copied
from one template (_unit_rows).  Every other span the package reduces
goes through _span, which eliminates only on the columns its rows touch,
the first step of structured Gaussian elimination (LaMacchia and
Odlyzko 1990, CRYPTO): the rows of a generated ideal touch the forward
closure of its seeds alone.  The reduced rows are spread back to full
width, and the subspace finds its pivot columns on first use, as every
Subspace does; rows on one column or none need no elimination.
A raw value becomes canonical where it enters, once, and the kernels
read canonical scalars only.  A vector a caller hands in is checked and
coerced by _vector, the one check of its length, in
subspace_from_vectors, Subspace.contains, QuotientPresentation.project
and the vector routines of algebra and ideals; the package's own calls,
whose rows are canonical, go straight to the cores, _span and
Subspace._holds.  det and rref coerce each entry of a caller's matrix
once, where they take it; a _Canonical matrix is one the package built,
of canonical scalars, and det takes it as it is.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import lcm, prod
from operator import itemgetter
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


class _Canonical(Matrix):
    """A Matrix the package built, of canonical scalars, which det takes
    as it is."""

    __slots__ = ()


def _slots(p, count, width):
    """The layout of count packed rows of width residues mod p: (bits,
    pack, unpack, reduce).

    pack turns a row of residues into one int with one struct call: each
    slot is nbytes - size pad bytes and the smallest struct code of size
    bytes that holds p - 1, and column 0 is the most significant slot.
    Where no code holds p - 1 (p > 2^64), int.to_bytes is mapped over the
    row instead.  unpack is the inverse on a reduced row, one call again.

    A slot is nbytes bytes and bits = 8 nbytes, enough for (count + 1) p^2:
    elimination (_echelon) starts a slot below p, the first pivot row,
    which it does not reduce, adds at most (p - 1)^2 to it, and each of the
    fewer than count later ones less than p^2.

    reduce takes every slot of a packed int mod p at once (SWAR: the same
    arithmetic on all slots of one int), given that each slot holds less
    than 2^bits.  The even and the odd slots are split apart, so that each
    value v sits alone in a region of 2 bits bits, and each half takes one
    Barrett step (Barrett 1986, CRYPTO) with m = 2^bits // p: the quotient
    estimate q = (v m) >> bits is the true quotient or one less, so v - q p
    lies in [0, 2p), and adding 2^bits - p to it carries into bit bits of
    its region exactly when one more p is to be subtracted.  No product
    leaves its region, so no slot borrows from or carries into another."""
    size, code = next(((s, c) for s, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
                       if p <= 1 << 8 * s), (None, None))
    nbytes = -(-((count + 1) * p * p).bit_length() // 8)
    bits = 8 * nbytes
    if code is not None:
        layout = Struct(">" + "%dx%s" % (nbytes - size, code) * width)
        read = layout.unpack

        def write(row):
            return layout.pack(*row)
    else:
        layout = Struct(">" + "%ds" % nbytes * width)

        def write(row):
            return b"".join(map(int.to_bytes, row, repeat(nbytes), repeat("big")))

        def read(raw):
            return map(int.from_bytes, layout.unpack(raw), repeat("big"))

    def pack(row):
        return int.from_bytes(write(row), "big")

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
    columns from each pivot on.  Returns (pivot columns, a field scalar
    that is the determinant when every row is a pivot row; det reads it
    only then, and _rref_rows never).

    The rows hold canonical scalars.  Over F_p each row is packed once
    into one int of fixed-width slots (_slots) and stays packed: the rows
    are left as those ints.  A slot starts below p, gains at most
    (p - 1)^2 from the first pivot row and less than p^2 from each later
    one, so it stays below (rows + 1) p^2, the width _slots gives it, and
    never carries into the next.  One row update is one multiply-add,
    masked to the columns right of the pivot, so a row's entry in the next
    column is one shift.  Every row below a pivot is updated, with factor zero where
    its entry is zero, so each pivot row but the first has been updated:
    it is reduced mod p in all its slots at once (SWAR) before it serves.
    A nonzero multiple of p left in a column with no pivot is cleared.
    The determinant is read off the pivots alone; no row is unpacked.

    Over QQ a row whose entries are all plain ints enters as it is, with
    scale 1; any other row is first scaled by the lcm of its denominators.
    The rows are left as ints: Bareiss fraction-free elimination, where
    every entry is a minor of the scaled matrix.  A row's divisor is the pivot of the
    step that last updated it.  A row whose leading entries are zero is
    left alone and keeps its divisor d; before it is next updated, or
    serves as a pivot row, it is multiplied by the last pivot and divided
    by d, which is what the skipped updates would have done to it.

    Each pass takes two pivots, in Bareiss's two-step form from
    Sylvester's identity.  Let p be the last pivot and y the first pivot
    row, with a00 in the pivot column col.  The second pivot lies in the
    first column nxt right of col where some row below, with x0, x1 in
    col and nxt and a01 the entry of y in nxt, gives a00 x1 - a01 x0 != 0;
    in each column j between, every row below has a00 xj = a0j x0, so one
    step would leave it zero there.  The first such row z is swapped up,
    with the sign, and brought up to date, and a10, a11 are its entries
    in col and nxt.  The new pivot is c0 = (a00 a11 - a01 a10) / p.  Every
    row below with x0 or x1 nonzero is brought up to date and takes both
    steps at once: with c1 = (a00 x1 - a01 x0) / p and
    c2 = (a10 x1 - a11 x0) / p, each entry x right of nxt becomes
    (c0 x - c1 z + c2 y) / p, with y and z the pivot rows' entries in its
    column, its entries in col..nxt are set to zero, and its divisor
    becomes c0.  c0, c1, c2 and the new entries are minors, so every
    division, by the one minor p, is exact.  Then z takes its one step,
    (a00 x - a10 y) / p, which leaves zero from col up to nxt and c0 in
    nxt, as the back-substitution of _rref_rows needs.  Where no column gives a
    second pivot, every row below is a multiple of y from col on: the
    rows below are written as zero rows, the last pivot is a00, and
    elimination ends."""
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
        if set(map(type, row)) <= {int}:  # integral: enters with scale 1
            rows[i] = [*row]
            continue
        scale = lcm(*[x.denominator for x in row])
        rows[i] = [x.numerator * (scale // x.denominator) for x in row]
        scales.append(scale)
    divisors = [1] * len(rows)
    pivots = []
    # value: the last Bareiss pivot, the determinant of the pivot block so
    # far of the scaled rows
    sign = value = 1
    col = 0
    while col < width and len(pivots) < len(rows):
        top = len(pivots)
        hit = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if hit is None:
            col += 1
            continue
        if hit != top:
            rows[top], rows[hit] = rows[hit], rows[top]
            divisors[top], divisors[hit] = divisors[hit], divisors[top]
            sign = -sign
        pivot_row = rows[top]
        if divisors[top] != value:
            pivot_row[col:] = [x * value // divisors[top] for x in pivot_row[col:]]
        a00 = pivot_row[col]
        pivots.append(col)
        # the second pivot: the first row below, in the first column nxt
        # right of col where one has it, whose entry there after one step,
        # (a00 x1 - x0 a01) / divisor, is nonzero
        for nxt in range(col + 1, width):
            a01 = pivot_row[nxt]
            hit = next((r for r in range(top + 1, len(rows))
                        if a00 * rows[r][nxt] - rows[r][col] * a01), None)
            if hit is not None:
                break
        else:  # every row below is a multiple of the pivot row from col on
            value = a00
            rows[top + 1:] = [[0] * width for _ in rows[top + 1:]]
            break
        top += 1
        if hit != top:
            rows[top], rows[hit] = rows[hit], rows[top]
            divisors[top], divisors[hit] = divisors[hit], divisors[top]
            sign = -sign
        second = rows[top]
        p = value
        if divisors[top] != p:
            second[col:] = [x * p // divisors[top] for x in second[col:]]
        a10, a11 = second[col], second[nxt]
        value = (a00 * a11 - a01 * a10) // p
        gap, tail0, tail1 = [0] * (nxt + 1 - col), pivot_row[nxt + 1:], second[nxt + 1:]
        for r in range(top + 1, len(rows)):
            row = rows[r]
            x0, x1 = row[col], row[nxt]
            if x0 or x1:
                if divisors[r] != p:
                    d = divisors[r]
                    row[col:] = [x * p // d for x in row[col:]]
                    x0, x1 = row[col], row[nxt]
                c1, c2 = (a00 * x1 - a01 * x0) // p, (a10 * x1 - a11 * x0) // p
                row[col:] = gap + [(value * x - c1 * z + c2 * y) // p
                                   for x, y, z in zip(row[nxt + 1:], tail0, tail1)]
                divisors[r] = value
        second[col:] = [(a00 * x - a10 * y) // p for x, y in zip(second[col:], pivot_row[col:])]
        pivots.append(nxt)
        col = nxt + 1
    value, scale = sign * value, prod(scales)
    return pivots, Fraction(value, scale) if value % scale else value // scale


def _rref_rows(field, rows, width):
    """Reduce a list of rows (lists or tuples) of canonical scalars in
    place to lists of canonical field scalars; return (rank, pivot
    columns).

    Over QQ, with d the last Bareiss pivot, the determinant of the scaled
    pivot block, d times a reduced row is integral by Cramer's rule, and
    it is d at the row's own pivot and 0 at the other pivots.  So the
    back-substitution, bottom row first and with exact divisions, runs on
    the free (non-pivot) columns alone, and each row is written as 0
    everywhere, 1 at its pivot and x / d at each nonzero free entry x (a
    Fraction only where d does not divide x).  The rows below the rank
    stay the zero rows _echelon leaves.

    Over F_p the back-substitution runs on the packed rows _echelon leaves:
    from the last pivot up, its row is reduced, scaled by the inverse of
    its lead and reduced again, and each row above gets one multiply-add
    that makes its slot in the pivot column a multiple of p, its factor
    read off that slot.  A row above gains less than p^2 per slot at each
    pivot below it, so the slots stay below (rows + 1) p^2 (_slots).  Each
    pivot row is reduced when its turn comes and is not touched after, and
    the rows below the rank are zero, so each row is unpacked once as it
    is."""
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
    d = rows[rank - 1][pivots[-1]] if rank else 1
    free = sorted(set(range(width)).difference(pivots))
    tails = [[row[col] for col in free] for row in rows[:rank]]
    for top in reversed(range(rank)):
        row, tail = rows[top], tails[top]
        below = [(row[pivots[j]], tails[j]) for j in range(top + 1, rank) if row[pivots[j]]]
        pk = row[pivots[top]]
        acc = [d * x for x in tail]
        for a, other in below:
            acc = [x - a * y for x, y in zip(acc, other)]
        tail = tails[top] = [x // pk for x in acc]
        row = rows[top] = [0] * width
        row[pivots[top]] = 1
        for col, x in compress(zip(free, tail), tail):
            row[col] = Fraction(x, d) if x % d else x // d
    return rank, pivots


def rref(field, m: Matrix):
    """Unique reduced row-echelon form of m (shape preserved), each entry
    coerced once.

    Returns (rank, reduced) where rank counts the nonzero rows.
    """
    rows = [[*map(field.coerce, r)] for r in m.entries]
    rank, _ = _rref_rows(field, rows, m.cols)
    return rank, Matrix(m.rows, m.cols, tuple(tuple(r) for r in rows))


def det(field, m: Matrix):
    """Exact determinant of a square m, or zero below full rank: the value
    _echelon returns, which over F_p is the signed product of its pivots
    mod p and over QQ its last Bareiss pivot, signed and divided by the
    row scales that cleared the denominators (an int where they divide
    it).  Each entry of a caller's matrix is coerced once; a _Canonical
    one is taken as it is.  A zero row or zero column gives zero with no
    elimination (a zero scalar is falsy in every field)."""
    if m.rows != m.cols:
        raise DimensionError("determinant of a non-square %dx%d matrix" % (m.rows, m.cols))
    rows = [*m.entries] if type(m) is _Canonical else [[*map(field.coerce, r)] for r in m.entries]
    if not all(map(any, rows)) or not all(map(any, zip(*rows))):
        return field.zero
    pivots, value = _echelon(field, rows, m.cols)
    return value if len(pivots) == m.rows else field.zero


def _combine(field, out, coeffs, rows) -> list:
    """The fresh list out plus the sum of c row over the coefficients c
    (a list or tuple, read twice) and the rows, made canonical once by
    field._canonical.  compress picks the nonzero coefficients, and the
    places of each row's nonzero entries from one range, so no zero is
    multiplied."""
    places = range(len(out))
    for c, row in compress(zip(coeffs, rows), coeffs):
        for k in compress(places, row):
            out[k] += c * row[k]
    return field._canonical(out)


class Subspace(namedtuple("Subspace", "field ambient_dim basis")):
    """A linear subspace held by its canonical (RREF, no zero rows) basis.
    The class has no __slots__: its instances keep their pivot columns,
    found on first use, in their __dict__."""

    @property
    def dim(self) -> int:
        return self.basis.rows

    def contains(self, v) -> bool:
        return self._holds(_vector(self.field, self.ambient_dim, v))

    def _holds(self, v) -> bool:
        """contains for a canonical v of the ambient length, which is
        neither checked nor coerced: v minus v[p] b over the basis rows b,
        p the pivot of b, is zero (_combine).  Each row is 1 at its own
        pivot and 0 at every other, so v[p] is its coefficient."""
        return not any(_combine(self.field, list(v), [-v[c] for c in self._pivots],
                                self.basis.entries))

    @cached_property
    def _pivots(self) -> list:
        """The pivot column of each basis row: its first nonzero entry, a one."""
        return [row.index(1) for row in self.basis.entries]

    def vectors(self):
        """Canonical basis rows."""
        return self.basis.entries


def _vector(field, n: int, v) -> tuple:
    """The canonical coordinates of a vector v that a caller hands in:
    its length is checked against n, then each coordinate is coerced
    once."""
    if len(v) != n:
        raise DimensionError("vector of length %d in an ambient space of dim %d" % (len(v), n))
    return tuple(map(field.coerce, v))


def subspace_from_vectors(field, ambient_dim: int, vectors) -> Subspace:
    return _span(field, ambient_dim, [_vector(field, ambient_dim, v) for v in vectors])


def _span(field, ambient_dim: int, rows) -> Subspace:
    """subspace_from_vectors for a list of rows of ambient_dim canonical
    scalars (tuples or lists), which are neither checked nor coerced.

    Only the columns that some row touches are eliminated (zero is falsy
    in both fields): the rows are sliced to them by one itemgetter into a
    new list, so the caller's list is left as it is, and each of the rank
    reduced rows is spread back to ambient_dim entries by another, over
    the row and one zero.  Rows on no column span 0 and rows on one
    column c span e_c, so no elimination runs for them."""
    used = [col for col, column in enumerate(zip(*rows)) if any(column)]
    if len(used) < 2:
        return coordinate_subspace(field, ambient_dim, [col + 1 for col in used])
    width = len(used)
    rows = [*map(itemgetter(*used), rows)]
    rank, _ = _rref_rows(field, rows, width)
    where = dict(zip(used, range(width)))
    spread = itemgetter(*[where.get(col, width) for col in range(ambient_dim)])
    basis = tuple(spread((*row, field.zero)) for row in rows[:rank])
    return Subspace(field, ambient_dim, Matrix(rank, ambient_dim, basis))


def _unit_rows(zero, one, n: int, indices) -> list:
    """The rows e_i of length n over the distinct indices (in 1..n,
    unchecked), in ascending order, as lists: each is copied from one
    template of zeros with a one set at its index.  coordinate_subspace
    takes them over the field's scalars, the report over their texts."""
    template = [zero] * n
    rows = []
    for i in sorted(indices):
        template[i - 1] = one
        rows.append(template.copy())
        template[i - 1] = zero
    return rows


def coordinate_subspace(field, ambient_dim: int, indices) -> Subspace:
    """Span of the e_i over indices in 1..ambient_dim; an index outside
    that range is refused.  Distinct unit vectors in ascending order
    already are the canonical basis (_unit_rows)."""
    indices = set(indices)
    if indices and not 1 <= min(indices) <= max(indices) <= ambient_dim:
        raise IndexError("indices outside 1..%d" % ambient_dim)
    rows = tuple(map(tuple, _unit_rows(field.zero, field.one, ambient_dim, indices)))
    return Subspace(field, ambient_dim, Matrix(len(rows), ambient_dim, rows))


def zero_subspace(field, ambient_dim: int) -> Subspace:
    return coordinate_subspace(field, ambient_dim, ())


def full_subspace(field, ambient_dim: int) -> Subspace:
    return coordinate_subspace(field, ambient_dim, range(1, ambient_dim + 1))


def _same_ambient(field, n: int, subspace: Subspace):
    """Refuse a subspace that does not live in the space of n coordinates
    over field: a subspace operation passes its first subspace's, an
    ideal routine its algebra's."""
    if subspace.ambient_dim != n:
        raise DimensionError("different ambient dimensions, %d and %d"
                             % (n, subspace.ambient_dim))
    if subspace.field != field:
        raise FieldError("different fields, %r and %r" % (field, subspace.field))


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    _same_ambient(s1.field, s1.ambient_dim, s2)
    return _span(s1.field, s1.ambient_dim, [*s1.basis.entries, *s2.basis.entries])


def subspace_intersection(s1: Subspace, s2: Subspace) -> Subspace:
    """Zassenhaus: reduce [B1|B1; B2|0]; rows with zero left half carry the
    intersection in their right half, and those halves already are in
    reduced echelon form."""
    _same_ambient(s1.field, s1.ambient_dim, s2)
    f = s1.field
    n = s1.ambient_dim
    zeros = [f.zero] * n
    stacked = _span(f, 2 * n, [*([*r, *r] for r in s1.basis.entries),
                               *([*r, *zeros] for r in s2.basis.entries)])
    # a reduced row whose pivot lies in the right half is zero on the left
    carriers = tuple(row[n:] for row, col in zip(stacked.basis.entries, stacked._pivots)
                     if col >= n)
    return Subspace(f, n, Matrix(len(carriers), n, carriers))


def subspace_equal(s1: Subspace, s2: Subspace) -> bool:
    _same_ambient(s1.field, s1.ambient_dim, s2)
    return s1.basis == s2.basis
