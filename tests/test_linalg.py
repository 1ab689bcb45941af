from fractions import Fraction
from itertools import chain
from math import prod

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from sympy import GF as SympyGF
from sympy import QQ as SympyQQ
from sympy.polys.matrices import DomainMatrix

from evolalg import (GF, QQ, DimensionError, EvolutionAlgebra, FieldError,
                     Matrix, Subspace, det, full_subspace, ideal_generated_by, quotient, rref,
                     subspace_equal, subspace_from_vectors,
                     subspace_intersection, subspace_sum, zero_subspace)
from evolalg.fields import MODULUS_BOUND, is_prime
from evolalg.decompose import _restricted_structure, optimal_decomposition
from evolalg.linalg import (_Canonical, _rref_rows, _slots, _span, _unit_rows,
                            coordinate_subspace)
from support import (FIXED, is_canonical, make_rng, matrix, nonzero_scalars,
                     pair_cycle_mixing, raw_scalars, scalars, swap_pair_plus_loop,
                     weighted_digraph_algebras)


def mat(rows):
    return matrix([[QQ.coerce(x) for x in r] for r in rows])


def test_rref_identity_is_fixed():
    m = mat([[1, 0], [0, 1]])
    rank, reduced = rref(QQ, m)
    assert rank == 2
    assert reduced == m


def test_rref_proportional_rows_collapse():
    rank, reduced = rref(QQ, mat([[1, 1], [2, 2]]))
    assert rank == 1
    assert reduced.entries == ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(0)))
    # the leading pairs are proportional: column 2 has no pivot, so the
    # pass at column 1 takes its second pivot from column 3
    assert rref(QQ, mat([[1, 2, 3], [2, 4, 5]])) == (2, mat([[1, 2, 0], [0, 0, 1]]))
    # the same pass over three rows: the third row, 3 row 1 in columns 1
    # and 2, comes back zero from the one update that clears columns 1 to 3
    assert rref(QQ, mat([[1, 2, 3], [2, 4, 5], [3, 6, 1]])) == (
        2, mat([[1, 2, 0], [0, 0, 1], [0, 0, 0]]))
    # row 2 is 2 row 1 in columns 1 to 3: the second pivot lies two
    # columns past the next one
    assert rref(QQ, mat([[1, 2, 3, 4], [2, 4, 6, 5]])) == (2, mat([[1, 2, 3, 0], [0, 0, 0, 1]]))


def test_rref_of_entangled_square_span_has_rank_two():
    # the three squares e1^2, e2^2, e3^2 of the algebra whose ideal has no
    # natural basis; the last two rows are opposite
    rank, _ = rref(QQ, mat([[0, 1, 1], [1, 1, 0], [-1, -1, 0]]))
    assert rank == 2


def test_det_golden_values():
    assert det(QQ, mat([[1, 0], [0, 1]])) == 1
    assert det(QQ, mat([[0, 1], [1, 1]])) == -1  # cofactor expansion by hand
    # a zero column forces singularity
    assert det(QQ, mat([[1, 0, 2], [3, 0, 4], [5, 0, 6]])) == 0
    assert det(QQ, mat([[Fraction(1, 2), 0], [0, Fraction(2, 3)]])) == Fraction(1, 3)
    # row 2 is 2 row 1 in columns 1 and 2, so the second pivot of the
    # first pass is row 3, swapped up; column 3 holds the last pivot, with
    # no row below it to update
    assert det(QQ, mat([[1, 2, 3], [2, 4, 5], [3, 7, 1]])) == 1


def test_det_requires_square():
    with pytest.raises(DimensionError):
        det(QQ, mat([[1, 2, 3], [4, 5, 6]]))


def test_subspace_construction_and_membership():
    zero = subspace_from_vectors(QQ, 3, [])
    assert zero.dim == 0
    assert zero.contains((0, 0, 0))
    assert not zero.contains((1, 0, 0))

    full2 = subspace_from_vectors(QQ, 2, [(1, 0), (0, 1)])
    assert subspace_equal(full2, full_subspace(QQ, 2))

    s = subspace_from_vectors(QQ, 3, [(0, 1, 1), (1, 1, 0), (-1, -1, 0)])
    assert s.dim == 2
    assert s.contains((1, 2, 1))  # (1,1,0) + (0,1,1)
    assert not s.contains((1, 0, 0))

    line = subspace_from_vectors(QQ, 3, [(0, 1, 0)])
    assert not line.contains((1, 0, 0))

    with pytest.raises(DimensionError):
        subspace_from_vectors(QQ, 3, [(1, 0)])
    with pytest.raises(DimensionError):
        line.contains((1, 0))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_public_entry_points_coerce_what_they_are_handed(field):
    # text, bools, Fractions of denominator 1 and ints outside [0, p) are
    # coerced where they enter; a float is refused there
    raw = subspace_from_vectors(field, 3, [("1", True, Fraction(4, 2)), (0, 14, "-1/2")])
    canonical = subspace_from_vectors(field, 3, [(1, 1, 2), (0, field.coerce(14),
                                                             field.coerce(Fraction(-1, 2)))])
    assert raw == canonical
    assert raw.contains(("2", 2, Fraction(8, 2))) and not raw.contains((True, 0, 0))
    for vectors in ([(0.5, 0, 0)], [(0, 0, 0), ("1", 1.0, 0)]):
        with pytest.raises(FieldError):
            subspace_from_vectors(field, 3, vectors)
    with pytest.raises(FieldError):
        raw.contains((0.5, 0, 0))


class SearchedRow(tuple):
    """A basis row that counts the searches for its pivot column."""

    searches = 0

    def index(self, *args):
        SearchedRow.searches += 1
        return tuple.index(self, *args)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_pivot_columns_are_found_once_per_subspace(field):
    rows = tuple(SearchedRow(map(field.coerce, row)) for row in [(1, 0, 2, 0), (0, 0, 0, 1)])
    span = Subspace(field, 4, Matrix(2, 4, rows))
    SearchedRow.searches = 0
    answers = [span.contains(v) for v in [(2, 0, 4, 5), (0, 1, 0, 0), (1, 0, 2, 0)] * 3]
    assert answers == [True, False, True] * 3
    assert SearchedRow.searches == len(rows)


def test_subspace_sum_and_intersection_golden():
    a = subspace_from_vectors(QQ, 3, [(1, 1, 0)])
    b = subspace_from_vectors(QQ, 3, [(0, 1, 1)])
    assert subspace_sum(a, b).dim == 2
    assert subspace_equal(subspace_sum(a, a), a)

    x_axis = subspace_from_vectors(QQ, 2, [(1, 0)])
    with pytest.raises(DimensionError, match="different ambient dimensions"):
        subspace_sum(a, x_axis)
    y_axis = subspace_from_vectors(QQ, 2, [(0, 1)])
    assert subspace_intersection(x_axis, y_axis).dim == 0

    plane1 = subspace_from_vectors(QQ, 3, [(1, 0, 0), (0, 1, 0)])
    plane2 = subspace_from_vectors(QQ, 3, [(0, 1, 0), (0, 0, 1)])
    meet = subspace_intersection(plane1, plane2)
    assert subspace_equal(meet, subspace_from_vectors(QQ, 3, [(0, 1, 0)]))


def test_subspaces_over_different_fields_are_refused():
    # span{e1} over QQ and over GF(3) hold different vectors, although
    # their canonical bases compare equal
    over_qq, over_gf3 = coordinate_subspace(QQ, 2, [1]), coordinate_subspace(GF(3), 2, [1])
    assert over_qq.basis == over_gf3.basis
    for combine in (subspace_equal, subspace_sum, subspace_intersection):
        with pytest.raises(FieldError):
            combine(over_qq, over_gf3)
    assert subspace_equal(over_gf3, coordinate_subspace(GF(3), 2, [1]))


def random_matrix(rng, field, rows, cols):
    return Matrix(rows, cols, tuple(tuple(rng.randrange(field.p) for _ in range(cols))
                                    for _ in range(rows)))


def test_rref_idempotent_and_rank_vs_det_over_prime_fields():
    rng = make_rng(20240517)
    for field in (GF(2), GF(3), GF(5)):
        for _ in range(60):
            n = rng.randrange(1, 5)
            m = random_matrix(rng, field, n, n)
            rank, reduced = rref(field, m)
            rank2, reduced2 = rref(field, reduced)
            assert reduced2 == reduced and rank2 == rank
            d = det(field, m)
            assert (d != field.zero) == (rank == n)


def test_grassmann_identity_on_random_subspaces():
    rng = make_rng(987)
    for field in (GF(2), GF(3)):
        for _ in range(80):
            n = rng.randrange(1, 5)
            vecs1 = [tuple(rng.randrange(field.p) for _ in range(n))
                     for _ in range(rng.randrange(0, n + 1))]
            vecs2 = [tuple(rng.randrange(field.p) for _ in range(n))
                     for _ in range(rng.randrange(0, n + 1))]
            s1 = subspace_from_vectors(field, n, vecs1)
            s2 = subspace_from_vectors(field, n, vecs2)
            total = subspace_sum(s1, s2)
            meet = subspace_intersection(s1, s2)
            assert total.dim + meet.dim == s1.dim + s2.dim
            for v in vecs1:
                assert s1.contains(v)
                assert total.contains(v)
            for v in meet.vectors():
                assert s1.contains(v) and s2.contains(v)


def test_canonical_bases_make_equality_structural():
    s1 = subspace_from_vectors(QQ, 3, [(1, 1, 0), (0, 1, 1)])
    s2 = subspace_from_vectors(QQ, 3, [(1, 2, 1), (2, 1, -1)])
    assert s1 == s2  # same set, different generators
    assert subspace_equal(s1, s2)
    assert zero_subspace(QQ, 3) == subspace_from_vectors(QQ, 3, [(0, 0, 0)])


def test_column_without_a_pivot_mod_p_is_cleared():
    # the update by row 1 turns row 2 into (p, p, 1): column 2 then has no
    # pivot mod p, but the row still holds p there
    for p in (2, 3):
        f = GF(p)
        assert det(f, matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])) == p - 1
        dependent = matrix([[1, 1, 0], [1, 1, 1], [2, 2, 1]])
        assert det(f, dependent) == 0
        assert rref(f, dependent) == (2, matrix([[1, 1, 0], [0, 0, 1], [0, 0, 0]]))
        span = subspace_from_vectors(f, 3, [(1, 1, 0), (1, 1, 1)])
        assert span.contains((0, 0, 1)) and not span.contains((0, 1, 0))


@pytest.mark.parametrize("p", [251, 65521, 2 ** 61 - 1])
def test_packed_slots_hold_the_largest_growth(p):
    # A = L U with L unit lower triangular of ones and U unit upper
    # triangular with p - 1 above the diagonal: every update below a pivot
    # multiplies the pivot row's p - 1 entries by the factor p - 1, so the
    # last row gains (p - 1)^2 per slot at each of its n - 1 updates, past
    # the width of p^2 for p = 251 and 65521
    n = 8
    lower = [[1 if c <= r else 0 for c in range(n)] for r in range(n)]
    upper = [[1 if c == r else p - 1 if c > r else 0 for c in range(n)] for r in range(n)]
    a = matrix([[sum(lower[r][k] * upper[k][c] for k in range(n)) % p
                 for c in range(n)] for r in range(n)])
    f = GF(p)
    assert det(f, a) == 1
    assert rref(f, a) == (n, matrix([[int(r == c) for c in range(n)] for r in range(n)]))


# for each prime, the largest row count up to 64 at which a slot of
# (count + 1) p^2 takes a byte less than one of p 2^(8 size) + count p^2,
# the width with room for any int of the size-byte struct code that holds
# p - 1
NARROWED = [(2, 62), (3, 27), (257, 64), (10007, 41), (65537, 64), (2 ** 61 - 1, 63)]


# no shrink phase: a smaller seed gives no simpler matrix
@pytest.mark.parametrize("p, n", NARROWED)
@settings(FIXED, max_examples=4, phases=set(Phase) - {Phase.shrink})
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1), singular=st.booleans())
def test_planted_dets_fill_the_narrowed_slots(p, n, seed, singular):
    # A = L U mod p, L unit lower triangular with entries near 1 and U
    # upper triangular with entries near p - 1: eliminating A takes the
    # factors -L mod p, near p - 1, times U's rows, so the slots fill most;
    # det A is the product of U's diagonal, and a nonsingular A reduces to
    # the identity
    rng = make_rng(seed)
    lower = [[1 + rng.randrange(3) for _ in range(r)] for r in range(n)]
    upper = [[0] * r + [p - 1 - rng.randrange(min(p - 1, 3))]
             + [p - 1 - rng.randrange(min(p, 3)) for _ in range(n - 1 - r)] for r in range(n)]
    if singular:
        k = rng.randrange(n)
        upper[k][k] = 0
    rows = []
    for r in range(n):
        row = upper[r]
        for c, u in zip(lower[r], upper):
            row = [x + c * y for x, y in zip(row, u)]
        rows.append([x % p for x in row])
    f = GF(p)
    a = matrix(rows)
    assert det(f, a) == prod(upper[r][r] for r in range(n)) % p
    rank, reduced = rref(f, a)
    if singular:
        assert rank == n - 1
    else:
        assert (rank, reduced) == (n, matrix([[int(r == c) for c in range(n)] for r in range(n)]))


# sympy's DomainMatrix is the test-only oracle for the elimination kernel;
# GF(2^61 - 1) and the largest modulus a prime field admits need packed
# F_p slots wider than 64 bits
LARGEST_PRIME = next(q for q in range(MODULUS_BOUND - 1, 1, -1) if is_prime(q))
ORACLE_FIELDS = [QQ, GF(2), GF(3), GF(10007), GF(2 ** 61 - 1), GF(LARGEST_PRIME)]
PRIME_FIELDS = ORACLE_FIELDS[1:]


def field_ids(f):
    return "QQ" if f.kind == "rational" else "GF%d" % f.p


field_param = pytest.mark.parametrize("field", ORACLE_FIELDS, ids=field_ids)


def sympy_matrix(field, rows, cols):
    if field.kind == "rational":
        domain = SympyQQ
        rows = [[SympyQQ(x.numerator, x.denominator) for x in r] for r in rows]
    else:
        domain = SympyGF(field.p, symmetric=False)
        rows = [[domain(x) for x in r] for r in rows]
    return DomainMatrix(rows, (len(rows), cols), domain)


def from_sympy(field, x):
    if field.kind == "rational":
        return Fraction(int(x.numerator), int(x.denominator))
    return int(x)


def vectors(field, width):
    return st.lists(scalars(field), min_size=width, max_size=width)


def combination(draw, field, rows, width):
    out = [field.zero] * width
    for row in rows:
        k = draw(scalars(field))
        out = [field.coerce(x + k * y) for x, y in zip(out, row)]
    return out


def vector_lists(draw, field, width, max_rows=5):
    """Random rows and combinations of them, shuffled, so that rank
    deficiency, zero rows and no rows at all are common."""
    base = draw(st.lists(vectors(field, width), max_size=max_rows))
    extra = draw(st.integers(min_value=0, max_value=max_rows - len(base)))
    return draw(st.permutations(base + [combination(draw, field, base, width)
                                        for _ in range(extra)]))


@field_param
@FIXED
@given(data=st.data())
def test_det_matches_sympy(field, data):
    # up to 11 columns: packed F_p rows of an odd and an even slot count
    n = data.draw(st.integers(min_value=0, max_value=11))
    rows = vector_lists(data.draw, field, n, max_rows=n)
    rows += [[field.zero] * n] * (n - len(rows))
    m = Matrix(n, n, tuple(tuple(r) for r in rows))
    assert det(field, m) == from_sympy(field, sympy_matrix(field, rows, n).det())


@field_param
def test_zero_row_or_column_gives_zero_det_with_no_elimination(field, monkeypatch):
    import evolalg.linalg

    eliminations = []

    def counted(*args):
        eliminations.append(args)
        return echelon(*args)

    echelon = evolalg.linalg._echelon
    monkeypatch.setattr(evolalg.linalg, "_echelon", counted)
    rng = make_rng(field_ids(field))
    for k in range(60):
        n = rng.randrange(1, 6)
        rows = [[field.coerce(rng.randrange(-9, 10)) if field.kind == "rational"
                 else rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        line = rng.randrange(n)
        if k % 2:
            rows[line] = [field.zero] * n
        else:
            for row in rows:
                row[line] = field.zero
        m = Matrix(n, n, tuple(tuple(r) for r in rows))
        assert det(field, m) == field.zero == from_sympy(field, sympy_matrix(field, rows, n).det())
    assert eliminations == []
    # a matrix with no zero line still eliminates
    assert det(field, Matrix(2, 2, ((field.zero, field.one), (field.one, field.one)))) == field.coerce(-1)
    assert len(eliminations) == 1


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=field_ids)
@FIXED
@given(data=st.data())
def test_raw_ints_give_the_results_of_their_residues(field, data):
    # each entry is its residue plus a multiple of p, so negative entries,
    # entries >= p and nonzero multiples of p are all common
    n = data.draw(st.integers(min_value=1, max_value=5))
    rows = vector_lists(data.draw, field, n, max_rows=n)
    rows += [[field.zero] * n] * (n - len(rows))
    reduced = Matrix(n, n, tuple(tuple(r) for r in rows))
    raw = Matrix(n, n, tuple(tuple(x + field.p * data.draw(st.integers(min_value=-3, max_value=3))
                                   for x in r) for r in rows))
    assert det(field, raw) == det(field, reduced)
    assert rref(field, raw) == rref(field, reduced)


@pytest.mark.parametrize("p", [2, 3, 7, 251, 257, 10007])
@FIXED
@given(data=st.data())
def test_raw_ints_up_to_the_struct_code_bound_give_the_results_of_their_residues(p, data):
    # entries below 0, up to the bound of the struct code that holds p - 1
    # and past it: det and rref coerce each one to its residue where they
    # take the matrix, so the slots hold residues alone and the results
    # are those of the reduced matrix
    field = GF(p)
    top = 1 << 8 * next(size for size in (1, 2, 4, 8) if p <= 1 << 8 * size)
    edges = [top - 1 - k for k in range(p)] + [p, p - 1, 0, -1, -p, -top, top, 3 * top]
    entry = st.one_of(st.sampled_from(edges), st.integers(min_value=-3 * p, max_value=top - 1))
    rows = data.draw(st.integers(min_value=1, max_value=9))
    cols = data.draw(st.integers(min_value=1, max_value=9))
    raw = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
    reduced = [[x % p for x in row] for row in raw]
    assert rref(field, matrix(raw)) == rref(field, matrix(reduced))
    k = min(rows, cols)
    assert (det(field, matrix(row[:k] for row in raw[:k]))
            == det(field, matrix(row[:k] for row in reduced[:k])))


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2 ** 61 - 1), GF(2 ** 64 + 13)],
                         ids=field_ids)
@settings(FIXED, max_examples=25)  # about 0.15 s per field
@given(data=st.data())
def test_det_and_rref_take_what_coerce_takes(field, data):
    # text, bools, Fractions and raw ints give the det and the rref of the
    # coerced matrix, over QQ and on both F_p packing routes (2^64 + 13,
    # prime, is too wide for a struct code); a float is refused with
    # coerce's FieldError, also where a zero row would give det 0 with no
    # elimination
    rows = data.draw(st.integers(min_value=1, max_value=4))
    cols = data.draw(st.integers(min_value=1, max_value=4))
    entry = raw_scalars(field)
    raw = [[data.draw(entry) for _ in range(cols)] for _ in range(rows)]
    coerced = [[field.coerce(x) for x in row] for row in raw]
    rank, reduced = rref(field, matrix(raw))
    assert (rank, reduced) == rref(field, matrix(coerced))
    k = min(rows, cols)
    square = [row[:k] for row in raw[:k]]
    value = det(field, matrix(square))
    assert value == det(field, matrix(row[:k] for row in coerced[:k]))
    assert all(is_canonical(field, x) for x in [value, *chain(*reduced.entries)])
    r, c = (data.draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(2))
    square[r][c] = data.draw(st.floats())
    if k > 1 and data.draw(st.booleans()):
        square[(r + 1) % k] = [field.zero] * k
    for call in (det, rref):
        with pytest.raises(FieldError):
            call(field, matrix(square))


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2 ** 64 + 13)], ids=field_ids)
def test_a_callers_matrix_is_coerced_once_and_a_block_slice_never(field, monkeypatch):
    # det and rref coerce each entry of a matrix the caller built, also a
    # canonical one and one with a zero row; the block slices that
    # decompose hands to det are _Canonical and are taken as they are
    algebras = [swap_pair_plus_loop(field), pair_cycle_mixing(field)]
    coerce = type(field).coerce
    calls = []

    def counted(self, value):
        calls.append(value)
        return coerce(self, value)

    monkeypatch.setattr(type(field), "coerce", counted)
    for rows in ([(1, 2, 0), (0, 1, 1), (1, 0, 1)], [(1, 2, 0), (0, 0, 0), (1, 0, 1)]):
        for call in (det, rref):
            calls.clear()
            call(field, matrix(rows))
            assert len(calls) == 9
    calls.clear()
    for algebra in algebras:
        blocks = optimal_decomposition(algebra).blocks
        assert [det(field, _restricted_structure(algebra, block.indices))
                for block in blocks] == [block.det for block in blocks]
        assert all(type(_restricted_structure(algebra, block.indices)) is _Canonical
                   for block in blocks)
    assert calls == []


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=field_ids)
@FIXED
@given(data=st.data())
def test_slot_reduction_is_mod_p_in_every_slot(field, data):
    # the slot width the kernel picks for 1 to 130 rows, odd and even slot
    # counts (the reduction splits the even slots from the odd ones), and
    # the values where a Barrett step is off by one p or a slot is full
    p = field.p
    count = data.draw(st.integers(min_value=1, max_value=130))
    width = data.draw(st.integers(min_value=1, max_value=9))
    bits, _, _, reduce = _slots(p, count, width)
    top = 1 << bits
    edges = [0, p - 1, p, 2 * p - 1, (top - 1) // p * p, top - 1]
    values = data.draw(st.lists(st.one_of(st.sampled_from(edges),
                                          st.integers(min_value=0, max_value=top - 1)),
                                min_size=width, max_size=width))
    packed = 0
    for v in values:
        packed = packed << bits | v
    reduced = reduce(packed)
    assert reduced >> bits * width == 0
    assert ([reduced >> bits * (width - 1 - k) & (top - 1) for k in range(width)]
            == [v % p for v in values])


@field_param
@FIXED
@given(data=st.data())
def test_rref_matches_sympy(field, data):
    cols = data.draw(st.integers(min_value=1, max_value=11))
    rows = vector_lists(data.draw, field, cols)
    if field.kind != "rational" and data.draw(st.booleans()):
        # [A | I]: wide rows with a pivot in every row, as for an inverse
        rows = [r + [field.one if j == i else field.zero for j in range(len(rows))]
                for i, r in enumerate(rows)]
        cols += len(rows)
    rank, reduced = rref(field, Matrix(len(rows), cols, tuple(tuple(r) for r in rows)))
    expected, pivots = sympy_matrix(field, rows, cols).rref()
    assert rank == len(pivots)
    assert reduced.entries == tuple(tuple(from_sympy(field, x) for x in r)
                                    for r in expected.to_list())


@field_param
@FIXED
@given(data=st.data())
def test_contains_matches_sympy_rank(field, data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    rows = vector_lists(data.draw, field, n)
    if data.draw(st.booleans()):
        v = combination(data.draw, field, rows, n)
    else:
        v = data.draw(vectors(field, n))
    expected = (sympy_matrix(field, rows + [v], n).rank()
                == sympy_matrix(field, rows, n).rank())
    assert subspace_from_vectors(field, n, rows).contains(v) == expected


@field_param
@FIXED
@given(data=st.data())
def test_intersection_basis_is_canonical_and_grassmann_holds(field, data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    s1 = subspace_from_vectors(field, n, vector_lists(data.draw, field, n))
    s2 = subspace_from_vectors(field, n, vector_lists(data.draw, field, n))
    meet = subspace_intersection(s1, s2)
    assert meet == subspace_from_vectors(field, n, meet.vectors())
    assert meet.dim + subspace_sum(s1, s2).dim == s1.dim + s2.dim
    assert all(s1.contains(v) and s2.contains(v) for v in meet.vectors())


@field_param
@FIXED
@given(data=st.data())
def test_coordinate_subspace_is_the_span_of_its_unit_vectors(field, data):
    n = data.draw(st.integers(min_value=0, max_value=6))
    indices = data.draw(st.lists(st.integers(min_value=1, max_value=n), max_size=n)) if n else []
    units = [[field.one if k == i else field.zero for k in range(1, n + 1)] for i in indices]
    assert coordinate_subspace(field, n, indices) == subspace_from_vectors(field, n, units)


@pytest.mark.parametrize("indices", [[0], [4], [1, 4], [0, 2, 3]])
def test_coordinate_subspace_refuses_an_index_outside_the_basis(indices):
    with pytest.raises(IndexError, match="outside 1..3"):
        coordinate_subspace(QQ, 3, indices)


# wide rationals for the fraction-free QQ path: numerators up to 10^30,
# denominators 1 or up to 10^6, so rows mix integral and fractional
# entries and the Bareiss minors grow long
WIDE_RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=-10 ** 30, max_value=10 ** 30),
              st.one_of(st.just(1), st.integers(min_value=1, max_value=10 ** 6))))


def wide_combination(draw, rows, width):
    """A combination of rows, one wide rational coefficient per row."""
    coefficients = [draw(WIDE_RATIONALS) for _ in rows]
    return [sum((a * row[c] for a, row in zip(coefficients, rows)), QQ.zero)
            for c in range(width)]


def wide_rows(draw, width, count):
    """count rows over the wide rationals, each random (with a few columns
    forced to zero), a combination of the rows before it, or zero: rank
    deficiency, skipped pivot columns and rows whose entry in a pivot
    column is zero are all common."""
    dead = draw(st.sets(st.sampled_from(range(width)), max_size=width // 2)) if width else ()
    rows = []
    for _ in range(count):
        kind = draw(st.sampled_from(("random", "random", "combination", "zero")))
        if kind == "combination" and rows:
            rows.append(wide_combination(draw, rows, width))
        elif kind == "zero":
            rows.append([QQ.zero] * width)
        else:
            rows.append([QQ.zero if c in dead else draw(WIDE_RATIONALS) for c in range(width)])
    return draw(st.permutations(rows))


def sparse_row(width):
    """A row of small ints, each 0 with probability 3/5, else one of
    +-1..3: rows whose two leading entries of a pass are both zero, second
    pivots found below the next row or right of the next column, passes
    that find no second pivot and odd pivot counts are all common."""
    return st.lists(st.sampled_from([0] * 9 + [-3, -2, -1, 1, 2, 3]),
                    min_size=width, max_size=width)


def dense_row(width):
    """A row in the shape of the benchmark's dense QQ corpus: each entry 0
    with probability 1/4, else one of +-1..9, all plain ints: such rows
    enter elimination unscaled, and nearly every pass over them takes two
    pivots and updates every row below."""
    return st.lists(st.sampled_from([0] * 6 + [s * v for s in (-1, 1) for v in range(1, 10)]),
                    min_size=width, max_size=width)


FREE_SHAPES = ("from0", "from1", "drawn", "none", "all")


def free_rows(draw, width, count, shape):
    """count rows spanning the rows of a reduced basis, whose pivot columns,
    at most count of them, are by shape every other column from column 0
    (free columns between and after them) or from column 1 (before and
    between), a drawn set, none (all-zero rows) or all (full rank where
    count reaches width).  Each basis row is 1 at its pivot, 0 at the
    others and a wide rational or zero at each free column right of it.
    Row k is basis row k plus a combination of the rows after it (so the
    rank is that of the basis), scaled by a nonzero; any further rows are
    combinations; then the rows are permuted."""
    if shape in ("from0", "from1"):
        pivots = [*range(int(shape[-1]), width, 2)][:count]
    elif shape == "drawn":
        marks = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        pivots = [col for col, mark in enumerate(marks) if mark][:count]
    else:
        pivots = [*range(min(width, count))] if shape == "all" else []
    basis = []
    for col in pivots:
        row = [QQ.zero] * width
        row[col] = QQ.one
        for c in range(col + 1, width):
            if c not in pivots:
                row[c] = draw(WIDE_RATIONALS)
        basis.append(row)
    rows = []
    for k, row in enumerate(basis):
        mixed = [x + y for x, y in zip(row, wide_combination(draw, basis[k + 1:], width))]
        scale = draw(WIDE_RATIONALS) or QQ.one
        rows.append([scale * x for x in mixed])
    rows += [wide_combination(draw, basis, width) for _ in range(count - len(basis))]
    return draw(st.permutations([[QQ.coerce(x) for x in row] for row in rows]))


RATIONAL_FAMILIES = st.sampled_from(("wide", "sparse", "dense"))


@settings(FIXED, max_examples=200)  # about 67 each of wide, sparse and dense
@given(data=st.data())
def test_wide_rational_det_matches_sympy(data):
    family = data.draw(RATIONAL_FAMILIES)
    if family == "wide":
        n = data.draw(st.integers(min_value=0, max_value=6))
        rows = wide_rows(data.draw, n, n)
    elif family == "sparse":
        n = data.draw(st.integers(min_value=0, max_value=10))
        rows = data.draw(st.lists(sparse_row(n), min_size=n, max_size=n))
    else:
        n = data.draw(st.integers(min_value=0, max_value=12))
        rows = data.draw(st.lists(dense_row(n), min_size=n, max_size=n))
    m = Matrix(n, n, tuple(tuple(r) for r in rows))
    assert det(QQ, m) == from_sympy(QQ, sympy_matrix(QQ, rows, n).det())


@settings(FIXED, max_examples=200)  # about 67 each of wide, sparse and dense
@given(data=st.data())
def test_wide_rational_rref_matches_sympy(data):
    family = data.draw(RATIONAL_FAMILIES)
    if family == "wide":
        cols = data.draw(st.integers(min_value=1, max_value=6))
        rows = wide_rows(data.draw, cols, data.draw(st.integers(min_value=0, max_value=7)))
    elif family == "sparse":
        cols = data.draw(st.integers(min_value=1, max_value=10))
        rows = data.draw(st.lists(sparse_row(cols), max_size=8))
    else:
        cols = data.draw(st.integers(min_value=1, max_value=12))
        count = data.draw(st.integers(min_value=0, max_value=12))
        rows = data.draw(st.lists(dense_row(cols), min_size=count, max_size=count))
    assert_rational_rref_matches_sympy(rows, cols)


def assert_rational_rref_matches_sympy(rows, cols):
    rank, reduced = rref(QQ, Matrix(len(rows), cols, tuple(tuple(r) for r in rows)))
    expected, pivots = sympy_matrix(QQ, rows, cols).rref()
    assert rank == len(pivots)
    assert reduced.entries == tuple(tuple(from_sympy(QQ, x) for x in r)
                                    for r in expected.to_list())


@pytest.mark.parametrize("shape", FREE_SHAPES)
@settings(FIXED, max_examples=20)
@given(data=st.data())
def test_rational_rref_on_free_columns_matches_sympy(shape, data):
    # the back-substitution computes the free (non-pivot) columns alone and
    # writes the pivot columns as those of an identity
    cols = data.draw(st.integers(min_value=2, max_value=8))
    count = data.draw(st.integers(min_value=1, max_value=8))
    assert_rational_rref_matches_sympy(free_rows(data.draw, cols, count, shape), cols)


@FIXED
@given(data=st.data())
def test_wide_rational_contains_matches_sympy_rank(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    rows = wide_rows(data.draw, n, data.draw(st.integers(min_value=0, max_value=7)))
    if data.draw(st.booleans()):
        v = wide_combination(data.draw, rows, n)
    else:
        v = data.draw(st.lists(WIDE_RATIONALS, min_size=n, max_size=n))
    expected = (sympy_matrix(QQ, rows + [v], n).rank()
                == sympy_matrix(QQ, rows, n).rank())
    assert subspace_from_vectors(QQ, n, rows).contains(v) == expected


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(10007)], ids=field_ids)
@FIXED
@given(data=st.data())
def test_results_are_canonical_field_scalars(field, data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    if field.kind == "rational":
        rows, more = wide_rows(data.draw, n, n), wide_rows(data.draw, n, n)
    else:
        rows, more = vector_lists(data.draw, field, n), vector_lists(data.draw, field, n)
    square = (rows + [[field.zero] * n] * n)[:n]
    m = Matrix(n, n, tuple(tuple(r) for r in square))
    value = det(field, m)
    entries = [value] + [x for r in rref(field, m)[1].entries for x in r]
    algebra = EvolutionAlgebra(field, m)
    pres = quotient(algebra, ideal_generated_by(algebra, square[0]))
    entries += pres.project(square[-1]) + algebra.multiply(square[0], square[-1])
    for matrix in (pres.projection, pres.quotient.structure):
        entries += [x for r in matrix.entries for x in r]
    s1 = subspace_from_vectors(field, n, rows)
    s2 = subspace_from_vectors(field, n, more)
    for s in (s1, subspace_sum(s1, s2), subspace_intersection(s1, s2)):
        entries += [x for r in s.vectors() for x in r]
    assert all(is_canonical(field, x) for x in entries)


@field_param
@FIXED
@given(data=st.data())
def test_project_matches_the_field_arithmetic_loop(field, data):
    # QuotientPresentation.project is the matrix-vector product P v of a
    # quotient's projection, on a drawn algebra and ideal <x>
    algebra = data.draw(weighted_digraph_algebras(field))
    n = algebra.dim
    pres = quotient(algebra, ideal_generated_by(algebra, data.draw(vectors(field, n))))
    v = data.draw(vectors(field, n))
    expected = []
    for row in pres.projection.entries:
        acc = field.zero
        for x, y in zip(row, v):
            acc = field.coerce(acc + x * y)
        expected.append(acc)
    assert pres.project(v) == tuple(expected)
    with pytest.raises(DimensionError):
        pres.project(v + [field.zero])


# _span eliminates on the columns its rows touch; the routes below are the
# ones _span, quotient and subspace_intersection took before, eliminating
# at full width, kept here as the reference.  GF(2^64 + 13) packs its rows
# by int.to_bytes, as no struct code holds its residues.
SPAN_FIELDS = [QQ, GF(2), GF(10007), GF(2 ** 61 - 1), GF(2 ** 64 + 13)]


def full_width_span(field, n, rows):
    """(basis rows, pivots): _rref_rows on the rows as given, at width n,
    then the first rank rows."""
    rows = list(rows)
    rank, pivots = _rref_rows(field, rows, n)
    return tuple(map(tuple, rows[:rank])), pivots


def coerced_residue(field, rows, pivots, v):
    """v minus v[p] b over the reduced rows b, p the pivot of b, each
    entry through field.coerce."""
    out = list(v)
    for col, row in zip(pivots, rows):
        c = v[col]
        out = [field.coerce(x - c * y) for x, y in zip(out, row)]
    return out


def full_width_quotient(algebra, ideal):
    """(chosen, projection rows, quotient squares) read off the reversed
    basis of the ideal reduced at full width."""
    f, n = algebra.field, algebra.dim
    rows, pivots = full_width_span(f, n, [v[::-1] for v in ideal.vectors()])
    chosen = sorted(set(range(1, n + 1)).difference(n - col for col in pivots))
    keep = [n - c for c in chosen]
    reduced = {n - col: row for col, row in zip(pivots, rows)}
    units = iter(_unit_rows(f.zero, f.one, len(chosen), range(1, len(chosen) + 1)))
    columns = [f._canonical([-reduced[i][q] for q in keep]) if i in reduced else next(units)
               for i in range(1, n + 1)]
    squares = [coerced_residue(f, rows, pivots, algebra.square_of_basis(i)[::-1])
               for i in chosen]
    return (tuple(chosen), tuple(zip(*columns)),
            tuple(tuple(square[q] for q in keep) for square in squares))


def full_width_intersection(s1, s2):
    """The right halves of the reduced [B1|B1; B2|0] whose left half is zero."""
    f, n = s1.field, s1.ambient_dim
    stacked = [list(r) + list(r) for r in s1.basis.entries]
    stacked += [list(r) + [f.zero] * n for r in s2.basis.entries]
    _rref_rows(f, stacked, 2 * n)
    return tuple(tuple(row[n:]) for row in stacked if not any(row[:n]) and any(row[n:]))


def assert_span_is_full_width(field, n, rows):
    span = _span(field, n, list(rows))
    basis, pivots = full_width_span(field, n, rows)
    assert span.basis == Matrix(len(basis), n, basis)
    assert span._pivots == pivots
    assert all(is_canonical(field, x) for row in span.basis.entries for x in row)


@st.composite
def rows_with_unused_columns(draw, field):
    """(n, rows): the rows of vector_lists at the width of a drawn set of
    columns, spread over them, so every other column is zero."""
    n = draw(st.integers(min_value=1, max_value=7))
    used = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
    rows = []
    for short in vector_lists(draw, field, len(used)):
        row = [field.zero] * n
        for col, x in zip(used, short):
            row[col] = x
        rows.append(tuple(row))
    return n, rows


@pytest.mark.parametrize("field", SPAN_FIELDS, ids=field_ids)
@settings(FIXED, max_examples=60)
@given(data=st.data())
def test_span_on_the_used_columns_is_the_full_width_span(field, data):
    assert_span_is_full_width(field, *data.draw(rows_with_unused_columns(field)))


@pytest.mark.parametrize("field", SPAN_FIELDS, ids=field_ids)
def test_span_edge_cases_are_the_full_width_span(field):
    zero, one, minus = field.zero, field.one, field.coerce(-1)
    for n, rows in [(3, []), (0, []), (0, [(), ()]), (3, [(zero,) * 3] * 2),
                    (4, [(zero, one, zero, zero), (zero, minus, zero, zero)]),
                    (4, [(zero,) * 4, (zero, zero, zero, minus)]),
                    (1, []), (1, [(zero,)]), (1, [(minus,), (one,)])]:
        assert_span_is_full_width(field, n, rows)


@pytest.mark.parametrize("field", SPAN_FIELDS, ids=field_ids)
@settings(FIXED, max_examples=20)
@given(data=st.data())
def test_quotient_and_intersection_are_their_full_width_routes(field, data):
    # ideals generated by at most two basis directions of a sparse algebra
    # mostly leave some columns unused
    a = data.draw(weighted_digraph_algebras(field))
    index = st.integers(min_value=1, max_value=a.dim)
    ideals = []
    for _ in range(2):
        x = [field.zero] * a.dim
        for i in data.draw(st.sets(index, max_size=2)):
            x[i - 1] = data.draw(nonzero_scalars(field))
        ideals.append(ideal_generated_by(a, x))
    for ideal in ideals:
        q = quotient(a, ideal)
        squares = tuple(map(q.quotient.square_of_basis, range(1, q.quotient.dim + 1)))
        assert (q.chosen, q.projection.entries, squares) == full_width_quotient(a, ideal)
    meet = subspace_intersection(*ideals)
    assert meet.basis.entries == full_width_intersection(*ideals)
