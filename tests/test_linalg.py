from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import GF as SympyGF
from sympy import QQ as SympyQQ
from sympy.polys.matrices import DomainMatrix

from evolalg import (GF, QQ, DimensionError, EvolutionAlgebra, FieldError,
                     Matrix, Subspace, det, full_subspace, ideal_generated_by, quotient, rref,
                     subspace_equal, subspace_from_vectors,
                     subspace_intersection, subspace_sum, zero_subspace)
from evolalg.fields import MODULUS_BOUND, is_prime
from evolalg.linalg import _slots, coordinate_subspace, mat_vec
from support import FIXED, make_rng, matrix, scalars


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
    return [sum((draw(WIDE_RATIONALS) * row[c] for row in rows), QQ.zero)
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


@FIXED
@given(data=st.data())
def test_wide_rational_det_matches_sympy(data):
    n = data.draw(st.integers(min_value=0, max_value=6))
    rows = wide_rows(data.draw, n, n)
    m = Matrix(n, n, tuple(tuple(r) for r in rows))
    assert det(QQ, m) == from_sympy(QQ, sympy_matrix(QQ, rows, n).det())


@FIXED
@given(data=st.data())
def test_wide_rational_rref_matches_sympy(data):
    cols = data.draw(st.integers(min_value=1, max_value=6))
    rows = wide_rows(data.draw, cols, data.draw(st.integers(min_value=0, max_value=7)))
    rank, reduced = rref(QQ, Matrix(len(rows), cols, tuple(tuple(r) for r in rows)))
    expected, pivots = sympy_matrix(QQ, rows, cols).rref()
    assert rank == len(pivots)
    assert reduced.entries == tuple(tuple(from_sympy(QQ, x) for x in r)
                                    for r in expected.to_list())


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


def canonical(field, x):
    if field.kind == "rational":
        return type(x) is Fraction
    return type(x) is int and 0 <= x < field.p


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
    entries += mat_vec(field, m, square[0])
    algebra = EvolutionAlgebra(field, m)
    pres = quotient(algebra, ideal_generated_by(algebra, square[0]))
    for matrix in (pres.projection, pres.quotient.structure):
        entries += [x for r in matrix.entries for x in r]
    s1 = subspace_from_vectors(field, n, rows)
    s2 = subspace_from_vectors(field, n, more)
    for s in (s1, subspace_sum(s1, s2), subspace_intersection(s1, s2)):
        entries += [x for r in s.vectors() for x in r]
    assert all(canonical(field, x) for x in entries)


@field_param
@FIXED
@given(data=st.data())
def test_mat_vec_matches_the_field_arithmetic_loop(field, data):
    rows = data.draw(st.integers(min_value=0, max_value=5))
    cols = data.draw(st.integers(min_value=0, max_value=5))
    m = Matrix(rows, cols, tuple(tuple(data.draw(vectors(field, cols))) for _ in range(rows)))
    v = data.draw(vectors(field, cols))
    expected = []
    for row in m.entries:
        acc = field.zero
        for x, y in zip(row, v):
            acc = field.coerce(acc + x * y)
        expected.append(acc)
    assert mat_vec(field, m, v) == tuple(expected)
    with pytest.raises(DimensionError):
        mat_vec(field, m, v + [field.zero])
