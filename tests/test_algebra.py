from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evolalg import (GF, QQ, DimensionError, EvolutionAlgebra, FieldError,
                     Matrix, algebra_from_graph, associated_graph,
                     power_associativity_witnesses)
from evolalg.documents import emit_document, parse_document
from support import (FIXED, fan_to_swap_pair, make_rng, random_algebra,
                     random_element, swap_pair_plus_loop, two_sinks_and_pair)


def loose_scalars(field):
    """Entries that field.coerce turns into canonical scalars: ints, negative
    ones too, Fractions and the texts of both.  The denominators are units
    in every field used here."""
    ints = st.integers(min_value=-30, max_value=30)
    dens = st.sampled_from((1, 2, 3, 5) if field.kind == "rational" else (1, 3, 5))
    fractions = st.builds(Fraction, ints, dens)
    return st.one_of(ints, fractions, ints.map(str), ints.map("%+d".__mod__),
                     fractions.map(str))


@st.composite
def loose_matrices(draw, field):
    """A field and an n x n list of rows, 1 <= n <= 5, of loose scalars."""
    n = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(loose_scalars(field), min_size=n, max_size=n)
    return field, draw(st.lists(row, min_size=n, max_size=n))


def same_algebra(a, b):
    return a == b and hash(a) == hash(b)


@FIXED
@given(st.sampled_from([QQ, GF(2), GF(7)]).flatmap(loose_matrices))
# e1^2 = e2+e3, e2^2 = 0, e3^2 = -2 e4, e4^2 = 5 e3: row k, column i is
# the coefficient of e_k in e_i^2
@example((QQ, [[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 5], [0, 0, -2, 0]]))
def test_construction_from_matrix_and_from_squares_agree(case):
    field, rows = case
    n = len(rows)
    canonical = tuple(tuple(map(field.coerce, row)) for row in rows)
    a = EvolutionAlgebra(field, Matrix.from_rows(rows))
    assert same_algebra(a, EvolutionAlgebra.from_squares(field, list(zip(*rows))))
    assert same_algebra(a, parse_document(emit_document(a)))
    assert a.structure == Matrix(n, n, canonical)
    for i in range(1, n + 1):
        assert a.square_of_basis(i) == tuple(row[i - 1] for row in canonical)
    # the graph's 0/1 adjacency matrix: row i is the support of e_i^2
    adjacency = [[1 if x else 0 for x in square] for square in zip(*canonical)]
    g = algebra_from_graph(field, adjacency)
    assert same_algebra(g, EvolutionAlgebra.from_squares(field, adjacency))
    assert same_algebra(g, EvolutionAlgebra(field, Matrix.from_rows(zip(*adjacency))))
    assert same_algebra(g, parse_document(emit_document(g)))


def test_construction_rejects_bad_shapes_and_scalars():
    with pytest.raises(DimensionError):
        EvolutionAlgebra(QQ, Matrix.from_rows([[QQ.zero] * 3, [QQ.zero] * 3]))
    with pytest.raises(FieldError):
        EvolutionAlgebra(GF(5), Matrix.from_rows([[Fraction(1, 5)]]))
    zero = EvolutionAlgebra.from_squares(QQ, [(0, 0), (0, 0)])
    assert zero.dim == 2  # the zero-product algebra is legal


def test_basis_orthogonality_and_squares():
    a = fan_to_swap_pair()
    for i in range(1, 5):
        for j in range(1, 5):
            product = a.multiply(a.basis_element(i), a.basis_element(j))
            if i == j:
                assert product == a.square_of_basis(i)
            else:
                assert product == a.zero_element()
    assert a.multiply(a.basis_element(3), a.basis_element(3)) == a.element((0, 0, 0, -2))
    with pytest.raises(IndexError):
        a.square_of_basis(0)
    with pytest.raises(IndexError):
        a.square_of_basis(5)
    with pytest.raises(DimensionError):
        a.multiply((1, 0), a.basis_element(1))


def test_squares_of_two_sinks_and_pair():
    a = two_sinks_and_pair()
    assert a.square_of_basis(2) == a.element((1, 0, 1, 0, 0, 0))
    assert a.square_of_basis(4) == a.element((0, 0, 1, 0, 1, 0))
    assert a.square_of_basis(1) == a.zero_element()


def test_product_expands_bilinearly():
    a = swap_pair_plus_loop()
    u = a.element((1, 1, 0))  # e1 + e2
    assert a.multiply(u, u) == u  # e1^2 + e2^2 = e2 + e1


def vec_add(field, u, v):
    return tuple(field.add(x, y) for x, y in zip(u, v))


def vec_scale(field, c, u):
    return tuple(field.mul(c, x) for x in u)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_commutativity_flexibility_bilinearity_random(field):
    rng = make_rng(4242)
    for _ in range(120):
        dim = rng.randrange(1, 6)
        a = random_algebra(rng, field, dim)
        x = random_element(rng, field, dim)
        y = random_element(rng, field, dim)
        z = random_element(rng, field, dim)
        assert a.multiply(x, y) == a.multiply(y, x)
        assert a.multiply(x, a.multiply(y, x)) == a.multiply(a.multiply(x, y), x)
        assert a.multiply(vec_add(field, x, z), y) == \
            vec_add(field, a.multiply(x, y), a.multiply(z, y))
        c = random_element(rng, field, 1)[0]
        assert a.multiply(vec_scale(field, c, x), y) == \
            vec_scale(field, c, a.multiply(x, y))


def fourth_power_pair(a, i):
    """The two fourth-power expressions evaluated straight from the
    structure constants, bypassing multiply: sum_k w_ki^2 e_k^2 versus
    w_ii^2 e_i^2."""
    f = a.field
    col = a.square_of_basis(i)
    lhs = a.zero_element()
    for k in range(1, a.dim + 1):
        c = f.mul(col[k - 1], col[k - 1])
        lhs = vec_add(f, lhs, vec_scale(f, c, a.square_of_basis(k)))
    wii = col[i - 1]
    rhs = vec_scale(f, f.mul(wii, wii), a.square_of_basis(i))
    return lhs, rhs


def test_power_associativity_witnesses_golden():
    # zero-product algebra: no witnesses
    assert power_associativity_witnesses(
        EvolutionAlgebra.from_squares(QQ, [(0, 0), (0, 0)])) == frozenset()
    # e1^2 = 2 e1: both expressions evaluate to 8 e1, hence no witness
    one_dim = EvolutionAlgebra.from_squares(QQ, [(2,)])
    sq = one_dim.square_of_basis(1)
    assert one_dim.multiply(sq, sq) == one_dim.element((8,))
    assert power_associativity_witnesses(one_dim) == frozenset()
    # e1^2 = e2, e2^2 = 0: both sides vanish for i = 1 and i = 2
    nil = EvolutionAlgebra.from_squares(QQ, [(0, 1), (0, 0)])
    assert power_associativity_witnesses(nil) == frozenset()
    # e1^2 = e1+e2, e2^2 = e2: the off-diagonal w_21 spoils index 1
    spoiled = EvolutionAlgebra.from_squares(QQ, [(1, 1), (0, 1)])
    lhs, rhs = fourth_power_pair(spoiled, 1)
    assert lhs != rhs
    assert power_associativity_witnesses(spoiled) == frozenset({1})


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_witnesses_match_structure_constant_expressions(field):
    rng = make_rng(777)
    for _ in range(60):
        a = random_algebra(rng, field, rng.randrange(1, 5))
        expected = frozenset(i for i in range(1, a.dim + 1)
                             if fourth_power_pair(a, i)[0] != fourth_power_pair(a, i)[1])
        assert power_associativity_witnesses(a) == expected


def test_algebra_from_graph_golden():
    # the 6-vertex graph with sinks 1 and 3, pair cycle 5 <-> 6
    adjacency = [
        [0, 0, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
    ]
    a = algebra_from_graph(QQ, adjacency)
    assert a == two_sinks_and_pair()

    empty = algebra_from_graph(QQ, [[0, 0], [0, 0]])
    assert empty.structure.entries == ((QQ.zero,) * 2,) * 2

    loop = algebra_from_graph(QQ, [[1]])
    assert loop.square_of_basis(1) == loop.element((1,))


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_graph_round_trip(field):
    rng = make_rng(31337)
    for _ in range(50):
        n = rng.randrange(1, 6)
        adjacency = [[rng.random() < 0.4 for _ in range(n)] for _ in range(n)]
        a = algebra_from_graph(field, adjacency)
        g = associated_graph(a)
        assert g.adjacency_matrix() == tuple(tuple(int(x) for x in row)
                                             for row in adjacency)
