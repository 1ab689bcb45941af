from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from evolalg import (GF, QQ, AssociatedGraph, DimensionError,
                     EvolutionAlgebra, FieldError, Matrix, algebra_from_graph,
                     associated_graph)
from evolalg.documents import emit_document, parse_document
from support import (FIXED, algebras, fan_to_swap_pair, is_canonical, make_rng, matrix,
                     random_algebra, random_element, raw_scalars, swap_pair_plus_loop,
                     two_sinks_and_pair, vec_add, vec_scale)


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
    a = EvolutionAlgebra(field, matrix(rows))
    assert same_algebra(a, EvolutionAlgebra.from_squares(field, list(zip(*rows))))
    assert same_algebra(a, parse_document(emit_document(a)))
    assert a.structure == Matrix(n, n, canonical)
    for i in range(1, n + 1):
        assert a.square_of_basis(i) == tuple(row[i - 1] for row in canonical)
    # the graph's 0/1 adjacency matrix: row i is the support of e_i^2
    adjacency = [[1 if x else 0 for x in square] for square in zip(*canonical)]
    g = algebra_from_graph(field, associated_graph(a))
    assert same_algebra(g, EvolutionAlgebra.from_squares(field, adjacency))
    assert same_algebra(g, EvolutionAlgebra(field, matrix(zip(*adjacency))))
    assert same_algebra(g, parse_document(emit_document(g)))


def test_construction_rejects_bad_shapes_and_scalars():
    with pytest.raises(DimensionError):
        EvolutionAlgebra(QQ, matrix([[QQ.zero] * 3, [QQ.zero] * 3]))
    with pytest.raises(FieldError):
        EvolutionAlgebra(GF(5), matrix([[Fraction(1, 5)]]))
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


@pytest.mark.parametrize("field", [QQ, GF(2), GF(10007), GF(2 ** 64 + 13)],
                         ids=["QQ", "GF2", "GF10007", "GF2^64+13"])
@FIXED
@given(data=st.data())
def test_multiply_sums_the_coerced_coordinates_times_the_squares(field, data):
    # raw coordinates (texts, bools, Fractions, ints of any size) are
    # coerced once; entry k of x y is the sum over i of x_i y_i omega_ki,
    # summed here term by term
    a = data.draw(algebras(field, max_dim=8))
    raw = st.lists(raw_scalars(field), min_size=a.dim, max_size=a.dim)
    x, y = data.draw(raw), data.draw(raw)
    expected = []
    for row in a.structure.entries:
        acc = field.zero
        for xi, yi, omega in zip(x, y, row):
            acc = field.coerce(acc + field.coerce(xi) * field.coerce(yi) * omega)
        expected.append(acc)
    product = a.multiply(x, y)
    assert product == tuple(expected)
    assert all(is_canonical(field, c) for c in product)


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


def test_algebra_from_graph_golden():
    # the 6-vertex graph with sinks 1 and 3, pair cycle 5 <-> 6
    graph = AssociatedGraph.from_edges(6, [(2, 1), (2, 3), (4, 3), (4, 5), (5, 6), (6, 5)])
    a = algebra_from_graph(QQ, graph)
    assert a == two_sinks_and_pair()

    empty = algebra_from_graph(QQ, AssociatedGraph.from_edges(2, []))
    assert empty.structure.entries == ((QQ.zero,) * 2,) * 2

    loop = algebra_from_graph(QQ, AssociatedGraph.from_edges(1, [(1, 1)]))
    assert loop.square_of_basis(1) == loop.element((1,))


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_graph_round_trip(field):
    rng = make_rng(31337)
    for _ in range(50):
        n = rng.randrange(1, 6)
        adjacency = [[rng.random() < 0.4 for _ in range(n)] for _ in range(n)]
        graph = AssociatedGraph.from_edges(
            n, [(i + 1, j + 1) for i in range(n) for j in range(n) if adjacency[i][j]])
        a = algebra_from_graph(field, graph)
        assert associated_graph(a) == graph
        # e_i^2 is the sum of the e_j over the edges i -> j
        for i in range(1, n + 1):
            assert a.square_of_basis(i) == tuple(field.one if x else field.zero
                                                 for x in adjacency[i - 1])
