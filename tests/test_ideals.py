from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evolalg import (GF, QQ, DimensionError, EvolutionAlgebra,
                     FieldError, PreconditionError, absorption_preimage, annihilator,
                     associated_graph, has_absorption_property, ideal_closure,
                     ideal_generated_by, ideal_generated_by_square, is_ideal,
                     is_nondegenerate, lambda_x, mu_n, quotient, radical,
                     subspace_equal, subspace_from_vectors, subspace_sum,
                     zero_subspace)
from evolalg import linalg
from evolalg.linalg import coordinate_subspace
from support import (FIXED, algebras, all_chains_die, entangled_squares,
                     double_loop, fixpoint_reaches_no_cycle, loop_feeder,
                     make_rng, pair_cycle_mixing,
                     random_algebra, random_element, scalars,
                     swap_pair_plus_loop, two_loops_two_sinks,
                     two_sinks_and_pair)


def spans_subset(smaller, bigger):
    return all(bigger.contains(v) for v in smaller.vectors())


def test_annihilator_golden():
    a = two_sinks_and_pair()
    ann = annihilator(a)
    assert subspace_equal(ann, subspace_from_vectors(
        QQ, 6, [a.basis_element(1), a.basis_element(3)]))
    assert is_ideal(a, ann)

    b = entangled_squares()
    assert annihilator(b).dim == 0

    c = two_loops_two_sinks()
    assert subspace_equal(annihilator(c), subspace_from_vectors(
        QQ, 5, [c.basis_element(4), c.basis_element(5)]))


def test_nondegeneracy_golden():
    assert is_nondegenerate(entangled_squares())
    assert not is_nondegenerate(two_sinks_and_pair())
    assert not is_nondegenerate(EvolutionAlgebra.from_squares(QQ, [(0,)]))


def test_is_ideal_golden():
    a = entangled_squares()
    # the span of e1^2 and e2^2: all (alpha, alpha+beta, beta)
    ideal = subspace_from_vectors(QQ, 3, [(1, 1, 0), (0, 1, 1)])
    assert is_ideal(a, ideal)

    b = swap_pair_plus_loop()
    # a subalgebra that is not an ideal: e1 * (e1+e2) = e2 escapes
    sub = subspace_from_vectors(QQ, 3, [(1, 1, 0), (0, 0, 1)])
    assert not is_ideal(b, sub)

    assert is_ideal(b, zero_subspace(QQ, 3))
    with pytest.raises(DimensionError):
        is_ideal(b, zero_subspace(QQ, 2))


def test_absorption_preimage_golden():
    # preimage of the zero ideal is the annihilator
    a = two_sinks_and_pair()
    assert subspace_equal(absorption_preimage(a, zero_subspace(QQ, 6)),
                          annihilator(a))

    # e1^2 = e1, e2^2 = e1: e2 multiplies into K e1 without belonging to it
    b = loop_feeder()
    line = subspace_from_vectors(QQ, 2, [(1, 0)])
    pre = absorption_preimage(b, line)
    assert subspace_equal(pre, subspace_from_vectors(QQ, 2, [(1, 0), (0, 1)]))
    assert not has_absorption_property(b, line)

    # pair cycle plus a separate loop: the pair plane absorbs
    c = swap_pair_plus_loop()
    plane = subspace_from_vectors(QQ, 3, [(1, 0, 0), (0, 1, 0)])
    assert subspace_equal(absorption_preimage(c, plane), plane)
    assert has_absorption_property(c, plane)

    # zero ideal of a non-degenerate algebra absorbs
    d = entangled_squares()
    assert has_absorption_property(d, zero_subspace(QQ, 3))

    with pytest.raises(PreconditionError):
        absorption_preimage(c, subspace_from_vectors(QQ, 3, [(1, 1, 0), (0, 0, 1)]))


def test_radical_golden():
    assert radical(entangled_squares()).dim == 0

    full = radical(all_chains_die())
    assert full.dim == 6  # no path reaches a cycle anywhere

    c = two_loops_two_sinks()
    assert subspace_equal(radical(c), subspace_from_vectors(
        QQ, 5, [c.basis_element(4), c.basis_element(5)]))

    # a sink next to a loop: only the sink dies
    d = EvolutionAlgebra.from_squares(QQ, [(0, 0), (0, 1)])
    assert subspace_equal(radical(d), subspace_from_vectors(QQ, 2, [(1, 0)]))


@FIXED
@given(st.sampled_from([GF(2), GF(3), QQ]).flatmap(algebras))
def test_radical_is_the_span_of_the_fixpoint(a):
    expected = fixpoint_reaches_no_cycle(associated_graph(a))
    assert radical(a) == linalg.coordinate_subspace(a.field, a.dim, expected)


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_radical_tower_properties(field):
    rng = make_rng(2718)
    for _ in range(60):
        a = random_algebra(rng, field, rng.randrange(1, 6))
        ann = annihilator(a)
        rad = radical(a)
        assert is_ideal(a, rad)
        assert has_absorption_property(a, rad)
        assert spans_subset(ann, rad)
        assert (rad.dim == 0) == (ann.dim == 0)
        # absorption ideals are spanned by standard basis vectors
        for row in rad.vectors():
            assert sum(1 for x in row if x) == 1
        q = quotient(a, rad)
        assert annihilator(q.quotient).dim == 0
        assert radical(q.quotient).dim == 0


def test_ideal_generated_by_square_golden():
    a = entangled_squares()
    span = ideal_generated_by_square(a, 1)
    assert span.dim == 2
    assert subspace_equal(span, subspace_from_vectors(QQ, 3, [(1, 1, 0), (0, 1, 1)]))
    assert is_ideal(a, span)

    b = two_sinks_and_pair()
    assert ideal_generated_by_square(b, 1).dim == 0  # e1^2 = 0

    simple = pair_cycle_mixing()
    for i in (1, 2):
        assert ideal_generated_by_square(simple, i).dim == 2


def test_generated_square_ideals_nest_along_descent():
    rng = make_rng(1111)
    for _ in range(40):
        a = random_algebra(rng, QQ, rng.randrange(1, 6))
        g = associated_graph(a)
        for i in range(1, a.dim + 1):
            big = ideal_generated_by_square(a, i)
            for j in g.descendents(i):
                assert spans_subset(ideal_generated_by_square(a, j), big)


def test_lambda_x_golden():
    a = two_sinks_and_pair()
    assert lambda_x(a, a.basis_element(2)) == {2}
    assert lambda_x(a, a.basis_element(1)) == frozenset()  # e1^2 = 0
    assert lambda_x(a, a.element((1, 1, 0, 0, 0, 0))) == {2}
    with pytest.raises(DimensionError):
        lambda_x(a, (1, 0))


def test_mu_n_golden_and_identities():
    a = entangled_squares()
    x = a.element((1, 0, 2))
    zero_power = mu_n(a, x, 0)
    assert zero_power.dim == 1 and zero_power.contains(x)

    sinks_only = two_sinks_and_pair()
    dead = sinks_only.basis_element(1)  # e1^2 = 0, so no multiplications survive
    for n in range(1, 4):
        assert mu_n(sinks_only, dead, n).dim == 0

    rng = make_rng(3333)
    for _ in range(30):
        b = random_algebra(rng, QQ, rng.randrange(1, 6))
        g = associated_graph(b)
        for k in range(1, b.dim + 1):
            for n in range(1, b.dim + 1):
                expected = subspace_from_vectors(
                    QQ, b.dim,
                    [b.square_of_basis(j) for j in sorted(g.descendents_m(k, n))])
                assert subspace_equal(mu_n(b, b.square_of_basis(k), n), expected)


def test_ideal_generated_by_golden():
    a = double_loop()
    line = ideal_generated_by(a, a.basis_element(1))
    assert line.dim == 1 and line.contains(a.basis_element(1))
    assert is_ideal(a, line)  # a proper nonzero ideal

    b = entangled_squares()
    assert ideal_generated_by(b, b.zero_element()).dim == 0
    # K e_k + <e_k^2> for every k
    for k in range(1, 4):
        direct = ideal_generated_by(b, b.basis_element(k))
        pieces = subspace_sum(
            subspace_from_vectors(QQ, 3, [b.basis_element(k)]),
            ideal_generated_by_square(b, k))
        assert subspace_equal(direct, pieces)
    assert ideal_generated_by(b, b.basis_element(1)).dim == 3


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_closed_form_ideal_matches_iterative_closure(field):
    rng = make_rng(909090)
    for _ in range(60):
        a = random_algebra(rng, field, rng.randrange(1, 7))
        x = random_element(rng, field, a.dim)
        closed = ideal_generated_by(a, x)
        iterated = ideal_closure(a, x)
        assert subspace_equal(closed, iterated)
        assert is_ideal(a, closed)
        # <e_k> = <e_k^2> exactly when e_k lies in <e_k^2>
        for k in range(1, a.dim + 1):
            sq_ideal = ideal_generated_by_square(a, k)
            full_ideal = ideal_generated_by(a, a.basis_element(k))
            assert spans_subset(sq_ideal, full_ideal)
            same = subspace_equal(sq_ideal, full_ideal)
            assert same == sq_ideal.contains(a.basis_element(k))


def test_quotient_golden():
    a = entangled_squares()
    ideal = subspace_from_vectors(QQ, 3, [(1, 1, 0), (0, 1, 1)])
    pres = quotient(a, ideal)
    assert pres.quotient.dim == 1
    assert pres.chosen == (1,)
    # e1^2 = e2+e3 lies in the ideal, so the image squares to zero
    assert pres.quotient.square_of_basis(1) == pres.quotient.zero_element()

    # quotient by zero is the algebra itself with the identity projection
    b = swap_pair_plus_loop()
    pres0 = quotient(b, zero_subspace(QQ, 3))
    assert pres0.quotient == b
    assert pres0.chosen == (1, 2, 3)
    assert pres0.project((1, 2, 3)) == b.element((1, 2, 3))

    with pytest.raises(PreconditionError):
        quotient(b, subspace_from_vectors(QQ, 3, [(1, 1, 0), (0, 0, 1)]))


def test_quotient_by_absorption_ideal_is_nondegenerate():
    c = swap_pair_plus_loop()
    plane = subspace_from_vectors(QQ, 3, [(1, 0, 0), (0, 1, 0)])
    pres = quotient(c, plane)
    assert pres.quotient.dim == 1
    assert annihilator(pres.quotient).dim == 0


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_quotient_projection_properties_random(field):
    rng = make_rng(1357)
    for _ in range(40):
        a = random_algebra(rng, field, rng.randrange(1, 6))
        rad = radical(a)
        pres = quotient(a, rad)
        assert pres.quotient.dim == a.dim - rad.dim
        assert len(pres.chosen) == pres.quotient.dim
        # the projection annihilates exactly the ideal: it kills the
        # ideal's basis and has full row rank, so its kernel is no bigger
        for v in rad.vectors():
            assert not any(pres.project(v))
        from evolalg import rref
        rank, _ = rref(field, pres.projection)
        assert rank == pres.quotient.dim
        # and preserves products
        x = random_element(rng, field, a.dim)
        y = random_element(rng, field, a.dim)
        lhs = pres.project(a.multiply(x, y))
        rhs = pres.quotient.multiply(pres.project(x), pres.project(y))
        assert lhs == rhs


def greedy_chosen(algebra, ideal):
    """The surviving indices by their definition: i is kept when e_i is not
    in I + span{e_1..e_(i-1)}."""
    f, n = algebra.field, algebra.dim
    chosen = []
    current = ideal
    for i in range(1, n + 1):
        e = algebra.basis_element(i)
        if not current.contains(e):
            chosen.append(i)
            current = subspace_sum(current, subspace_from_vectors(f, n, [e]))
    return tuple(chosen)


@FIXED
@given(st.sampled_from([QQ, GF(2), GF(3), GF(7)])
       .flatmap(algebras)
       .flatmap(lambda a: st.tuples(
           st.just(a), st.lists(scalars(a.field), min_size=a.dim, max_size=a.dim))))
def test_quotient_keeps_the_greedy_basis_choice(algebra_and_vector):
    # ideals generated by a vector are rarely spanned by basis vectors, so
    # the surviving indices depend on the order of the greedy choice
    a, x = algebra_and_vector
    f = a.field
    ideal = ideal_generated_by(a, x)
    pres = quotient(a, ideal)
    assert pres.chosen == greedy_chosen(a, ideal)
    q = a.dim - ideal.dim
    assert pres.quotient.dim == q
    assert (pres.projection.rows, pres.projection.cols) == (q, a.dim)
    # P kills I and takes each chosen e_c to a unit vector; I and the
    # chosen e_c span A, so this fixes P, and P fixes the quotient's squares
    for v in ideal.vectors():
        assert pres.project(v) == (f.zero,) * q
    for k, c in enumerate(pres.chosen, 1):
        assert pres.project(a.basis_element(c)) == tuple(
            f.one if j == k else f.zero for j in range(1, q + 1))
        assert pres.quotient.square_of_basis(k) == pres.project(a.square_of_basis(c))


def is_ideal_by_products(algebra, subspace):
    """The defining loop: e_i * v lies in the subspace for every basis
    index i and every basis vector v."""
    return all(subspace.contains(algebra.multiply(algebra.basis_element(i), v))
               for v in subspace.vectors() for i in range(1, algebra.dim + 1))


@FIXED
@given(st.sampled_from([QQ, GF(2), GF(3), GF(7)])
       .flatmap(algebras)
       .flatmap(lambda a: st.tuples(
           st.just(a), st.booleans(),
           st.lists(st.lists(scalars(a.field), min_size=a.dim, max_size=a.dim),
                    max_size=a.dim))))
def test_is_ideal_reads_the_squares_on_the_support(case):
    # a random span is mostly not an ideal; a sum of generated ideals is one
    a, generated, vectors = case
    if generated:
        span = zero_subspace(a.field, a.dim)
        for v in vectors:
            span = subspace_sum(span, ideal_generated_by(a, v))
        assert is_ideal(a, span)
    else:
        span = subspace_from_vectors(a.field, a.dim, vectors)
    assert is_ideal(a, span) == is_ideal_by_products(a, span)


def test_membership_and_quotients_do_not_eliminate(monkeypatch):
    # the canonical basis answers membership and quotient coordinates:
    # contains eliminates nothing, quotient reduces I's reversed basis
    # once, and is_ideal multiplies nothing
    a = entangled_squares()
    ideal = subspace_from_vectors(QQ, 3, [(1, 1, 0), (0, 1, 1)])
    b = swap_pair_plus_loop(GF(3))
    sub = subspace_from_vectors(GF(3), 3, [(1, 1, 0), (0, 0, 1)])
    calls = {"_echelon": 0, "multiply": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "_echelon", counted("_echelon", linalg._echelon))
    monkeypatch.setattr(EvolutionAlgebra, "multiply",
                        counted("multiply", EvolutionAlgebra.multiply))
    assert ideal.contains((1, 2, 1)) and not ideal.contains((1, 0, 0))
    assert sub.contains((2, 2, 1)) and not sub.contains((0, 1, 0))
    assert is_ideal(a, ideal) and not is_ideal(b, sub)
    assert calls == {"_echelon": 0, "multiply": 0}
    assert quotient(a, ideal).chosen == (1,)
    assert calls == {"_echelon": 1, "multiply": 0}


def test_is_ideal_refuses_a_subspace_over_another_field():
    # over QQ, e1 * e1 = 2 e2 lies outside span{e1}; over GF(2) it is 0
    a = EvolutionAlgebra.from_squares(QQ, [(0, 2), (0, 0)])
    assert not is_ideal(a, coordinate_subspace(QQ, 2, [1]))
    s = coordinate_subspace(GF(2), 2, [1])
    for refused in (is_ideal, quotient, has_absorption_property, absorption_preimage):
        with pytest.raises(FieldError):
            refused(a, s)


def raw_forms(field, x):
    """Values that field.coerce takes to the canonical scalar x: x itself,
    Fraction(2n, 2d) and, for an integer, the int; over F_p x + p and
    x + 2p; True for one and False for zero."""
    if field.kind == "rational":
        forms = [x, Fraction(2 * x.numerator, 2 * x.denominator)]
        if x.denominator == 1:
            forms.append(x.numerator)
    else:
        forms = [x, x + field.p, x + 2 * field.p]
    if x in (0, 1):
        forms.append(bool(x))
    return st.sampled_from(forms)


@pytest.mark.parametrize("field", [QQ, GF(7)])
@FIXED
@given(data=st.data())
def test_raw_coordinates_act_as_their_canonical_forms(field, data):
    # a library caller may pass 7 or 14 for zero over GF(7), or True for
    # one: every routine that tests or multiplies coordinates coerces first
    a = data.draw(algebras(field))
    x = tuple(data.draw(st.lists(scalars(field), min_size=a.dim, max_size=a.dim)))
    raw = tuple(data.draw(raw_forms(field, c)) for c in x)
    y = tuple(data.draw(st.lists(scalars(field), min_size=a.dim, max_size=a.dim)))
    assert lambda_x(a, raw) == lambda_x(a, x)
    for n in range(3):
        assert mu_n(a, raw, n) == mu_n(a, x, n)
    assert ideal_generated_by(a, raw) == ideal_generated_by(a, x)
    for left, right, product in ((raw, y, a.multiply(x, y)), (y, raw, a.multiply(y, x)),
                                 (raw, raw, a.multiply(x, x))):
        result = a.multiply(left, right)
        assert result == product
        assert {type(c) for c in result} == {type(field.zero)}
