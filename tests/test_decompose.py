import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evolalg import (GF, QQ, AssociatedGraph, EvolutionAlgebra,
                     algebra_from_graph, annihilator, associated_graph,
                     canonical_decomposition, ideal_generated_by, is_fragmentable,
                     is_ideal, is_irreducible, is_nondegenerate, is_simple,
                     optimal_decomposition, optimal_fragmentation, quotient, radical,
                     subspace_equal, subspace_from_vectors)
from evolalg.decompose import (CHAIN_START, PRINCIPAL_CYCLE, CanonicalPart,
                               _restricted_structure)
from evolalg.linalg import Matrix, coordinate_subspace, det
from planted import planted
from support import (FIXED, algebras, digraphs, double_loop,
                     entangled_squares, from_squares, graph_core_with_side_loop,
                     inverse_permutation, loop_with_tail, make_rng, nonzero_scalars,
                     pair_cycle_mixing, random_algebra, random_permutation, relabel,
                     scalars, shared_loop_target, simplicity_checked,
                     squares_span_deficient, strong_components,
                     swap_pair_plus_loop, two_loops_two_sinks,
                     weighted_digraph_algebras)


def test_derived_index_set_golden():
    g = associated_graph(two_loops_two_sinks())
    assert g.forward_closure({4}) == {4}  # a sink derives only itself
    assert g.forward_closure({3}) == {3, 5}
    assert g.forward_closure({2}) == {1, 2}
    # for a principal cycle C the derived set is D(i) for any i in C
    for cycle in g.principal_cycles():
        derived = g.forward_closure(cycle)
        for i in cycle:
            assert derived == g.descendents(i)
    with pytest.raises(IndexError):
        g.forward_closure({9})


def test_canonical_decomposition_golden():
    canon = canonical_decomposition(two_loops_two_sinks())
    described = [(p.kind, set(p.seed), set(p.derived)) for p in canon]
    assert described == [
        ("chain_start", {2}, {1, 2}),
        ("principal_cycle", {3}, {3, 5}),
        ("chain_start", {4}, {4}),
    ]

    # one strongly connected core covering everything: a single part
    ring = EvolutionAlgebra.from_squares(QQ, [(0, 1, 0), (0, 0, 1), (1, 0, 0)])
    canon = canonical_decomposition(ring)
    assert len(canon) == 1
    assert canon[0].derived == {1, 2, 3}

    # an entry vertex and a side loop produce two overlapping parts
    side = algebra_from_graph(QQ, graph_core_with_side_loop())
    canon = canonical_decomposition(side)
    described = {(p.kind, frozenset(p.seed), frozenset(p.derived)) for p in canon}
    assert described == {
        ("chain_start", frozenset({1}), frozenset({1, 2, 3, 5})),
        ("principal_cycle", frozenset({4}), frozenset({2, 3, 4, 5})),
    }


def test_canonical_parts_are_forward_closed_and_cover():
    rng = make_rng(8888)
    for _ in range(60):
        a = random_algebra(rng, QQ, rng.randrange(1, 8))
        g = associated_graph(a)
        canon = canonical_decomposition(a)
        covered = set()
        for part in canon:
            covered |= part.derived
            for i in part.derived:
                assert g.descendents(i) <= part.derived
        assert covered == set(range(1, a.dim + 1))


@FIXED
@given(st.one_of(
    st.sampled_from([QQ, GF(2)]).flatmap(
        lambda f: digraphs().map(lambda g: algebra_from_graph(f, g))),
    st.sampled_from([QQ, GF(2), GF(7)]).flatmap(weighted_digraph_algebras),
    digraphs(max_n=40).map(lambda g: algebra_from_graph(GF(2), g))))
def test_canonical_parts_are_the_principal_cycles_and_the_chain_starts(a):
    # the parts come from the source components of the condensation and
    # their derived sets from its exit sets; build them from
    # principal_cycles(), chain_start_indices() and a search over the
    # edges instead.  Graphs of up to 40 vertices give deep searches with
    # many tree edges into components completed as the search returns
    g = associated_graph(a)
    parts = [CanonicalPart(PRINCIPAL_CYCLE, cycle, g.forward_closure(cycle))
             for cycle in g.principal_cycles()]
    parts += [CanonicalPart(CHAIN_START, frozenset({i}), g.forward_closure({i}))
              for i in sorted(g.chain_start_indices())]
    parts.sort(key=lambda part: min(part.seed))
    assert canonical_decomposition(a) == tuple(parts)


def test_is_fragmentable_golden():
    assert is_fragmentable([{1, 2}, {3}])
    assert not is_fragmentable([{1, 2}, {2, 3}])
    assert not is_fragmentable([{1, 2, 3, 5}, {2, 3, 4, 5}])
    assert not is_fragmentable([{1}])
    with pytest.raises(ValueError):
        is_fragmentable([])
    with pytest.raises(ValueError):
        is_fragmentable([{1}, set()])


def test_optimal_fragmentation_golden():
    assert optimal_fragmentation([{1, 2}, {3, 5}, {4}]) == ({1, 2}, {3, 5}, {4})
    assert optimal_fragmentation([{1, 2}, {2, 3}, {4}]) == ({1, 2, 3}, {4})
    # a chain of overlaps merges everything
    assert optimal_fragmentation([{1, 2}, {2, 3}, {3, 4}]) == ({1, 2, 3, 4},)
    assert optimal_fragmentation([{1, 2, 3, 5}, {2, 3, 4, 5}]) == ({1, 2, 3, 4, 5},)
    # blocks are sorted by least element, not by the first set they absorb
    assert optimal_fragmentation([{4, 5}, {9}, {1, 8}, {5, 2}]) == ({1, 8}, {2, 4, 5}, {9})
    with pytest.raises(ValueError):
        optimal_fragmentation([])
    with pytest.raises(ValueError):
        optimal_fragmentation([{1}, set()])


def merged_until_disjoint(parts):
    """The reference fragmentation: each set in turn absorbs every block
    it meets, so the blocks stay pairwise disjoint, sorted at the end."""
    blocks = []
    for part in map(frozenset, parts):
        blocks = ([b for b in blocks if b.isdisjoint(part)]
                  + [part.union(*(b for b in blocks if not b.isdisjoint(part)))])
    return tuple(sorted(blocks, key=min))


@st.composite
def covers(draw):
    """A list of non-empty sets over 1..u, shuffled: random sets, chains
    whose consecutive sets share an element, repeats of earlier sets and
    singletons."""
    element = st.integers(min_value=1, max_value=draw(st.integers(min_value=1, max_value=30)))
    parts = []
    for kind in draw(st.lists(st.sampled_from(("set", "chain", "repeat", "singleton")),
                              min_size=1, max_size=8)):
        if kind == "set":
            parts.append(draw(st.frozensets(element, min_size=1, max_size=5)))
        elif kind == "chain":
            links = draw(st.lists(element, min_size=2, max_size=6))
            parts += [frozenset(pair) for pair in zip(links, links[1:])]
        elif kind == "repeat" and parts:
            parts.append(draw(st.sampled_from(parts)))
        else:
            parts.append(frozenset({draw(element)}))
    return draw(st.permutations(parts))


@FIXED
@given(covers())
def test_fragmentation_merges_overlapping_sets_until_disjoint(parts):
    blocks = optimal_fragmentation(parts)
    assert blocks == merged_until_disjoint(parts)
    assert is_fragmentable(parts) == (len(blocks) > 1)


def test_fragmentation_of_a_long_chain_and_of_many_singletons():
    # each pair of the chain joins the group of all the pairs before it;
    # the smaller group is relabelled into the larger, so this stays
    # near-linear in the number of sets
    n = 50000
    assert optimal_fragmentation([(i, i + 1) for i in range(1, n + 1)]) == (
        frozenset(range(1, n + 2)),)
    assert optimal_fragmentation([(i,) for i in range(n, 0, -1)]) == tuple(
        frozenset({i}) for i in range(1, n + 1))


def test_fragmentation_of_a_chain_takes_near_linear_time():
    # ten times the pairs take about 10 to 13 times as long when the
    # smaller group is relabelled into the larger, and about 100 times
    # when the larger is relabelled into the smaller
    def best_of_3(n):
        chain = [(i, i + 1) for i in range(1, n + 1)]
        times = []
        for _ in range(3):
            start = time.perf_counter()
            optimal_fragmentation(chain)
            times.append(time.perf_counter() - start)
        return min(times)

    small, large = best_of_3(2000), best_of_3(20000)
    assert large / small < 30


def test_optimal_decomposition_golden():
    a = swap_pair_plus_loop()
    report = optimal_decomposition(a)
    assert [set(b.indices) for b in report.blocks] == [{1, 2}, {3}]
    assert report.optimal_certified and is_nondegenerate(a)
    assert all(b.simple for b in report.blocks)

    b = two_loops_two_sinks()
    report = optimal_decomposition(b)
    assert [set(blk.indices) for blk in report.blocks] == [{1, 2}, {3, 5}, {4}]
    assert not report.optimal_certified
    # the two hand refinements both consist of genuine ideals
    assert is_ideal(b, subspace_from_vectors(QQ, 5, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]))
    assert is_ideal(b, subspace_from_vectors(QQ, 5, [(0, 0, 1, 0, 1)]))

    c = pair_cycle_mixing()
    report = optimal_decomposition(c)
    assert len(report.blocks) == 1 and report.blocks[0].indices == {1, 2}
    assert report.optimal_certified


# dim 6: e1^2 = 2e3, e3^2 = e1 - e5, e5^2 = 3e1 + 4e3 (a block on the
# interleaved indices 1, 3, 5), e2^2 = e4, e4^2 = 5e2 + e4, e6^2 = -4e6
# (a singleton block)
def interleaved_and_singleton_blocks(field):
    return EvolutionAlgebra.from_squares(field, [
        (0, 0, 2, 0, 0, 0), (0, 0, 0, 1, 0, 0), (1, 0, 0, 0, -1, 0),
        (0, 5, 0, 1, 0, 0), (3, 0, 4, 0, 0, 0), (0, 0, 0, 0, 0, -4)])


# dim 4: a 4-cycle 1 -> 2 -> 3 -> 4 -> 1 plus chords; one block of every index
def one_block_of_every_index(field):
    return EvolutionAlgebra.from_squares(field, [
        (0, 1, 0, 7), (2, 0, 1, 0), (0, 0, 3, 1), (1, -1, 0, 0)])


@pytest.mark.parametrize("field", [QQ, GF(7), GF(10007)])
def test_block_slices_and_ideals_golden(field):
    a = interleaved_and_singleton_blocks(field)
    report = optimal_decomposition(a)
    assert [sorted(b.indices) for b in report.blocks] == [[1, 3, 5], [2, 4], [6]]
    b = one_block_of_every_index(field)
    assert [sorted(blk.indices) for blk in optimal_decomposition(b).blocks] == [[1, 2, 3, 4]]
    for algebra in (a, b):
        n = algebra.dim
        entries = algebra.structure.entries
        for block in optimal_decomposition(algebra).blocks:
            idx = sorted(block.indices)
            m = len(idx)
            # the slice of the block's squares is the transpose of its row
            # slice, so it has the same det
            squares = tuple(tuple(algebra.square_of_basis(c)[r - 1] for r in idx) for c in idx)
            assert _restricted_structure(algebra, block.indices) == Matrix(m, m, squares)
            rows = tuple(tuple(entries[r - 1][c - 1] for c in idx) for r in idx)
            assert block.det == det(field, Matrix(m, m, rows))
            units = [[1 if k == i else 0 for k in range(1, n + 1)] for i in idx]
            assert coordinate_subspace(field, n, idx) == subspace_from_vectors(field, n, units)
    assert [blk.det for blk in report.blocks] == [field.coerce(x) for x in (-6, -5, -4)]
    assert optimal_decomposition(b).blocks[0].det == det(field, b.structure)


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_decomposition_validity_random(field):
    rng = make_rng(24680)
    for _ in range(60):
        a = random_algebra(rng, field, rng.randrange(2, 8))
        g = associated_graph(a)
        report = optimal_decomposition(a)
        seen = set()
        for block in report.blocks:
            assert not (block.indices & seen)
            seen |= block.indices
            ideal = coordinate_subspace(field, a.dim, block.indices)
            assert is_ideal(a, ideal)
            # block ideals are spanned by standard basis vectors
            assert ideal.dim == len(block.indices)
            for row in ideal.vectors():
                assert sum(1 for x in row if x) == 1
            assert block.nondegenerate == all(
                any(a.square_of_basis(i)) for i in block.indices)
        assert seen == set(range(1, a.dim + 1))
        assert tuple(block.indices for block in report.blocks) == g.weak_components()
        assert report.optimal_certified == is_nondegenerate(a)
        # det(M_B) is the product of the block dets, which is_simple relies on
        product = field.one
        for block in report.blocks:
            product *= block.det
        assert det(field, a.structure) == field.coerce(product)
        assert simplicity_checked(a).simple == (
            len(report.blocks) == 1 and report.blocks[0].simple)


# dim 4: e1^2 = 2 e2, e2^2 = 3 e1 + e3, e3^2 = 5 e4, e4^2 = e3: the 2-cycles
# {1, 2} and {3, 4} joined by the edge 2 -> 3, one weak block of two
# strongly connected components
def two_cycles_joined_by_an_edge(field):
    return EvolutionAlgebra.from_squares(field, [
        (0, 2, 0, 0), (3, 0, 1, 0), (0, 0, 0, 5), (0, 0, 1, 0)])


@pytest.mark.parametrize("field", [QQ, GF(7), GF(10007)])
def test_block_det_is_the_product_of_its_component_dets_golden(field):
    a = two_cycles_joined_by_an_edge(field)
    assert strong_components(associated_graph(a)) == (
        frozenset({1, 2}), frozenset({3, 4}))
    (block,) = optimal_decomposition(a).blocks
    assert block.indices == {1, 2, 3, 4}
    # det [[0, 3], [2, 0]] = -6 and det [[0, 1], [5, 0]] = -5
    assert block.det == field.coerce(30) == det(field, a.structure)
    assert not block.simple
    # 1 and 2 reach everything, 3 and 4 only their own cycle
    assert simplicity_checked(a).reasons == ("D(3) != Lambda",)


@FIXED
@given(st.sampled_from([QQ, GF(2), GF(7)]).flatmap(weighted_digraph_algebras))
def test_block_dets_are_the_products_of_their_component_dets(a):
    # listed in a topological order of the condensation, a block's
    # restricted matrix is block triangular with one diagonal block per
    # strongly connected component; a one-vertex component gives its loop
    # coefficient, and a larger one has no zero row or column, so its det
    # is an elimination.  Blocks with a sink or an index no square involves
    # get their 0 from det's zero-line test.
    f = a.field
    components = strong_components(associated_graph(a))
    for block in optimal_decomposition(a).blocks:
        product = f.one
        for c in components:
            if c <= block.indices:
                product *= det(f, _restricted_structure(a, c))
        assert block.det == f.coerce(product)


@FIXED
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       n=st.integers(min_value=3, max_value=200),
       field=st.sampled_from([QQ, GF(7), GF(10007)]))
def test_block_dets_are_the_planted_dets(seed, n, field):
    # each cyclic component is P_s U with a known det, and a block's det is
    # the product of its components' dets (tests/planted.py); no det here
    # comes from evolalg
    plan = planted(make_rng(seed), n)
    squares = [[0] * n for _ in range(n)]
    for (i, j), weight in plan.edges.items():
        squares[i - 1][j - 1] = weight
    blocks = optimal_decomposition(from_squares(field, squares)).blocks
    assert tuple(block.indices for block in blocks) == plan.weak_components
    assert [block.det for block in blocks] == [field.coerce(d) for d in plan.dets]
    assert any(plan.dets)  # forced on every draw, so a nonzero det is checked


def test_graph_and_decomposition_are_computed_once_per_algebra():
    a = two_loops_two_sinks()
    assert associated_graph(a) is associated_graph(a)
    assert canonical_decomposition(a) is canonical_decomposition(a)
    assert optimal_decomposition(a) is optimal_decomposition(a)
    # equal algebras still get their own analysis
    assert optimal_decomposition(two_loops_two_sinks()) == optimal_decomposition(a)


def test_report_does_only_block_dets(monkeypatch):
    import sys

    import evolalg.decompose
    import evolalg.ideals
    import evolalg.linalg
    from evolalg.report import build_report

    calls = {"det": 0, "_echelon": 0, "is_ideal": 0, "multiply": 0, "descendents": 0,
             "ascendents": 0, "_rref_rows": 0, "optimal_fragmentation": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # rebind every name the package holds for the function, not just one;
    # the annihilator, radical and blocks are spanned by basis vectors, so
    # their echelon bases need no elimination
    for name, fn in (("det", evolalg.linalg.det), ("is_ideal", evolalg.ideals.is_ideal),
                     ("_rref_rows", evolalg.linalg._rref_rows)):
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("evolalg") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    monkeypatch.setattr(EvolutionAlgebra, "multiply",
                        counted("multiply", EvolutionAlgebra.multiply))
    # the per-vertex closures answer queries; the analysis reads the
    # strongly connected components instead
    for name in ("descendents", "ascendents"):
        monkeypatch.setattr(AssociatedGraph, name,
                            counted(name, getattr(AssociatedGraph, name)))
    # the blocks are the weak components, read off the same pass; the
    # canonical parts are not fragmented
    monkeypatch.setattr(evolalg.decompose, "optimal_fragmentation",
                        counted("optimal_fragmentation", evolalg.decompose.optimal_fragmentation))

    # the elimination det runs when its matrix has no zero row or column
    monkeypatch.setattr(evolalg.linalg, "_echelon",
                        counted("_echelon", evolalg.linalg._echelon))

    rng = make_rng(4321)
    skipped = eliminated = 0
    for k in range(40):
        # every other algebra has no zero square, so that blocks with no
        # sink and no index outside every square, which need an
        # elimination, occur as well
        a = random_algebra(rng, GF(7), rng.randrange(2, 9), zero_col_prob=0.25 * (k % 2))
        for name in calls:
            calls[name] = 0
        blocks = build_report(a)["blocks"]
        # one det per block; it eliminates only when the block holds no
        # sink (a zero column) and every index of the block is in the
        # square of one (else a zero row)
        g = associated_graph(a)
        expected = 0
        for block in blocks:
            entered = frozenset().union(*(g.out_edges(i) for i in block["indices"]))
            if g.sinks().isdisjoint(block["indices"]) and entered >= set(block["indices"]):
                expected += 1
            else:
                skipped += 1
        eliminated += expected
        assert calls == {"det": len(blocks), "_echelon": expected, "is_ideal": 0,
                         "multiply": 0, "descendents": 0, "ascendents": 0,
                         "_rref_rows": 0, "optimal_fragmentation": 0}
    # the corpus holds both kinds of block
    assert skipped and eliminated


SMALL_FIELDS = st.sampled_from([GF(2), GF(3), QQ])


@FIXED
@given(SMALL_FIELDS.flatmap(algebras))
def test_reach_reason_names_the_first_index_that_misses_an_index(a):
    g = associated_graph(a)
    everything = frozenset(range(1, a.dim + 1))
    short = [k for k in range(1, a.dim + 1) if g.descendents(k) != everything]
    expected = ["D(%d) != Lambda" % short[0]] if short else []
    reasons = simplicity_checked(a).reasons
    assert [r for r in reasons if r.startswith("D(")] == expected


@FIXED
@given(SMALL_FIELDS.flatmap(algebras))
def test_block_is_simple_when_nonsingular_and_each_index_reaches_the_block(a):
    g = associated_graph(a)
    for block in optimal_decomposition(a).blocks:
        assert block.simple == (block.det != a.field.zero
                                and all(g.descendents(i) == block.indices
                                        for i in block.indices))


def test_partition_is_permutation_equivariant_when_nondegenerate():
    rng = make_rng(13579)
    found = 0
    while found < 25:
        a = random_algebra(rng, QQ, rng.randrange(2, 7), zero_col_prob=0.0)
        if not is_nondegenerate(a):
            continue
        found += 1
        base = {frozenset(b.indices) for b in optimal_decomposition(a).blocks}
        for _ in range(5):
            perm = random_permutation(rng, a.dim)
            inv = inverse_permutation(perm)
            shuffled = relabel(a, perm)
            expected = {frozenset(inv[k - 1] for k in block) for block in base}
            got = {frozenset(b.indices) for b in optimal_decomposition(shuffled).blocks}
            assert got == expected


def natural_basis_change(algebra, sigma, c):
    """The algebra in the natural basis f_i = c_i e_sigma(i), for a
    permutation sigma of 1..n and nonzero c_i: f_i^2 = c_i^2 e_sigma(i)^2
    and e_sigma(j) = f_j / c_j, so w'_ji = c_i^2 w_sigma(j)sigma(i) / c_j."""
    f, n = algebra.field, algebra.dim
    return EvolutionAlgebra.from_squares(f, [
        [f.coerce(Fraction(c[i] ** 2 * algebra.square_of_basis(sigma[i])[sigma[j] - 1], c[j]))
         for j in range(n)] for i in range(n)])


def unit_indices(subspace):
    """The indices i of the e_i that span a subspace spanned by unit vectors."""
    return frozenset(row.index(subspace.field.one) + 1 for row in subspace.vectors())


@pytest.mark.parametrize("field", [QQ, GF(2), GF(10007)], ids=["QQ", "GF2", "GF10007"])
@settings(FIXED, max_examples=40)  # about 0.2 s per field
@given(data=st.data())
def test_natural_basis_changes_move_the_invariants_with_the_basis(field, data):
    # a natural basis is unique up to the order and the scale of its
    # vectors (c_i = 1 over GF(2)): simplicity, non-degeneracy and the dims
    # of the annihilator and the radical stay; the radical's indices and
    # the blocks move by sigma, and the restricted structure matrix of a
    # block B is conjugated by a permutation and scaled to c_i^2 / c_j in
    # entry (j, i), so its det is multiplied by the product of c_i over B.
    # x = sum x_k e_k has the coordinates y_j = x_sigma(j) / c_j in the f_j,
    # so <y> in b is <x> in a written in the f_j, and so are the quotients
    a = data.draw(st.one_of(weighted_digraph_algebras(field).filter(lambda a: a.dim <= 12),
                            algebras(field)))
    n = a.dim
    sigma = data.draw(st.permutations(range(1, n + 1)))
    c = data.draw(st.lists(nonzero_scalars(field), min_size=n, max_size=n))
    b = natural_basis_change(a, sigma, c)
    assert bool(is_simple(b)) == bool(is_simple(a))
    assert is_nondegenerate(b) == is_nondegenerate(a)
    assert annihilator(b).dim == annihilator(a).dim
    assert radical(b).dim == radical(a).dim
    inverse = inverse_permutation(sigma)

    def moved(indices):
        return frozenset(inverse[k - 1] for k in indices)

    assert unit_indices(radical(b)) == moved(unit_indices(radical(a)))
    expected = {moved(block.indices): (block.nondegenerate, block.simple, field.coerce(
        block.det * prod(c[i - 1] for i in moved(block.indices))))
        for block in optimal_decomposition(a).blocks}
    assert {block.indices: (block.nondegenerate, block.simple, block.det)
            for block in optimal_decomposition(b).blocks} == expected

    def written_in_f(v):
        return [field.coerce(Fraction(v[sigma[j] - 1], c[j])) for j in range(n)]

    x = data.draw(st.lists(scalars(field), min_size=n, max_size=n))
    generated = ideal_generated_by(a, x)
    moved_ideal = ideal_generated_by(b, written_in_f(x))
    assert subspace_equal(moved_ideal, subspace_from_vectors(
        field, n, [written_in_f(v) for v in generated.vectors()]))
    assert quotient(b, moved_ideal).quotient.dim == quotient(a, generated).quotient.dim


def test_is_simple_golden():
    verdict = is_simple(double_loop())
    assert not verdict
    assert verdict.reasons == ("D(1) != Lambda",)

    assert simplicity_checked(pair_cycle_mixing())

    # a sink forces non-simplicity
    sunk = EvolutionAlgebra.from_squares(QQ, [(0, 1), (0, 0)])
    assert not is_simple(sunk)

    # everything reaches everything, but the squares span only a plane
    deficient = squares_span_deficient()
    verdict = simplicity_checked(deficient)
    assert not verdict
    assert verdict.reasons == ("det(M_B) == 0",)

    # one-dimensional: a nonzero loop weight is enough
    assert is_simple(EvolutionAlgebra.from_squares(QQ, [(2,)]))
    assert not is_simple(EvolutionAlgebra.from_squares(QQ, [(0,)]))

    # the zero algebra is not simple, and decomposes into no blocks
    zero = EvolutionAlgebra.from_squares(QQ, [])
    assert is_simple(zero) == (False, ("zero algebra",))
    assert optimal_decomposition(zero) == ((), True)


def test_is_irreducible_golden():
    verdict = is_irreducible(shared_loop_target())
    assert verdict.connected and verdict.conclusive and bool(verdict)
    # irreducible yet not simple
    assert not is_simple(shared_loop_target())

    verdict = is_irreducible(swap_pair_plus_loop())
    assert not verdict.connected and verdict.conclusive and not bool(verdict)

    # degenerate: connectivity is reported but flagged inconclusive
    verdict = is_irreducible(loop_with_tail())
    assert verdict.connected and not verdict.conclusive


def test_simplicity_implies_nondegenerate_and_full_rank():
    rng = make_rng(11223)
    for _ in range(60):
        a = random_algebra(rng, QQ, rng.randrange(1, 6), zero_col_prob=0.15)
        if simplicity_checked(a):
            assert is_nondegenerate(a)
            from evolalg import rref
            rank, _ = rref(QQ, a.structure)
            assert rank == a.dim


def test_entangled_example_is_connected_single_block():
    report = optimal_decomposition(entangled_squares())
    assert len(report.blocks) == 1
    assert report.blocks[0].indices == {1, 2, 3}
    assert report.optimal_certified


def test_simple_algebras_generate_everything_from_any_square():
    from evolalg import ideal_generated_by, ideal_generated_by_square
    rng = make_rng(7654)
    simple_seen = 0
    for _ in range(200):
        a = random_algebra(rng, GF(5), rng.randrange(1, 5), zero_col_prob=0.0)
        if not is_simple(a):
            continue
        simple_seen += 1
        for i in range(1, a.dim + 1):
            assert ideal_generated_by_square(a, i).dim == a.dim
            assert ideal_generated_by(a, a.basis_element(i)).dim == a.dim
    assert simple_seen >= 10


def test_pipeline_smoke_at_medium_dimension():
    # the library is meant for dimensions in the hundreds; make sure the
    # whole pipeline stays polynomial in practice
    from evolalg.report import build_report
    rng = make_rng(99)
    a = random_algebra(rng, QQ, 60, zero_col_prob=0.2, density=0.05)
    report = build_report(a)
    assert report["dim"] == 60
    blocks = [set(b["indices"]) for b in report["blocks"]]
    assert sorted(i for b in blocks for i in b) == list(range(1, 61))
