import re
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evolalg import (GF, QQ, AssociatedGraph, EvolutionAlgebra, Matrix,
                     PreconditionError, algebra_from_graph, associated_graph,
                     canonical_decomposition, optimal_fragmentation,
                     witness_path)
from evolalg.decompose import PRINCIPAL_CYCLE
from planted import planted
from support import (FIXED, digraphs, fan_to_swap_pair,
                     fixpoint_reaches_no_cycle, graph_core_loop_tail,
                     graph_core_triple, graph_core_with_side_loop,
                     graph_cycle_with_entry, graph_fan_swap, is_canonical,
                     lone_loop_plus_sink, loop_with_tail, make_rng,
                     out_edge_sets, random_algebra, strong_component,
                     strong_components, swap_pair_plus_loop,
                     two_loops_two_sinks, two_sinks_and_pair,
                     weighted_digraph_algebras)


def bool_matrix_power_support(adj, m):
    """Support of the m-th boolean power of an adjacency matrix; the
    independent oracle for exact-length reachability."""
    n = len(adj)
    current = [row[:] for row in adj]
    for _ in range(m - 1):
        nxt = [[any(current[i][k] and adj[k][j] for k in range(n))
                for j in range(n)] for i in range(n)]
        current = nxt
    return current


def test_associated_graph_adjacency_golden():
    g = associated_graph(fan_to_swap_pair())
    assert out_edge_sets(g) == ({2, 3}, set(), {4}, {3})
    # the graph is basis-relative: e1^2=e1+e2, e2^2=0 has a loop plus an
    # edge, while the same algebra presented as e1^2=e1, e2^2=0 keeps only
    # the loop
    assert out_edge_sets(associated_graph(loop_with_tail())) == ({1, 2}, set())
    assert out_edge_sets(associated_graph(lone_loop_plus_sink())) == ({1}, set())


def test_descendents_exact_length_golden():
    e = graph_fan_swap()
    assert e.descendents_m(3, 1) == {4}
    assert e.descendents_m(3, 2) == {3}
    assert e.descendents_m(3, 3) == {4}
    assert e.descendents(3) == {3, 4}

    f = graph_cycle_with_entry()
    assert f.descendents_m(2, 1) == {3}
    assert f.descendents_m(2, 2) == {4}
    assert f.descendents_m(2, 3) == {2}
    assert f.descendents(2) == {2, 3, 4}

    assert e.descendents_m(2, 1) == frozenset()  # 2 is a sink
    assert e.descendents(2) == frozenset()
    with pytest.raises(ValueError):
        e.descendents_m(1, 0)
    with pytest.raises(IndexError):
        e.descendents(9)


def test_descendents_match_boolean_matrix_power_oracle():
    rng = make_rng(1212)
    for _ in range(40):
        n = rng.randrange(1, 7)
        adj = [[rng.random() < 0.35 for _ in range(n)] for _ in range(n)]
        g = AssociatedGraph.from_edges(
            n, [(i + 1, j + 1) for i in range(n) for j in range(n) if adj[i][j]])
        for m in range(1, n + 2):
            power = bool_matrix_power_support(adj, m)
            for i in range(1, n + 1):
                expected = frozenset(j + 1 for j in range(n) if power[i - 1][j])
                assert g.descendents_m(i, m) == expected


def test_descendent_recurrence_saturation_transitivity():
    rng = make_rng(909)
    for _ in range(30):
        n = rng.randrange(1, 7)
        g = AssociatedGraph.from_edges(
            n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                if rng.random() < 0.3])
        for i in range(1, n + 1):
            for m in range(2, n + 1):
                union = frozenset()
                for k in g.descendents_m(i, m - 1):
                    union |= g.out_edges(k)
                assert g.descendents_m(i, m) == union
            saturated = frozenset()
            for m in range(1, n + 1):
                saturated |= g.descendents_m(i, m)
            assert g.descendents(i) == saturated
        for i in range(1, n + 1):
            for j in g.descendents(i):
                for k in g.descendents(j):
                    assert k in g.descendents(i)


def test_ascendents_duality_and_golden():
    g = associated_graph(two_loops_two_sinks())
    assert g.ascendents(1) == {1, 2}
    for i in range(1, 6):
        for j in range(1, 6):
            assert (j in g.ascendents(i)) == (i in g.descendents(j))
    # a chain-start index has no ascendents
    assert g.ascendents(2) == frozenset()


@pytest.mark.parametrize("build, message", [
    (lambda: AssociatedGraph([{0}, set(), set()]), "edge target 0 outside 1..3"),
    (lambda: AssociatedGraph([set(), {1, 4}, set()]), "edge target 4 outside 1..3"),
    # the lowest target below 1 is named before any target above n
    (lambda: AssociatedGraph([{5}, {-2, 0}, {4}]), "edge target -2 outside 1..3"),
    (lambda: AssociatedGraph([{2}, {7, 9}, frozenset({8})]), "edge target 9 outside 1..3"),
    (lambda: AssociatedGraph.from_edges(3, [(1, 4)]), "edge target 4 outside 1..3"),
    (lambda: AssociatedGraph.from_edges(3, [(1, 2), (0, 1)]), "edge source 0 outside 1..3"),
    (lambda: AssociatedGraph.from_edges(3, [(4, 1)]), "edge source 4 outside 1..3"),
])
def test_out_of_range_edges_are_refused_by_name(build, message):
    with pytest.raises(IndexError, match="^%s$" % re.escape(message)):
        build()


def test_constructor_normalises_any_iterable_of_targets():
    # sets, frozensets and lists with duplicates are all taken
    g = AssociatedGraph([{3, 1}, frozenset({2}), [3, 1, 3, 1]])
    assert out_edge_sets(g) == ({1, 3}, {2}, {1, 3})
    assert all(type(s) is frozenset for s in out_edge_sets(g))
    # the same edges in any order give an equal graph of equal hash
    edges = [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3)]
    for other in (AssociatedGraph([(1, 3), [2, 2], {3: 0, 1: 0}]),
                  AssociatedGraph.from_edges(3, edges),
                  AssociatedGraph.from_edges(3, edges[::-1] + edges)):
        assert other == g and hash(other) == hash(g)
    assert repr(g) == "AssociatedGraph(n=3, edges=5)"


def test_a_negative_vertex_count_is_refused_by_name():
    with pytest.raises(ValueError, match="^vertex count -3 is negative$"):
        AssociatedGraph.from_edges(-3, [])


def test_empty_graph_is_accepted():
    for empty in (AssociatedGraph([]), AssociatedGraph.from_edges(0, [])):
        assert empty.n == 0 and empty == AssociatedGraph(())
        assert empty.weak_components() == () and empty.sinks() == frozenset()
        check_condensation(empty)
        assert empty._condensation == ([], [0], [], (), (), frozenset())


def test_cyclic_indices_golden():
    e = graph_core_triple()
    assert {i for i in range(1, 5) if e.is_cyclic_index(i)} == {1, 2, 3}
    gg = graph_core_loop_tail()
    assert {i for i in range(1, 7) if gg.is_cyclic_index(i)} == {2, 3, 4, 6}
    edgeless = AssociatedGraph.from_edges(3, [])
    assert not any(edgeless.is_cyclic_index(i) for i in range(1, 4))


def test_cycles_golden_and_scc_cross_check():
    f = graph_core_with_side_loop()
    assert f.cycle_of(2) == f.cycle_of(3) == f.cycle_of(5) == {2, 3, 5}
    assert f.cycle_of(4) == {4}
    with pytest.raises(PreconditionError):
        f.cycle_of(1)

    loop = AssociatedGraph.from_edges(1, [(1, 1)])
    assert loop.cycle_of(1) == {1}

    # the components partition the vertices; a non-cyclic vertex is alone
    assert strong_components(f) == ({1}, {2, 3, 5}, {4})
    assert strong_components(graph_core_loop_tail()) == (
        {1}, {2, 3, 6}, {4}, {5})


def test_principal_cycles_golden():
    e = graph_core_triple()
    assert e.principal_cycles() == ({1, 2, 3},)

    # the core {2, 3, 5} is entered from 1 and 4: only the side loop is principal
    f = graph_core_with_side_loop()
    assert f.principal_cycles() == ({4},)

    gg = graph_core_loop_tail()
    assert gg.principal_cycles() == ()

    acyclic = AssociatedGraph.from_edges(3, [(1, 2), (2, 3)])
    assert acyclic.principal_cycles() == ()

    isolated_loop = AssociatedGraph.from_edges(2, [(1, 1)])
    assert isolated_loop.principal_cycles() == ({1},)

    two_loop_graph = associated_graph(two_loops_two_sinks())
    assert two_loop_graph.principal_cycles() == ({3},)

    # a principal cycle is the whole cycle of each of its indices, and
    # they all share descendents
    for g in (e, f, gg):
        for cycle in g.principal_cycles():
            for j in cycle:
                assert g.cycle_of(j) == cycle
                assert g.descendents(j) == g.descendents(min(cycle))


def check_cycle_facts(g):
    # the components are the library's route; the per-vertex searches of
    # descendents and ascendents are the definitions they must meet
    vertices = range(1, g.n + 1)
    D = {i: g.descendents(i) for i in vertices}
    A = {i: g.ascendents(i) for i in vertices}
    mutual = {i: frozenset(j for j in D[i] if i in D[j]) for i in vertices}
    for i in vertices:
        assert strong_component(g, i) == mutual[i] | {i}
        assert g.is_cyclic_index(i) == (i in D[i])
        if g.is_cyclic_index(i):
            assert g.cycle_of(i) == mutual[i]
        else:
            with pytest.raises(PreconditionError):
                g.cycle_of(i)
    principal = {min(mutual[i]): mutual[i] for i in vertices
                 if i in D[i] and A[i] <= mutual[i]}
    assert g.principal_cycles() == tuple(principal[k] for k in sorted(principal))
    assert g.chain_start_indices() == {i for i in vertices if not A[i]}


@FIXED
@given(digraphs())
def test_cycle_facts_match_pairwise_reachability(g):
    check_cycle_facts(g)


@FIXED
@given(digraphs(max_n=40))
def test_cycle_facts_match_pairwise_reachability_on_larger_graphs(g):
    # longer paths, so the depth-first search backtracks through deep stacks
    check_cycle_facts(g)


def check_condensation(g):
    # each value of the condensation against the edges, read off the
    # public out-lists
    components, number, exits, sources = g._condensation[:4]
    vertices = range(1, g.n + 1)
    assert sorted(v for c in components for v in c) == list(vertices)
    assert all(v in components[number[v] - 1] for v in vertices)
    named = set()
    for k, (comp, exit_set) in enumerate(zip(components, exits), start=1):
        assert exit_set == {number[w] for v in comp for w in g.out_edges(v)} - {k}
        assert all(h < k for h in exit_set)
        named |= exit_set
    assert sources == tuple(sorted((c for k, c in enumerate(components, start=1)
                                    if k not in named), key=min))


@FIXED
@given(digraphs(max_n=40))
def test_condensation_partitions_the_vertices_and_exits_only_downward(g):
    # the components partition 1..n, number[v] names the component of v,
    # each exit set is the other components its edges enter, all numbered
    # below it, and the sources are the components no exit set names
    check_condensation(g)


def test_components_of_a_long_path_and_a_long_cycle():
    n = 20000
    path = AssociatedGraph.from_edges(n, [(i, i + 1) for i in range(1, n)])
    everything = frozenset(range(1, n + 1))
    assert strong_components(path) == tuple(
        frozenset({i}) for i in range(1, n + 1))
    assert path.principal_cycles() == ()
    assert not path.is_cyclic_index(n)
    assert path.weak_components() == (everything,)
    assert path.reaches_no_cycle() == everything
    cycle = AssociatedGraph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])
    assert strong_components(cycle) == (everything,)
    assert cycle.principal_cycles() == (everything,)
    assert cycle.is_cyclic_index(n)
    assert cycle.weak_components() == (everything,)
    assert cycle.reaches_no_cycle() == frozenset()


@FIXED
@given(digraphs().flatmap(lambda g: st.tuples(
    st.just(g), st.sets(st.integers(min_value=1, max_value=g.n)))))
def test_forward_closure_is_the_seeds_and_their_descendents(graph_and_seeds):
    g, seeds = graph_and_seeds
    expected = frozenset(seeds).union(*(g.descendents(i) for i in seeds))
    assert g.forward_closure(seeds) == expected


def test_chain_start_indices_two_routes_agree():
    f = graph_core_with_side_loop()
    assert f.chain_start_indices() == {1}

    gg = graph_core_loop_tail()
    assert gg.chain_start_indices() == {1}

    all_loops = AssociatedGraph.from_edges(3, [(1, 1), (2, 2), (3, 3)])
    assert all_loops.chain_start_indices() == frozenset()

    a = two_loops_two_sinks()
    assert associated_graph(a).chain_start_indices() == {2, 4}

    rng = make_rng(654)
    for _ in range(40):
        a = random_algebra(rng, QQ, rng.randrange(1, 7))
        g = associated_graph(a)
        zero_rows = frozenset(
            i for i in range(1, a.dim + 1)
            if not any(a.structure.entries[i - 1]))
        assert g.chain_start_indices() == zero_rows


def test_sinks_golden():
    assert associated_graph(two_sinks_and_pair()).sinks() == {1, 3}
    assert AssociatedGraph.from_edges(3, [(1, 1), (2, 2), (3, 3)]).sinks() == frozenset()
    zero_alg = random_algebra(make_rng(1), QQ, 4, zero_col_prob=1.0)
    assert associated_graph(zero_alg).sinks() == {1, 2, 3, 4}
    # sinks index exactly the zero structure columns
    a = two_sinks_and_pair()
    g = associated_graph(a)
    zero_cols = frozenset(i for i in range(1, 7)
                          if not any(a.square_of_basis(i)))
    assert g.sinks() == zero_cols


def test_weak_components_golden():
    g = associated_graph(swap_pair_plus_loop())
    assert g.weak_components() == ({1, 2}, {3})
    assert AssociatedGraph.from_edges(3, []).weak_components() == ({1}, {2}, {3})
    assert graph_fan_swap().weak_components() == ({1, 2, 3, 4},)


def union_find_weak_components(g):
    """Components of the underlying undirected graph by a union-find over
    every edge, sorted by least element: the reference for
    AssociatedGraph.weak_components."""
    parent = list(range(g.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(1, g.n + 1):
        for j in g.out_edges(i):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
    groups = {}
    for i in range(1, g.n + 1):
        groups.setdefault(find(i), set()).add(i)
    comps = {min(c): frozenset(c) for c in groups.values()}
    return tuple(comps[k] for k in sorted(comps))


@FIXED
@given(digraphs(max_n=40))
def test_weak_components_are_the_fragmented_canonical_parts(g):
    # the paper's process on the algebra's own cover, and a search over
    # every edge, must both give the components read off the condensation
    parts = canonical_decomposition(algebra_from_graph(QQ, g))
    fragmented = optimal_fragmentation([part.derived for part in parts])
    assert g.weak_components() == fragmented == union_find_weak_components(g)


@FIXED
@given(digraphs(max_n=40))
def test_reaches_no_cycle_is_the_fixpoint(g):
    assert g.reaches_no_cycle() == fixpoint_reaches_no_cycle(g)


def check_planted(g, plan, parts):
    # the generator forces every shape on every draw
    assert plan.principal_cycles and plan.chain_starts and plan.sinks
    assert len(plan.weak_components) >= 2
    assert strong_components(g) == plan.components
    assert g.sinks() == plan.sinks
    assert g.chain_start_indices() == plan.chain_starts
    assert g.principal_cycles() == plan.principal_cycles
    assert g.reaches_no_cycle() == plan.reaches_no_cycle
    assert g.weak_components() == plan.weak_components
    assert tuple(parts) == plan.canonical


@FIXED
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       n=st.integers(min_value=3, max_value=200), field=st.sampled_from([QQ, GF(7)]))
def test_planted_condensation_is_found(seed, n, field):
    plan = planted(make_rng(seed), n, known_dets=False)
    a = algebra_from_graph(field, AssociatedGraph.from_edges(n, plan.edges))
    check_planted(associated_graph(a), plan,
                  ((part.kind == PRINCIPAL_CYCLE, part.seed, part.derived)
                   for part in canonical_decomposition(a)))


def test_planted_condensation_is_found_at_n_5000():
    # the graph alone: a dense structure matrix of this size does not fit
    # a test, and the canonical parts are these closures of the sources
    plan = planted(make_rng(5000), 5000, known_dets=False)
    g = AssociatedGraph.from_edges(5000, plan.edges)
    check_condensation(g)
    check_planted(g, plan, ((g.is_cyclic_index(min(seed)), seed, g._component_closure(seed))
                            for seed in g.source_components()))


def test_witness_path_golden():
    a = fan_to_swap_pair()
    path, weight = witness_path(a, 1, 4)
    assert path == (1, 3, 4)
    assert weight == QQ.coerce(-2)  # 1 * (-2)
    assert witness_path(a, 2, 1) is None  # e2^2 = 0, no outgoing edges
    assert witness_path(a, 2, 3) is None
    # length-1 witness carries the single structure constant
    path, weight = witness_path(a, 4, 3)
    assert path == (4, 3) and weight == QQ.coerce(5)
    # closed path back to the start
    path, weight = witness_path(a, 3, 3)
    assert path == (3, 4, 3) and weight == QQ.coerce(-10)
    # witnesses exist exactly for descendents
    g = associated_graph(a)
    for i in range(1, 5):
        for j in range(1, 5):
            assert (witness_path(a, i, j) is not None) == (j in g.descendents(i))
    for i, j in [(1, 4), (1, 2), (4, 4)]:
        result = witness_path(a, i, j)
        if result is not None:
            assert result[1] != QQ.zero


@FIXED
@given(st.sampled_from([QQ, GF(7)]).flatmap(weighted_digraph_algebras))
def test_witness_path_is_a_shortest_weighted_path(a):
    g = associated_graph(a)
    for i in range(1, a.dim + 1):
        for j in range(1, a.dim + 1):
            result = witness_path(a, i, j)
            assert (result is None) == (j not in g.descendents(i))
            if result is None:
                continue
            path, weight = result
            shortest = next(m for m in range(1, a.dim + 1) if j in g.descendents_m(i, m))
            assert len(path) - 1 == shortest and (path[0], path[-1]) == (i, j)
            steps = list(zip(path, path[1:]))
            assert all(v in g.out_edges(u) for u, v in steps)
            assert weight == a.field.coerce(prod(a.square_of_basis(u)[v - 1] for u, v in steps))
            assert weight and is_canonical(a.field, weight)


def raw_scalars(field):
    """Values the public constructor accepts but has to canonicalise:
    bools, and over F_p ints outside [0, p) and Fractions whose
    denominator p does not divide."""
    if field.kind == "rational":
        return st.one_of(st.booleans(), st.integers(-3, 3),
                         st.fractions(max_denominator=4))
    p = field.p
    return st.one_of(
        st.booleans(), st.integers(-3 * p, 3 * p),
        st.builds(Fraction, st.integers(-3 * p, 3 * p),
                  st.integers(1, 3 * p).filter(lambda d: d % p)))


@FIXED
@given(data=st.data(), field=st.sampled_from([QQ, GF(2), GF(3), GF(7)]))
def test_graph_of_non_canonical_input_follows_is_zero(data, field):
    n = data.draw(st.integers(min_value=1, max_value=6))
    raw = data.draw(st.lists(st.lists(raw_scalars(field), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    a = EvolutionAlgebra(field, Matrix(n, n, tuple(map(tuple, raw))))
    entries = a.structure.entries
    # the definition: i -> j exactly when entry (j, i) is not zero in the field
    expected = [[j for j in range(1, n + 1) if entries[j - 1][i - 1] != field.zero]
                for i in range(1, n + 1)]
    assert associated_graph(a) == AssociatedGraph(expected)
    # the same edges read off the raw input, without the field object
    if field.kind == "prime":
        nonzero = [[Fraction(x).numerator % field.p != 0 for x in row] for row in raw]
    else:
        nonzero = [[x != 0 for x in row] for row in raw]
    assert out_edge_sets(associated_graph(a)) == tuple(
        frozenset(j + 1 for j in range(n) if nonzero[j][i]) for i in range(n))


@FIXED
@given(data=st.data(), field=st.sampled_from([QQ, GF(2), GF(3), GF(7)]))
def test_graph_read_off_the_squares_is_the_checked_graph(data, field):
    # past n = 8 a frozenset of small ints need not iterate in ascending
    # order, so the search order of the stored out-lists shows here
    n = data.draw(st.integers(min_value=1, max_value=40))
    index = st.integers(min_value=0, max_value=n - 1)
    raw = [[field.zero] * n for _ in range(n)]
    for row, col, x in data.draw(st.lists(st.tuples(index, index, raw_scalars(field)),
                                          max_size=4 * n)):
        raw[row][col] = x
    a = EvolutionAlgebra(field, Matrix(n, n, tuple(map(tuple, raw))))
    entries = a.structure.entries
    expected = AssociatedGraph([[j for j in range(1, n + 1) if entries[j - 1][i - 1] != field.zero]
                                for i in range(1, n + 1)])
    g = associated_graph(a)
    assert g == expected and hash(g) == hash(expected)
    assert all(type(t) is tuple and all(v < w for v, w in zip(t, t[1:])) for t in g._out)
    # the components that Tarjan's pass finds in this order are the
    # mutual-reachability classes, found by one search per vertex
    reach = [None] + [g.descendents(v) for v in range(1, n + 1)]
    for v in range(1, n + 1):
        assert strong_component(g, v) == {w for w in reach[v] if v in reach[w]} | {v}
