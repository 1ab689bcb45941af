"""Reference algebras and graphs used across the tests, plus random
generators for the property corpora.

Each builder is named after the structure it encodes, with the basis
squares spelled out next to it.
"""

from fractions import Fraction
import functools
import random

from hypothesis import settings
from hypothesis import strategies as st

from evolalg import (QQ, AssociatedGraph, EvolutionAlgebra, Matrix,
                     associated_graph, is_simple, rref)

# hypothesis settings for every property test: a fixed example sequence
# and no per-example time limit
FIXED = settings(derandomize=True, deadline=None)


def from_squares(field, squares):
    return EvolutionAlgebra.from_squares(field, squares)


# dim 4: e1^2 = e2+e3, e2^2 = 0, e3^2 = -2 e4, e4^2 = 5 e3
def fan_to_swap_pair(field=QQ):
    return from_squares(field, [(0, 1, 1, 0), (0, 0, 0, 0),
                                (0, 0, 0, -2), (0, 0, 5, 0)])


# dim 6: e1^2 = 0, e2^2 = e1+e3, e3^2 = 0, e4^2 = e3+e5, e5^2 = e6, e6^2 = e5
def two_sinks_and_pair(field=QQ):
    return from_squares(field, [(0, 0, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0),
                                (0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0),
                                (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 1, 0)])


# dim 2: e1^2 = e1+e2, e2^2 = 0
def loop_with_tail(field=QQ):
    return from_squares(field, [(1, 1), (0, 0)])


# dim 2: e1^2 = e1, e2^2 = 0  (the same algebra as loop_with_tail on the
# natural basis {e1+e2, e2})
def lone_loop_plus_sink(field=QQ):
    return from_squares(field, [(1, 0), (0, 0)])


# dim 3: e1^2 = e2, e2^2 = e1, e3^2 = e3
def swap_pair_plus_loop(field=QQ):
    return from_squares(field, [(0, 1, 0), (1, 0, 0), (0, 0, 1)])


# dim 3: e1^2 = e2+e3, e2^2 = e1+e2, e3^2 = -(e1+e2); the span of e1^2 and
# e2^2 is the ideal {(a, a+b, b)}, which has no natural basis
def entangled_squares(field=QQ):
    return from_squares(field, [(0, 1, 1), (1, 1, 0), (-1, -1, 0)])


# dim 3: e1^2 = e3, e2^2 = e1+e2, e3^2 = e3
def tail_into_loop(field=QQ):
    return from_squares(field, [(0, 0, 1), (1, 1, 0), (0, 0, 1)])


# dim 2: e1^2 = e1, e2^2 = e1
def loop_feeder(field=QQ):
    return from_squares(field, [(1, 0), (1, 0)])


# dim 2: e1^2 = e1, e2^2 = e2
def double_loop(field=QQ):
    return from_squares(field, [(1, 0), (0, 1)])


# dim 2: e1^2 = e2, e2^2 = e2
def shared_loop_target(field=QQ):
    return from_squares(field, [(0, 1), (0, 1)])


# dim 2: e1^2 = 0, e2^2 = e1+e2
def sink_feeder(field=QQ):
    return from_squares(field, [(0, 0), (1, 1)])


# dim 6: e1^2 = e2^2 = e3^2 = 0, e4^2 = e1+e2, e5^2 = e2, e6^2 = e2+e5
def all_chains_die(field=QQ):
    return from_squares(field, [(0,) * 6, (0,) * 6, (0,) * 6,
                                (1, 1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                                (0, 1, 0, 0, 1, 0)])


# dim 5: e1^2 = e2^2 = e1, e3^2 = e3+e5, e4^2 = e5^2 = 0; admits two
# distinct refinements into irreducible ideals
def two_loops_two_sinks(field=QQ):
    return from_squares(field, [(1, 0, 0, 0, 0), (1, 0, 0, 0, 0),
                                (0, 0, 1, 0, 1), (0, 0, 0, 0, 0),
                                (0, 0, 0, 0, 0)])


# dim 2: e1^2 = e2, e2^2 = e1+e2  (simple; also classically degenerate)
def pair_cycle_mixing(field=QQ):
    return from_squares(field, [(0, 1), (1, 1)])


# dim 3: e1^2 = e2^2 = e2+e3, e3^2 = -e2-e3  (non-degenerate, yet the line
# through e2+e3 is an ideal of square zero)
def nilpotent_line_nondegenerate(field=QQ):
    return from_squares(field, [(0, 1, 1), (0, 1, 1), (0, -1, -1)])


# dim 3: e1^2 = e3^2 = e1+e2, e2^2 = e3  (everything reaches everything,
# but the squares span only a plane)
def squares_span_deficient(field=QQ):
    return from_squares(field, [(1, 1, 0), (0, 0, 1), (1, 1, 0)])


# dim 3: e1^2 = e1+e2, e2^2 = -e1-e2, e3^2 = -e2+e3
def opposed_pair_and_loop(field=QQ):
    return from_squares(field, [(1, 1, 0), (-1, -1, 0), (0, -1, 1)])


ALL_REFERENCE_BUILDERS = (
    fan_to_swap_pair, two_sinks_and_pair, loop_with_tail, lone_loop_plus_sink,
    swap_pair_plus_loop, entangled_squares, tail_into_loop, loop_feeder,
    double_loop, shared_loop_target, sink_feeder, all_chains_die,
    two_loops_two_sinks, pair_cycle_mixing, nilpotent_line_nondegenerate,
    squares_span_deficient, opposed_pair_and_loop,
)


def simplicity_checked(algebra):
    """is_simple(algebra), asserted equal to the verdict of the definition
    read another way: M_B has full rank and D(i) == Lambda for every i,
    with D(i) from one search per index."""
    verdict = is_simple(algebra)
    n = algebra.dim
    rank, _ = rref(algebra.field, algebra.structure)
    graph = associated_graph(algebra)
    everything = frozenset(range(1, n + 1))
    assert verdict.simple == (n > 0 and rank == n and all(
        graph.descendents(i) == everything for i in everything))
    return verdict


def fixpoint_reaches_no_cycle(graph):
    """The vertices from which no path reaches a cycle, as the least
    fixpoint S0 = {}, S_{k+1} = {i : D1(i) inside S_k}, rescanning every
    vertex per round: the reference for AssociatedGraph.reaches_no_cycle."""
    dead = set()
    changed = True
    while changed:
        changed = False
        for i in range(1, graph.n + 1):
            if i not in dead and graph.out_edges(i) <= dead:
                dead.add(i)
                changed = True
    return frozenset(dead)


def matrix(rows):
    """The Matrix of the given rows, at least one, all of one length."""
    rows = tuple(map(tuple, rows))
    return Matrix(len(rows), len(rows[0]), rows)


def interleaved_blocks():
    """Edges on 1..24 of 4 weak components of 6 indices on interleaved
    positions (block b holds b, b + 4, ..., b + 20): in each, two chain
    starts feed a 2-cycle that feeds a path into a sink."""
    edges = []
    for b in range(1, 5):
        s1, s2, c1, c2, m, t = range(b, 25, 4)
        edges += [(s1, c1), (s2, c1), (s2, m), (c1, c2), (c2, c1), (c2, m), (m, t)]
    return edges


def out_edge_sets(graph):
    """The out-set of each vertex of graph, in vertex order."""
    return tuple(map(graph.out_edges, range(1, graph.n + 1)))


def strong_component(graph, v):
    """The strongly connected component of vertex v from the public cycle
    facts: the cycle of a cyclic index, else v alone."""
    return graph.cycle_of(v) if graph.is_cyclic_index(v) else frozenset({v})


def strong_components(graph):
    """The strongly connected components of graph, sorted by least element."""
    components = {strong_component(graph, v) for v in range(1, graph.n + 1)}
    return tuple(sorted(components, key=min))


# reference graphs (1-based edge lists)

def graph_fan_swap():
    # 1 -> 2, 1 -> 3, 3 <-> 4
    return AssociatedGraph.from_edges(4, [(1, 2), (1, 3), (3, 4), (4, 3)])


def graph_cycle_with_entry():
    # 1 -> 2 -> 3 -> 4 -> 2
    return AssociatedGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 2)])


def graph_core_triple():
    # triangle core {1,2,3} with a loop at 1, plus 2 -> 4
    return AssociatedGraph.from_edges(
        4, [(3, 1), (3, 2), (1, 1), (1, 2), (2, 1), (2, 3), (2, 4)])


def graph_core_with_side_loop():
    # entry 1 -> core {2,3,5}, plus a loop at 4 feeding the core
    return AssociatedGraph.from_edges(
        5, [(1, 2), (2, 5), (2, 3), (3, 2), (3, 5), (5, 2), (5, 3),
            (4, 3), (4, 4)])


def graph_core_loop_tail():
    # entry 1 -> core {2,3,6}, core -> loop 4 -> sink 5
    return AssociatedGraph.from_edges(
        6, [(1, 2), (2, 6), (2, 3), (3, 2), (3, 6), (6, 2), (6, 3),
            (3, 4), (4, 4), (4, 5)])


# random corpora

RATIONAL_POOL = (1, -1, 2, -2, 3, 5, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3))


def is_canonical(field, x):
    """The scalar contract of evolalg.fields: over QQ an int, or a Fraction
    of denominator above 1; over F_p an int in [0, p).  A bool is neither,
    and neither is a float."""
    if field.kind == "rational":
        return type(x) is int or (type(x) is Fraction and x.denominator > 1)
    return type(x) is int and 0 <= x < field.p


def random_scalar(rng, field):
    if field.kind == "rational":
        return rng.choice(RATIONAL_POOL)
    return rng.randrange(1, field.p)


def random_algebra(rng, field, dim, zero_col_prob=0.25, density=0.45):
    """Random structure matrix: each column is zero with zero_col_prob,
    else carries at least one nonzero entry."""
    squares = []
    for _ in range(dim):
        if rng.random() < zero_col_prob:
            squares.append((field.zero,) * dim)
            continue
        col = [random_scalar(rng, field) if rng.random() < density else field.zero
               for _ in range(dim)]
        if not any(col):
            col[rng.randrange(dim)] = random_scalar(rng, field)
        squares.append(tuple(col))
    return EvolutionAlgebra.from_squares(field, squares)


def random_element(rng, field, dim, zero_prob=0.3):
    return tuple(field.zero if rng.random() < zero_prob else random_scalar(rng, field)
                 for _ in range(dim))


def vec_add(field, u, v):
    return tuple(field.coerce(x + y) for x, y in zip(u, v))


def vec_scale(field, c, u):
    return tuple(field.coerce(c * x) for x in u)


def relabel(algebra, perm):
    """Algebra on the reindexed basis f_j = e_{perm[j-1]}: the structure
    entry (m, j) becomes the old entry (perm[m-1], perm[j-1])."""
    n = algebra.dim
    old = algebra.structure.entries
    rows = tuple(tuple(old[perm[m] - 1][perm[j] - 1] for j in range(n))
                 for m in range(n))
    return EvolutionAlgebra(algebra.field, Matrix(n, n, rows))


def random_permutation(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def inverse_permutation(perm):
    inv = [0] * len(perm)
    for pos, value in enumerate(perm, start=1):
        inv[value - 1] = pos
    return tuple(inv)


def make_rng(seed):
    return random.Random(seed)


# hypothesis strategies

@st.composite
def digraphs(draw, max_n=9):
    """A digraph on 1..n, n <= max_n, from a list of edges (loops allowed)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vertex = st.integers(min_value=1, max_value=n)
    return AssociatedGraph.from_edges(
        n, draw(st.lists(st.tuples(vertex, vertex), max_size=n * n)))


def nonzero_scalars(field):
    if field.kind == "rational":
        return st.sampled_from(RATIONAL_POOL)
    return st.integers(min_value=1, max_value=field.p - 1)


def scalars(field):
    return st.one_of(st.just(field.zero), nonzero_scalars(field))


@functools.cache
def raw_scalars(field):
    """Canonical scalars, and values that field.coerce takes but that are
    not canonical as they are: ints of any sign and size, bools, Fractions
    (of denominator 1 among them) and the texts of ints and of fractions.
    Over F_p no denominator is a multiple of p, so coerce refuses none of
    them.  One strategy per field, so that it is validated once."""
    ints = st.one_of(st.integers(min_value=-9, max_value=9), st.integers())
    dens = st.integers(min_value=1, max_value=10 ** 6)
    if field.kind != "rational":
        dens = dens.filter(lambda d: d % field.p)
    return st.one_of(scalars(field), ints, st.booleans(), st.builds(Fraction, ints, dens),
                     st.builds(str, ints), st.builds("{}/{}".format, ints, dens))


@st.composite
def algebras(draw, field, max_dim=6):
    """An algebra over field of dimension <= max_dim; zero squares, and so
    degenerate algebras, are among the examples."""
    n = draw(st.integers(min_value=1, max_value=max_dim))
    square = st.lists(scalars(field), min_size=n, max_size=n)
    return EvolutionAlgebra.from_squares(
        field, draw(st.lists(square, min_size=n, max_size=n)))


@st.composite
def weighted_digraph_algebras(draw, field):
    """An algebra over field drawn as weighted edges i -> j (e_j in e_i^2
    with a nonzero coefficient).  The vertices, relabelled at random, are
    cut into runs of 1 to 3.  Two times in three a run is closed into a
    cycle (a loop for a run of one), else it is left an open path; two
    times in three it gets one edge from an earlier run.  Up to two random
    edges come on top.  So loops, sinks, chain starts and weak blocks of
    several strongly connected components, with or without an index on no
    cycle, are all common."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=5))
    n = sum(sizes)
    label = draw(st.permutations(range(1, n + 1)))
    weight = nonzero_scalars(field)
    often = st.sampled_from((True, True, False))
    edges = {}
    start = 0
    for size in sizes:
        run = label[start:start + size]
        closed = draw(often)
        for k in range(size if closed else size - 1):
            edges[run[k], run[(k + 1) % size]] = draw(weight)
        if start and draw(often):
            edges[label[draw(st.integers(min_value=0, max_value=start - 1))], run[0]] = draw(weight)
        start += size
    vertex = st.integers(min_value=1, max_value=n)
    edges.update(draw(st.dictionaries(st.tuples(vertex, vertex), weight, max_size=2)))
    squares = [[field.zero] * n for _ in range(n)]
    for (i, j), w in edges.items():
        squares[i - 1][j - 1] = w
    return EvolutionAlgebra.from_squares(field, squares)
