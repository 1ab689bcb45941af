"""Digraphs with a planted condensation, and the graph facts that the plan
fixes, with the standard library alone:

    plan = planted(random.Random(seed), n)     # n >= 3
    plan = planted(random.Random(seed), n, known_dets=False)

The plan lays out components along a random DAG, in order:
- cyclic components: a Hamiltonian cycle through their vertices plus a few
  extra inner edges, or a single vertex with a loop;
- single vertices with no loop, among them the sinks.

Each component is put in one of two to four groups, and edges between
components run only from an earlier to a later component of the same
group, so no edge closes a cycle across components.  Each shape is forced,
not left to the draw: the first component is cyclic and the second is a
vertex with no loop, both in groups of their own so far, so each is a
source and they lie in different weak components; the last component is a
vertex with no loop, which no edge leaves; the first group holds cyclic
components alone.  So every plan has a principal cycle, a chain start, a
sink and at least two weak components.

Every edge i -> j has a nonzero integer weight w, the coordinate of e_j in
e_i^2, which neither 7 nor 10007 divides, so that every weight and every
det that is not 0 stays nonzero over GF(7) and GF(10007).  A cyclic
component on the vertices v_0, ..., v_{k-1} of the plan's order has the
matrix C = P_s U, C[a][b] the weight of v_a -> v_b: s is the k-cycle
a -> a + 1 mod k, so row a of C is row a + 1 of U, an upper triangular
matrix whose diagonal d gives the Hamiltonian cycle v_a -> v_{a+1} and
whose entries above it give the extra inner edges.  So det C =
(-1)^(k-1) prod d; a vertex with a loop is the case k = 1.  Ordered along
the DAG, the matrix of a weak component is block triangular, so its det
is the product of the dets of its components, 0 where one is a vertex
with no loop; the first component's weak component holds cyclic
components alone, so its det is not zero.

Such inner edges leave every cycle of a component passing through
v_{k-1}, the one vertex that can carry a loop.  With known_dets false,
the extra inner edges are arbitrary pairs of the component's vertices
instead, so a loop may sit on any vertex and two inner cycles may be
disjoint; the graph facts do not depend on them, and plan.dets is None.

Last, the vertices are relabelled onto 1..n by a random permutation.  The
expected facts are read off the component DAG, not computed by evolalg.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt, prod

# edges: {(i, j): weight} on 1..n, in a random order.  components,
# principal_cycles and weak_components are tuples of frozensets sorted by
# least element, and dets holds the det of each weak component, an int;
# sinks, chain_starts and reaches_no_cycle are frozensets; canonical holds
# one (cyclic, seed, derived) triple per source component, sorted by least
# element of the seed, where derived is the union of the components the
# seed reaches, the seed among them
Plan = namedtuple("Plan", "n edges components sinks chain_starts principal_cycles "
                          "reaches_no_cycle weak_components dets canonical")

# |w| for a weight w: neither 7 nor 10007 divides one, and the dets of QQ
# grow past a machine word
_WEIGHTS = (1, 1, 1, 2, 3, 5, 101, 103, 2 ** 61 - 1)


def _sizes(rng, n):
    """The size of each component and whether it is cyclic, in DAG order:
    a cyclic first component, a vertex with no loop second and last, and
    in between a mix of vertices with and without a loop and cycles,
    mostly of 2 to 5 vertices, one in fifty up to a tenth of n."""
    first = rng.randint(1, max(1, min(n - 2, rng.choice((2, 5, n // 4)))))
    shapes = [(first, True), (1, False)]
    left = n - first - 2
    while left > 0:
        roll = rng.random()
        if roll < 0.55 or left == 1:
            shapes.append((1, roll < 0.25))
        else:
            longest = max(2, n // 10) if rng.random() < 0.02 else 5
            shapes.append((min(left, rng.randint(2, longest)), True))
        left -= shapes[-1][0]
    return shapes + [(1, False)]


def _above_diagonal(size):
    """The map from t to the t-th entry (r, c), r < c, above the diagonal
    of a size x size matrix, row by row, without listing the entries: the
    entry that is u-th from the end lies in row size - 2 - q, where q is
    the largest with q(q + 1)/2 <= u."""
    def entry(t):
        u = size * (size - 1) // 2 - 1 - t
        q = (isqrt(8 * u + 1) - 1) // 2
        return size - 2 - q, size - 1 - (u - q * (q + 1) // 2)
    return entry


def planted(rng, n, known_dets=True) -> Plan:
    """A digraph on 1..n with a planted condensation, drawn with rng (a
    random.Random), and its expected facts; with known_dets false, inner
    edges are arbitrary and plan.dets is None."""
    if n < 3:
        raise ValueError("a plan needs n >= 3, got %d" % n)
    shapes = _sizes(rng, n)
    label = list(range(1, n + 1))
    rng.shuffle(label)
    comps, start = [], 0
    for size, _ in shapes:
        comps.append(label[start:start + size])
        start += size
    count = len(comps)
    cyclic = [is_cyclic for _, is_cyclic in shapes]

    def weight():
        return rng.choice((1, -1)) * rng.choice(_WEIGHTS)

    edges, comp_dets = [], []
    for vs, is_cyclic in zip(comps, cyclic):
        if not is_cyclic:
            comp_dets.append(0)
            continue
        size = len(vs)
        # U[r][c] is the weight of v_{r-1} -> v_c, so U[r][r] is that of
        # the cycle edge v_{r-1} -> v_r
        diagonal = [weight() for _ in range(size)]
        edges += [((vs[r - 1], vs[r]), d) for r, d in enumerate(diagonal)]
        extra = rng.randrange(size + 1)
        if known_dets:
            above = size * (size - 1) // 2
            edges += [((vs[r - 1], vs[c]), weight())
                      for r, c in map(_above_diagonal(size),
                                      rng.sample(range(above), min(above, extra)))]
        else:
            edges += [((rng.choice(vs), rng.choice(vs)), weight()) for _ in range(extra)]
        comp_dets.append((-1) ** (size - 1) * prod(diagonal))

    # the component DAG: each component takes up to three edges from
    # earlier components of its group, of which the first two have none;
    # the first group takes cyclic components alone
    groups = rng.randint(2, 4)
    group = [0, 1] + [rng.randrange(0 if cyclic[j] else 1, groups) for j in range(2, count)]
    members = [[] for _ in range(groups)]
    succ = [set() for _ in range(count)]
    pred = [set() for _ in range(count)]
    for j in range(count):
        earlier = members[group[j]]
        for _ in range(rng.choice((0, 1, 1, 2, 3)) if earlier else 0):
            i = rng.choice(earlier)
            succ[i].add(j)
            pred[j].add(i)
            edges.append(((rng.choice(comps[i]), rng.choice(comps[j])), weight()))
        earlier.append(j)
    rng.shuffle(edges)

    def vertices(indices):
        return frozenset(v for c in indices for v in comps[c])

    def by_least(sets):
        return tuple(sorted(sets, key=min))

    reaches = [False] * count
    for i in reversed(range(count)):
        reaches[i] = cyclic[i] or any(reaches[j] for j in succ[i])
    weak, seen = [], set()
    for i in range(count):
        if i not in seen:
            seen.add(i)
            found, frontier = [i], [i]
            while frontier:
                c = frontier.pop()
                for d in succ[c] | pred[c]:
                    if d not in seen:
                        seen.add(d)
                        found.append(d)
                        frontier.append(d)
            weak.append((vertices(found), prod(comp_dets[c] for c in found)))
    weak.sort(key=lambda part: min(part[0]))
    canonical = []
    for s in (i for i in range(count) if not pred[i]):
        reached, frontier = {s}, [s]
        while frontier:
            for d in succ[frontier.pop()] - reached:
                reached.add(d)
                frontier.append(d)
        canonical.append((cyclic[s], frozenset(comps[s]), vertices(reached)))
    lone = [i for i in range(count) if not cyclic[i]]
    return Plan(
        n, dict(edges), by_least(frozenset(c) for c in comps),
        frozenset(comps[i][0] for i in lone if not succ[i]),
        frozenset(comps[i][0] for i in lone if not pred[i]),
        by_least(frozenset(comps[i]) for i in range(count) if cyclic[i] and not pred[i]),
        vertices(i for i in range(count) if not reaches[i]),
        tuple(part for part, _ in weak), tuple(det for _, det in weak) if known_dets else None,
        tuple(sorted(canonical, key=lambda part: min(part[1]))))
