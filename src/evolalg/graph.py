"""The directed graph attached to an evolution algebra and its reachability
machinery.

Vertex i stands for basis index i (1-based throughout); there is an edge
i -> j exactly when e_j occurs with nonzero coefficient in e_i^2, so
"descendent" literally means "reachable by a path of length >= 1".
Weights are dropped here; witness_path recovers them from the algebra.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from math import prod

from .algebra import EvolutionAlgebra, _memoized
from .errors import PreconditionError


def _closure(edges, seeds) -> frozenset:
    """The seeds together with every vertex reachable from them along
    edges (edges[v - 1] holds the targets of v), found by one search."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        for v in edges[frontier.pop() - 1]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return frozenset(seen)


class AssociatedGraph:
    """Immutable digraph on {1..n}.  The strongly connected components are
    computed once on first use and cached; every cycle fact is read off
    them.  Reachability questions are answered by one search each."""

    def __init__(self, out_edges):
        out = []
        n = len(out_edges)
        for targets in out_edges:
            ts = frozenset(targets)
            for t in ts:
                if not 1 <= t <= n:
                    raise IndexError("edge target %d outside 1..%d" % (t, n))
            out.append(ts)
        self._adopt(tuple(out))

    @classmethod
    def _from_frozensets(cls, out: tuple) -> "AssociatedGraph":
        """The graph whose out-sets are the given frozensets, each already
        inside 1..len(out), as associated_graph makes them; no target is
        checked again."""
        return cls.__new__(cls)._adopt(out)

    def _adopt(self, out: tuple) -> "AssociatedGraph":
        self.n = len(out)
        self._out = out
        return self

    @classmethod
    def from_edges(cls, n: int, edges) -> "AssociatedGraph":
        out = [set() for _ in range(n)]
        for i, j in edges:
            if not 1 <= i <= n:
                raise IndexError("edge source %d outside 1..%d" % (i, n))
            out[i - 1].add(j)
        return cls(out)

    def __eq__(self, other):
        return isinstance(other, AssociatedGraph) and self._out == other._out

    def __hash__(self):
        return hash(self._out)

    def __repr__(self):
        return "AssociatedGraph(n=%d, edges=%d)" % (self.n, sum(len(s) for s in self._out))

    def _check_index(self, i: int):
        if not 1 <= i <= self.n:
            raise IndexError("vertex %d outside 1..%d" % (i, self.n))

    def out_edges(self, i: int) -> frozenset:
        self._check_index(i)
        return self._out[i - 1]

    def descendents(self, i: int) -> frozenset:
        """All vertices reachable from i by a path of length >= 1."""
        self._check_index(i)
        return _closure(self._out, self._out[i - 1])

    def descendents_m(self, i: int, m: int) -> frozenset:
        """Vertices reachable from i by a path of length exactly m (m >= 1)."""
        self._check_index(i)
        if m < 1:
            raise ValueError("path length must be >= 1, got %d" % m)
        current = self._out[i - 1]
        for _ in range(m - 1):
            nxt = set()
            for v in current:
                nxt |= self._out[v - 1]
            current = frozenset(nxt)
        return frozenset(current)

    def ascendents(self, i: int) -> frozenset:
        """All j with i in descendents(j): one search on the reversed edges."""
        self._check_index(i)
        into = [[] for _ in range(self.n)]
        for v, targets in enumerate(self._out, start=1):
            for w in targets:
                into[w - 1].append(v)
        return _closure(into, into[i - 1])

    def forward_closure(self, seeds) -> frozenset:
        """The seeds together with every vertex reachable from them, found
        by one search."""
        seeds = list(seeds)
        for i in seeds:
            self._check_index(i)
        return _closure(self._out, seeds)

    @cached_property
    def _condensation(self):
        """(the strongly connected component of each vertex as a list
        indexed by vertex, the components no edge enters from outside
        sorted by least element, the weak components sorted by least
        element, the vertices from which no path reaches a cycle), from
        one iterative Tarjan pass (Tarjan 1972, SIAM J. Comput. 1(2)) on
        lists indexed by vertex and one walk over its components.
        index[v] is 0 until v is visited and component_of[v] is None until
        its component is complete, so w is still on the stack iff it is
        visited and has no component yet; a finished component is cut off
        the stack at the position where its root was pushed.

        Tarjan completes a component only after every component it
        reaches, so the walk, in completion order, meets each component
        after the components its edges enter.  The component joins their
        weak groups (the group with fewer components is relabelled into
        the other), and it reaches a cycle iff it holds an edge of its own
        (it is cyclic) or one of them reaches a cycle."""
        n, out = self.n, self._out
        index, low, at = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
        component_of = [None] * (n + 1)
        stack, components = [], []
        count = 0
        for root in range(1, n + 1):
            if index[root]:
                continue
            count += 1
            index[root] = low[root] = count
            at[root] = len(stack)
            stack.append(root)
            work = [(root, iter(out[root - 1]))]
            while work:
                v, it = work[-1]
                for w in it:
                    if not index[w]:
                        count += 1
                        index[w] = low[w] = count
                        at[w] = len(stack)
                        stack.append(w)
                        work.append((w, iter(out[w - 1])))
                        break
                    if component_of[w] is None and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        if low[v] < low[parent]:
                            low[parent] = low[v]
                    if low[v] == index[v]:
                        comp = frozenset(stack[at[v]:])
                        del stack[at[v]:]
                        for w in comp:
                            component_of[w] = comp
                        components.append(comp)
        entered, weak, reaching = set(), {}, set()
        for comp in components:
            targets = frozenset().union(*(out[v - 1] for v in comp))
            hit = {component_of[w] for w in targets - comp}
            entered |= hit
            if not comp.isdisjoint(targets) or not reaching.isdisjoint(hit):
                reaching.add(comp)
            group = weak[comp] = [comp]
            for target in hit:
                other = weak[target]
                if other is not group:
                    if len(other) > len(group):
                        group, other = other, group
                    group += other
                    for c in other:
                        weak[c] = group
        groups = {id(group): group for group in weak.values()}.values()
        no_cycle = frozenset().union(*(c for c in components if c not in reaching))
        return (component_of,
                tuple(sorted((c for c in components if c not in entered), key=min)),
                tuple(sorted((frozenset().union(*g) for g in groups), key=min)),
                no_cycle)

    def is_cyclic_index(self, i: int) -> bool:
        """True when i lies on a closed path: its strongly connected
        component has more than one vertex, or i has a self-loop."""
        self._check_index(i)
        return len(self._condensation[0][i]) > 1 or i in self._out[i - 1]

    def cycle_of(self, i: int) -> frozenset:
        """The strongly connected component of a cyclic index i: the
        vertices mutually reachable with it."""
        if not self.is_cyclic_index(i):
            raise PreconditionError("index %d is not cyclic" % i)
        return self._condensation[0][i]

    def source_components(self):
        """The strongly connected components that no edge enters from
        outside, sorted by least element: every vertex is reached from one
        of them.  The cyclic ones are the principal cycles, and each other
        one is a single vertex that no edge enters, a chain start."""
        return self._condensation[1]

    def principal_cycles(self):
        """The cyclic components that no edge enters from outside, pairwise
        disjoint, sorted by least element."""
        return tuple(c for c in self.source_components() if self.is_cyclic_index(min(c)))

    def chain_start_indices(self) -> frozenset:
        """Vertices with no incoming edge, i.e. no ascendents (sources)."""
        return frozenset(range(1, self.n + 1)).difference(*self._out)

    def sinks(self) -> frozenset:
        return frozenset(i for i in range(1, self.n + 1) if not self._out[i - 1])

    def weak_components(self):
        """Partition of {1..n} into components of the underlying undirected
        graph, sorted by least element: on an algebra's graph, the blocks
        of the optimal decomposition."""
        return self._condensation[2]

    def reaches_no_cycle(self) -> frozenset:
        """The vertices from which no path reaches a cyclic vertex; a
        cyclic vertex reaches itself.  On an algebra's graph, the indices
        whose basis elements span the radical."""
        return self._condensation[3]


@_memoized
def associated_graph(algebra: EvolutionAlgebra) -> AssociatedGraph:
    """Edge i -> j present exactly when entry j of e_i^2 is nonzero; built
    once per algebra object.  The entries are canonical (every constructor
    of EvolutionAlgebra makes them so), so nonzero iff truthy, and compress
    picks the targets of each square out of 1..n; they lie in range by
    construction, so the graph is built without the public check."""
    vertices = range(1, algebra.dim + 1)
    return AssociatedGraph._from_frozensets(
        tuple(frozenset(compress(vertices, col)) for col in algebra._squares))


def witness_path(algebra: EvolutionAlgebra, i: int, j: int):
    """One shortest path i -> ... -> j (length >= 1) together with the
    nonzero product of structure constants along it, or None when j is not
    a descendent of i.  Neighbor ties break toward smaller vertices.
    """
    graph = associated_graph(algebra)
    graph._check_index(i)
    graph._check_index(j)
    parent = {}
    frontier = []
    for v in sorted(graph.out_edges(i)):
        if v not in parent:
            parent[v] = i
            frontier.append(v)
    found = j in parent
    while frontier and not found:
        nxt = []
        for u in frontier:
            for v in sorted(graph.out_edges(u)):
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
                    if v == j:
                        found = True
        frontier = nxt
    if not found:
        return None
    path = [j]
    while not (path[-1] == i and len(path) >= 2):
        path.append(parent[path[-1]])
    path.reverse()
    weight = prod(algebra._squares[a - 1][b - 1] for a, b in zip(path, path[1:]))
    return tuple(path), algebra.field.coerce(weight)
