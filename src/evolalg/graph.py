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


def _merged(sets, links) -> tuple:
    """The unions of the groups of sets that links join, sorted by least
    element: set k (numbered from 1) joins the sets whose numbers
    links[k - 1] holds, each at most k, in one pass in which the group
    with fewer sets is relabelled into the other, so no set is
    relabelled more than log2 of their count times."""
    group_of = []
    for k, linked in enumerate(links, start=1):
        group = [k]
        group_of.append(group)
        for h in linked:
            other = group_of[h - 1]
            if other is not group:
                if len(other) > len(group):
                    group, other = other, group
                group += other
                for c in other:
                    group_of[c - 1] = group
    groups = {id(group): group for group in group_of}.values()
    return tuple(sorted((frozenset().union(*(sets[c - 1] for c in group)) for group in groups),
                        key=min))


class AssociatedGraph:
    """Immutable digraph on {1..n}, holding the targets of each vertex as
    a strictly ascending tuple.  The strongly connected components are
    computed once on first use and cached; every cycle fact is read off
    them.  Reachability questions are answered by one search each."""

    def __init__(self, out_edges):
        """out_edges[i - 1] holds the targets of vertex i, each in 1..n for
        n = len(out_edges), in any iterable; each is stored sorted with
        duplicates dropped.  A refusal names the lowest target below 1, or
        else the highest above n."""
        out = self._out = tuple(tuple(sorted(set(t))) for t in out_edges)
        n = self.n = len(out)
        low = min((t[0] for t in out if t), default=1)
        high = max((t[-1] for t in out if t), default=n)
        if low < 1 or high > n:
            raise IndexError("edge target %d outside 1..%d" % (low if low < 1 else high, n))

    @classmethod
    def _trusted(cls, out) -> "AssociatedGraph":
        """A graph on the given out-lists as they are, with no check: out is
        a sequence of strictly ascending tuples of targets in 1..len(out)."""
        graph = cls.__new__(cls)
        graph._out, graph.n = tuple(out), len(out)
        return graph

    @classmethod
    def from_edges(cls, n: int, edges) -> "AssociatedGraph":
        if n < 0:
            raise ValueError("vertex count %d is negative" % n)
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
        return frozenset(self._out[i - 1])

    def descendents(self, i: int) -> frozenset:
        """All vertices reachable from i by a path of length >= 1."""
        self._check_index(i)
        return _closure(self._out, self._out[i - 1])

    def descendents_m(self, i: int, m: int) -> frozenset:
        """Vertices reachable from i by a path of length exactly m (m >= 1):
        the level m - 1 steps on from the out-neighbours of i (_level)."""
        self._check_index(i)
        if m < 1:
            raise ValueError("path length must be >= 1, got %d" % m)
        return self._level(self._out[i - 1], m - 1)

    def _level(self, seeds, steps: int) -> frozenset:
        """The ends of the paths of exactly steps edges that start in
        seeds, vertices in 1..n that are not checked: one union of
        out-lists per step, and the seeds themselves at steps = 0."""
        level = frozenset(seeds)
        for _ in range(steps):
            level = frozenset().union(*(self._out[v - 1] for v in level))
        return level

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
        """(the strongly connected components numbered 1..m in the order
        they complete, a list giving each vertex the number of its
        component, the exit set of each component (the numbers of the
        other components its edges enter), the components no edge enters
        from outside sorted by least element, the weak components sorted
        by least element, the vertices from which no path reaches a
        cycle), from one iterative Tarjan search (Tarjan 1972, SIAM J.
        Comput. 1(2)) on lists indexed by vertex.  The search starts at a
        virtual vertex 0 with an edge to every vertex, so one loop reaches
        every root.  Slot 0 of the lists is free for it: vertex 0 is its
        own parent on the work stack, is never pushed on the component
        stack, and has low[0] = 0 below index[0] = 1, so it never
        completes as a component.  The search visits the targets of each
        vertex in ascending order, the order of its out-list, so the
        numbering is fixed by the edges alone.  index[v] is 0 until v is
        visited and number[v] is 0 until its component is complete, so w
        is still on the stack iff it is visited and has no number yet; a
        finished component is cut off the stack at the position where its
        root was pushed.

        The exit sets are collected during the same edge scan.  An edge
        v -> w leaves the component of v exactly when w is in a completed
        component (a w still on the stack shares the component of v), or
        when it is the tree edge into the root w of a component, which
        completes as the search returns over it.  Each such exit goes on
        one list of hits; the hits made while a component is open are the
        ones after the point where its root was pushed, less those of the
        components completed since, which took theirs when they completed.
        The hits of vertex 0 are never read.

        Tarjan completes a component only after every component it
        reaches, so each component is settled when it completes, from the
        exit set it has then: it reaches a cycle iff it is cyclic (more
        than one vertex, or a self-loop) or one of the components it exits
        to reaches a cycle.  The sources are the components that no exit
        set names.  The exit sets name only components numbered below
        their own, so one merge over them in completion order (_merged)
        gives the weak components."""
        n, out = self.n, self._out
        index, low, number = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
        at, hit_at = [0] * (n + 1), [0] * (n + 1)
        stack, hits, components, exits, reaching = [], [], [], [], []
        count = index[0] = 1
        work = [(0, iter(range(1, n + 1)), 0)]
        while work:
            v, it, parent = work[-1]
            for w in it:
                if not index[w]:
                    count += 1
                    index[w] = low[w] = count
                    at[w], hit_at[w] = len(stack), len(hits)
                    stack.append(w)
                    work.append((w, iter(out[w - 1]), v))
                    break
                if number[w]:
                    hits.append(number[w])
                elif index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = frozenset(stack[at[v]:])
                    del stack[at[v]:]
                    exits.append(set(hits[hit_at[v]:]))
                    del hits[hit_at[v]:]
                    reaching.append(len(comp) > 1 or v in out[v - 1]
                                    or any(reaching[h - 1] for h in exits[-1]))
                    components.append(comp)
                    k = len(components)
                    for w in comp:
                        number[w] = k
                    hits.append(k)  # the tree edge into v leaves the component of its parent
                elif low[v] < low[parent]:
                    low[parent] = low[v]
        entered = set().union(*exits)
        return (components, number, exits,
                tuple(sorted((c for k, c in enumerate(components, start=1) if k not in entered),
                             key=min)),
                _merged(components, exits),
                frozenset().union(*(c for c, r in zip(components, reaching) if not r)))

    def is_cyclic_index(self, i: int) -> bool:
        """True when i lies on a closed path: its strongly connected
        component has more than one vertex, or i has a self-loop."""
        self._check_index(i)
        return len(self._component(i)) > 1 or i in self._out[i - 1]

    def cycle_of(self, i: int) -> frozenset:
        """The strongly connected component of a cyclic index i: the
        vertices mutually reachable with it."""
        if not self.is_cyclic_index(i):
            raise PreconditionError("index %d is not cyclic" % i)
        return self._component(i)

    def _component(self, i: int) -> frozenset:
        """The strongly connected component of vertex i, unchecked."""
        components, number = self._condensation[:2]
        return components[number[i] - 1]

    def _component_closure(self, component) -> frozenset:
        """forward_closure(component) for a strongly connected component,
        unchecked: the union of the components that one search over the
        exit sets of the condensation reaches from it, with no pass over
        the edges."""
        components, number, exits = self._condensation[:3]
        reached = _closure(exits, (number[next(iter(component))],))
        return frozenset().union(*(components[k - 1] for k in reached))

    def source_components(self):
        """The strongly connected components that no edge enters from
        outside, sorted by least element: every vertex is reached from one
        of them.  The cyclic ones are the principal cycles, and each other
        one is a single vertex that no edge enters, a chain start."""
        return self._condensation[3]

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
        return self._condensation[4]

    def reaches_no_cycle(self) -> frozenset:
        """The vertices from which no path reaches a cyclic vertex; a
        cyclic vertex reaches itself.  On an algebra's graph, the indices
        whose basis elements span the radical."""
        return self._condensation[5]


@_memoized
def associated_graph(algebra: EvolutionAlgebra) -> AssociatedGraph:
    """Edge i -> j present exactly when entry j of e_i^2 is nonzero; built
    once per algebra object.  The entries are canonical (every constructor
    of EvolutionAlgebra makes them so), so nonzero iff truthy, and compress
    picks the targets of each square out of 1..n, ascending and in range,
    as out-lists that the trusted constructor stores with no check."""
    vertices = range(1, algebra.dim + 1)
    return AssociatedGraph._trusted([tuple(compress(vertices, col)) for col in algebra._squares])


def witness_path(algebra: EvolutionAlgebra, i: int, j: int):
    """One shortest path i -> ... -> j (length >= 1) together with the
    nonzero product of structure constants along it, or None when j is not
    a descendent of i.  Neighbor ties break toward smaller vertices.
    """
    graph = associated_graph(algebra)
    graph._check_index(i)
    graph._check_index(j)
    # i enters parent only when a path of length >= 1 comes back to it
    parent = {}
    frontier = [i]
    while frontier and j not in parent:
        nxt = []
        for u in frontier:
            for v in graph._out[u - 1]:
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    if j not in parent:
        return None
    path = [j]
    while not (path[-1] == i and len(path) >= 2):
        path.append(parent[path[-1]])
    path.reverse()
    weight = prod(algebra._squares[a - 1][b - 1] for a, b in zip(path, path[1:]))
    return tuple(path), algebra.field.coerce(weight)
