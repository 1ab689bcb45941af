"""The directed graph attached to an evolution algebra and its reachability
machinery.

Vertex i stands for basis index i (1-based throughout); there is an edge
i -> j exactly when e_j occurs with nonzero coefficient in e_i^2, so
"descendent" literally means "reachable by a path of length >= 1".
Weights are dropped here; witness_path recovers them from the algebra.
"""

from __future__ import annotations

from .algebra import EvolutionAlgebra, _memoized
from .errors import PreconditionError


class AssociatedGraph:
    """Immutable digraph on {1..n}; reachability closures are computed once
    on first use and cached."""

    def __init__(self, out_edges):
        out = []
        n = len(out_edges)
        for targets in out_edges:
            ts = frozenset(targets)
            for t in ts:
                if not 1 <= t <= n:
                    raise IndexError("edge target %d outside 1..%d" % (t, n))
            out.append(ts)
        self.n = n
        self._out = tuple(out)
        self._desc = None
        self._asc = None

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

    def adjacency_matrix(self):
        """Rows of 0/1 ints: entry (i, j) is 1 exactly when i+1 -> j+1."""
        return tuple(tuple(1 if j + 1 in self._out[i] else 0 for j in range(self.n))
                     for i in range(self.n))

    def _reach_from(self, i: int) -> frozenset:
        seen = set()
        frontier = list(self._out[i - 1])
        while frontier:
            v = frontier.pop()
            if v in seen:
                continue
            seen.add(v)
            frontier.extend(self._out[v - 1] - seen)
        return frozenset(seen)

    def _descendent_closure(self):
        if self._desc is None:
            self._desc = tuple(self._reach_from(i) for i in range(1, self.n + 1))
        return self._desc

    def _ascendent_closure(self):
        if self._asc is None:
            desc = self._descendent_closure()
            self._asc = tuple(frozenset(j for j in range(1, self.n + 1) if i in desc[j - 1])
                              for i in range(1, self.n + 1))
        return self._asc

    def descendents(self, i: int) -> frozenset:
        """All vertices reachable from i by a path of length >= 1."""
        self._check_index(i)
        return self._descendent_closure()[i - 1]

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
        """All j with i in descendents(j)."""
        self._check_index(i)
        return self._ascendent_closure()[i - 1]

    def is_cyclic_index(self, i: int) -> bool:
        """True when i lies on a closed path, i.e. i in descendents(i)."""
        return i in self.descendents(i)

    def cycle_of(self, i: int) -> frozenset:
        """Vertices mutually reachable with a cyclic index i."""
        if not self.is_cyclic_index(i):
            raise PreconditionError("index %d is not cyclic" % i)
        desc = self._descendent_closure()
        return frozenset(j for j in desc[i - 1] if i in desc[j - 1])

    def is_principal_cyclic(self, i: int) -> bool:
        """True when every ascendent of the cyclic index i already sits in
        its cycle."""
        return self.ascendents(i) <= self.cycle_of(i)

    def principal_cycles(self):
        """Distinct cycles of principal cyclic indices, pairwise disjoint,
        sorted by least element."""
        cycles = {}
        for i in range(1, self.n + 1):
            if self.is_cyclic_index(i) and self.is_principal_cyclic(i):
                c = self.cycle_of(i)
                cycles[min(c)] = c
        return tuple(cycles[k] for k in sorted(cycles))

    def chain_start_indices(self) -> frozenset:
        """Vertices with no ascendents (sources)."""
        asc = self._ascendent_closure()
        return frozenset(i for i in range(1, self.n + 1) if not asc[i - 1])

    def sinks(self) -> frozenset:
        return frozenset(i for i in range(1, self.n + 1) if not self._out[i - 1])

    def weak_components(self):
        """Partition of {1..n} into components of the underlying undirected
        graph, sorted by least element."""
        parent = list(range(self.n + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(1, self.n + 1):
            for j in self._out[i - 1]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
        groups = {}
        for i in range(1, self.n + 1):
            groups.setdefault(find(i), set()).add(i)
        comps = {min(g): frozenset(g) for g in groups.values()}
        return tuple(comps[k] for k in sorted(comps))


@_memoized
def associated_graph(algebra: EvolutionAlgebra) -> AssociatedGraph:
    """Edge i -> j present exactly when the structure entry (j, i) is
    nonzero; built once per algebra object."""
    f = algebra.field
    n = algebra.dim
    out = []
    for i in range(1, n + 1):
        col = algebra.square_of_basis(i)
        out.append([k + 1 for k in range(n) if not f.is_zero(col[k])])
    return AssociatedGraph(out)


def chain_start_indices(source) -> frozenset:
    """Chain-start indices of a graph or of an algebra.

    On a graph this asks for empty ascendent sets; on an algebra it reads
    off the all-zero rows of the structure matrix.  Both routes agree.
    """
    if isinstance(source, EvolutionAlgebra):
        f = source.field
        return frozenset(i for i in range(1, source.dim + 1)
                         if all(f.is_zero(x) for x in source.structure.row(i - 1)))
    return source.chain_start_indices()


def strongly_connected_components(graph: AssociatedGraph):
    """Tarjan's algorithm, iterative; components sorted by least element.

    Kept as an independent route for cross-checking cycle_of, which uses
    pairwise reachability instead.
    """
    n = graph.n
    index = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]

    for root in range(1, n + 1):
        if root in index:
            continue
        work = [(root, iter(sorted(graph.out_edges(root))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.out_edges(w)))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
    return tuple(sorted(components, key=min))


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
    f = algebra.field
    weight = f.one
    for a, b in zip(path, path[1:]):
        weight = f.mul(weight, algebra.structure.entries[b - 1][a - 1])
    return tuple(path), weight
