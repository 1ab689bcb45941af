"""Simplicity and irreducibility decisions, the canonical covering of the
index set by principal cycles and chain-start indices, the fragmentation
process, and the resulting optimal direct-sum decomposition.

On the algebra's own cover, fragmenting the canonical parts gives the weak
components of the associated graph (every derived set is forward-closed
and weakly connected), so the blocks are read off the graph; the
fragmentation stays public as the paper's process on arbitrary covers.
Both are one merge of groups that touch: graph._merged joins each
component of the condensation to the components it exits to, and each
covering set to the first set that holds each of its elements.

Every graph fact read here comes from the one Tarjan condensation of the
associated graph, whose edge scan also records the components each
component exits to: the seeds of the canonical parts are its source
components, their derived sets are searches over those exit sets, and
the blocks are its weak components.  No decision searches the edges a
second time.

A block det is taken of the block's squares sliced to the block, the
transpose of its restriction of M_B.  An edge i -> j is a nonzero entry j
of e_i^2, so a sink of the graph is a zero row of that slice and an index
that no square involves is a zero column.  Either makes the block det 0,
and linalg.det returns that 0 before any elimination.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .algebra import EvolutionAlgebra, _memoized
from .graph import _merged, associated_graph
from .ideals import is_nondegenerate
from .linalg import Matrix, det

PRINCIPAL_CYCLE = "principal_cycle"
CHAIN_START = "chain_start"


# kind is PRINCIPAL_CYCLE or CHAIN_START; seed is the cycle, or the
# singleton chain-start index
CanonicalPart = namedtuple("CanonicalPart", "kind seed derived")
BlockReport = namedtuple("BlockReport", "indices nondegenerate simple det")
DecompositionReport = namedtuple("DecompositionReport", "blocks optimal_certified")


class SimplicityResult(namedtuple("SimplicityResult", "simple reasons")):
    __slots__ = ()

    def __bool__(self):
        return self.simple


class IrreducibilityResult(namedtuple("IrreducibilityResult", "connected conclusive")):
    """Connectivity verdict; trust it as irreducibility only when conclusive
    (the algebra is non-degenerate)."""

    __slots__ = ()

    def __bool__(self):
        return self.connected


@_memoized
def canonical_decomposition(algebra: EvolutionAlgebra) -> tuple:
    """The tuple of CanonicalParts, one derived set per principal cycle
    and per chain-start index, computed once per algebra object.  These
    seeds are the source components of the graph's condensation, in their
    order: a cyclic one is a principal cycle, any other is a vertex that
    no edge enters.  The derived set of a seed is the union of the
    components the condensation reaches from it, one search over the
    exit sets its Tarjan pass recorded (AssociatedGraph._component_closure),
    not over the edges.  For a finite index set the derived sets always
    cover everything (test_canonical_parts_are_forward_closed_and_cover)."""
    graph = associated_graph(algebra)
    return tuple(
        CanonicalPart(PRINCIPAL_CYCLE if graph.is_cyclic_index(min(seed)) else CHAIN_START,
                      seed, graph._component_closure(seed))
        for seed in graph.source_components())


def optimal_fragmentation(parts) -> tuple:
    """Merge the covering sets that overlap, directly or through a chain
    of overlapping sets: each set joins the first set that holds each of
    its elements, in one pass over their elements (graph._merged), not
    m^2 intersections.  The blocks are pairwise disjoint, sorted by least
    element, and no block splits any further."""
    parts = [frozenset(p) for p in parts]
    if not parts:
        raise ValueError("no covering sets given")
    if any(not p for p in parts):
        raise ValueError("covering sets must be non-empty")
    first = {}
    return _merged(parts, ({first.setdefault(x, k) for x in part}
                           for k, part in enumerate(parts, start=1)))


def is_fragmentable(parts) -> bool:
    """True when the union of the covering sets splits into two groups of
    whole sets, i.e. their fragmentation has more than one block."""
    return len(optimal_fragmentation(parts)) > 1


def _restricted_structure(algebra, indices):
    """The transpose of M_B restricted to the rows and columns in indices, a
    non-empty subset of 1..n, which has the same det: the squares of the
    indices, each sliced to them by one itemgetter, which returns a bare
    entry for a single index; all n indices give the squares themselves."""
    squares = algebra._squares
    k = len(indices)
    if k == algebra.dim:
        return Matrix(k, k, squares)
    idx = sorted(indices)
    pick = itemgetter(*(c - 1 for c in idx))
    if k == 1:
        rows = ((pick(squares[idx[0] - 1]),),)
    else:
        rows = tuple(pick(squares[r - 1]) for r in idx)
    return Matrix(k, k, rows)


@_memoized
def optimal_decomposition(algebra: EvolutionAlgebra) -> DecompositionReport:
    """One basis-spanned ideal per weak component of the associated graph,
    computed once per algebra object.  The weak components are the blocks
    that fragmenting the canonical parts gives: every edge lies in each
    derived set holding its source, and each derived set is weakly
    connected (test_weak_components_are_the_fragmented_canonical_parts).

    The direct sum is always valid; optimality (irreducibility of every
    block, uniqueness) is certified only for non-degenerate algebras.
    Facts true by construction are checked by test_decomposition_validity_random
    and acceptance criterion 3: the blocks span ideals (derived sets are
    closed under descendents), distinct blocks are orthogonal (distinct
    basis elements multiply to zero), and det(M_B) is the product of the
    block dets (M_B is block diagonal up to relabelling).
    """
    f = algebra.field
    graph = associated_graph(algebra)
    sinks = graph.sinks()  # the indices whose square vanishes
    blocks = []
    for block in graph.weak_components():
        block_det = det(f, _restricted_structure(algebra, block))
        nondeg = block.isdisjoint(sinks)
        # each i in the block reaches all of it iff it is one cyclic component
        simple = (bool(block_det) and graph.is_cyclic_index(min(block))
                  and graph.cycle_of(min(block)) == block)
        blocks.append(BlockReport(block, nondeg, simple, block_det))
    return DecompositionReport(tuple(blocks), all(block.nondegenerate for block in blocks))


@_memoized
def is_simple(algebra: EvolutionAlgebra) -> SimplicityResult:
    """Simplicity for finite dimension, computed once per algebra object:
    nonsingular structure matrix and every index reaches every index.
    Reason codes name the failing clause; the tests hold the verdict to
    rank fullness plus D(i) == Lambda.
    det(M_B) == 0 is read off the block dets of optimal_decomposition, whose
    product it is (test_decomposition_validity_random).  D(i) == Lambda
    is read off the condensation of the graph: every vertex is reached
    from some source component (one that no edge enters from outside),
    and no vertex outside a source component reaches it.  So the indices
    that reach everything form the sole source component when that
    component is cyclic (a principal cycle, not a chain start), and there
    are none otherwise.
    """
    n = algebra.dim
    if n == 0:
        return SimplicityResult(False, ("zero algebra",))
    reasons = []
    if not all(block.det for block in optimal_decomposition(algebra).blocks):
        reasons.append("det(M_B) == 0")
    graph = associated_graph(algebra)
    sources = graph.source_components()
    reach_all = (sources[0] if len(sources) == 1 and graph.is_cyclic_index(min(sources[0]))
                 else frozenset())
    short = next((i for i in range(1, n + 1) if i not in reach_all), None)
    if short is not None:
        reasons.append("D(%d) != Lambda" % short)
    return SimplicityResult(not reasons, tuple(reasons))


def is_irreducible(algebra: EvolutionAlgebra) -> IrreducibilityResult:
    """Connectivity of the associated graph.  Equivalent to irreducibility
    when the algebra is non-degenerate; otherwise the flag conclusive is
    False and the verdict is only the connectivity datum."""
    graph = associated_graph(algebra)
    connected = len(graph.weak_components()) <= 1
    return IrreducibilityResult(connected, is_nondegenerate(algebra))
