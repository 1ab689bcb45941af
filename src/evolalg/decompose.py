"""Simplicity and irreducibility decisions, the canonical covering of the
index set by principal cycles and chain-start indices, the fragmentation
process, and the resulting optimal direct-sum decomposition.

On the algebra's own cover, fragmenting the canonical parts gives the weak
components of the associated graph (every derived set is forward-closed
and weakly connected), so the blocks are read off the graph; the
fragmentation stays public as the paper's process on arbitrary covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .algebra import EvolutionAlgebra, _memoized
from .errors import PreconditionError
from .graph import AssociatedGraph, associated_graph
from .ideals import is_nondegenerate
from .linalg import Matrix, Subspace, coordinate_subspace, det

PRINCIPAL_CYCLE = "principal_cycle"
CHAIN_START = "chain_start"


@dataclass(frozen=True)
class CanonicalPart:
    kind: str        # PRINCIPAL_CYCLE or CHAIN_START
    seed: frozenset  # the cycle, or the singleton chain-start index
    derived: frozenset


@dataclass(frozen=True)
class CanonicalDecomposition:
    parts: tuple


@dataclass(frozen=True)
class Fragmentation:
    blocks: tuple        # pairwise disjoint index sets, sorted by least element
    block_members: tuple # for each block, positions of the covering sets it absorbed


@dataclass(frozen=True)
class BlockReport:
    indices: frozenset
    ideal: Subspace
    nondegenerate: bool
    simple: bool
    det: object


@dataclass(frozen=True)
class DecompositionReport:
    blocks: tuple
    algebra_nondegenerate: bool
    optimal_certified: bool


@dataclass(frozen=True)
class SimplicityResult:
    simple: bool
    reasons: tuple

    def __bool__(self):
        return self.simple


@dataclass(frozen=True)
class IrreducibilityResult:
    """Connectivity verdict; trust it as irreducibility only when conclusive
    (the algebra is non-degenerate)."""

    connected: bool
    conclusive: bool

    def __bool__(self):
        return self.connected


@_memoized
def canonical_decomposition(algebra: EvolutionAlgebra) -> CanonicalDecomposition:
    """One derived set per principal cycle and per chain-start index,
    computed once per algebra object.  For a finite index set these always
    cover everything (test_canonical_parts_are_forward_closed_and_cover)."""
    graph = associated_graph(algebra)
    parts = []
    for cycle in graph.principal_cycles():
        parts.append(CanonicalPart(PRINCIPAL_CYCLE, cycle, graph.forward_closure(cycle)))
    for i in sorted(graph.chain_start_indices()):
        parts.append(CanonicalPart(CHAIN_START, frozenset({i}),
                                   graph.forward_closure({i})))
    parts.sort(key=lambda part: min(part.seed))
    return CanonicalDecomposition(tuple(parts))


def _intersection_components(parts):
    """Connected components (by pairwise intersection) of a list of sets,
    as sorted tuples of positions."""
    m = len(parts)
    overlaps = [(a + 1, b + 1) for a in range(m) for b in range(a + 1, m)
                if parts[a] & parts[b]]
    return [tuple(x - 1 for x in sorted(component))
            for component in AssociatedGraph.from_edges(m, overlaps).weak_components()]


def _validated_parts(parts):
    parts = [frozenset(p) for p in parts]
    if not parts:
        raise ValueError("no covering sets given")
    if any(not p for p in parts):
        raise ValueError("covering sets must be non-empty")
    return parts


def is_fragmentable(parts) -> bool:
    """True when the intersection graph of the covering sets is
    disconnected, i.e. the union splits into two groups of whole sets."""
    parts = _validated_parts(parts)
    return len(_intersection_components(parts)) > 1


def optimal_fragmentation(parts) -> Fragmentation:
    """Merge the covering sets along the connected components of their
    intersection graph; no resulting block splits any further."""
    parts = _validated_parts(parts)
    blocks = []
    for members in _intersection_components(parts):
        block = frozenset().union(*(parts[x] for x in members))
        blocks.append((block, members))
    blocks.sort(key=lambda item: min(item[0]))
    return Fragmentation(tuple(b for b, _ in blocks), tuple(ms for _, ms in blocks))


def _restricted_structure(algebra, indices):
    """M_B restricted to the rows and columns in indices, a non-empty subset
    of 1..n: each row is sliced by one itemgetter, which returns a bare
    entry for a single index, and all n indices give M_B itself."""
    if len(indices) == algebra.dim:
        return algebra.structure
    idx = sorted(indices)
    entries = algebra.structure.entries
    pick = itemgetter(*(c - 1 for c in idx))
    if len(idx) == 1:
        rows = ((pick(entries[idx[0] - 1]),),)
    else:
        rows = tuple(pick(entries[r - 1]) for r in idx)
    return Matrix(len(idx), len(idx), rows)


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
    n = algebra.dim
    if n == 0:
        return DecompositionReport((), True, True)
    graph = associated_graph(algebra)
    sinks = graph.sinks()  # the indices whose square vanishes
    blocks = []
    for block in graph.weak_components():
        ideal = coordinate_subspace(f, n, block)
        block_det = det(f, _restricted_structure(algebra, block))
        nondeg = block.isdisjoint(sinks)
        # each i in the block reaches all of it iff it is one cyclic component
        simple = (not f.is_zero(block_det) and graph.is_cyclic_index(min(block))
                  and graph.cycle_of(min(block)) == block)
        blocks.append(BlockReport(block, ideal, nondeg, simple, block_det))
    nondeg = all(block.nondegenerate for block in blocks)
    return DecompositionReport(tuple(blocks), nondeg, nondeg)


def is_simple(algebra: EvolutionAlgebra) -> SimplicityResult:
    """Simplicity for finite dimension: nonsingular structure matrix and
    every index reaches every index.  Reason codes name the failing clause;
    the tests hold the verdict to rank fullness plus D(i) == Lambda.
    det(M_B) == 0 is read off the block dets of optimal_decomposition, whose
    product it is (test_decomposition_validity_random).  D(i) == Lambda
    holds just for i in the seed of a sole, principal-cycle canonical part.
    """
    n = algebra.dim
    f = algebra.field
    if n == 0:
        return SimplicityResult(False, ("zero algebra",))
    reasons = []
    if any(f.is_zero(block.det) for block in optimal_decomposition(algebra).blocks):
        reasons.append("det(M_B) == 0")
    parts = canonical_decomposition(algebra).parts
    reach_all = (parts[0].seed if len(parts) == 1 and parts[0].kind == PRINCIPAL_CYCLE
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


def simple_sum_report(algebra: EvolutionAlgebra):
    """For a non-degenerate algebra: the block partition when every block
    is simple as an algebra, else None."""
    if not is_nondegenerate(algebra):
        raise PreconditionError("simple-sum report requires a non-degenerate algebra")
    report = optimal_decomposition(algebra)
    if all(block.simple for block in report.blocks):
        return tuple(block.indices for block in report.blocks)
    return None
