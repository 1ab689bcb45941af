"""Exact-arithmetic analysis of finite-dimensional evolution algebras.

An evolution algebra is a commutative algebra with a basis whose distinct
elements multiply to zero, so the whole product is pinned down by the
basis squares, i.e. by a structure matrix.  This package computes the
graph-theoretic invariants of such an algebra (descendents, cycles,
principal cycles, chain-start indices), its algebraic invariants
(annihilator, absorption radical, generated ideals, quotients), decides
simplicity and irreducibility, and produces the optimal direct-sum
decomposition, whose blocks are the weak components of the graph.
"""

from types import ModuleType as _ModuleType

from .algebra import EvolutionAlgebra, algebra_from_graph
from .decompose import (DecompositionReport, canonical_decomposition,
                        is_fragmentable, is_irreducible, is_simple,
                        optimal_decomposition, optimal_fragmentation)
from .errors import (BudgetExceededError, DimensionError, EvolAlgError,
                     FieldError, InternalConsistencyError, ParseError,
                     PreconditionError)
from .fields import GF, QQ, PrimeField, Rationals
from .graph import AssociatedGraph, associated_graph, witness_path
from .ideals import (QuotientPresentation, absorption_preimage, annihilator,
                     has_absorption_property, ideal_closure,
                     ideal_generated_by, ideal_generated_by_square, is_ideal,
                     is_nondegenerate, lambda_x, mu_n, quotient, radical)
from .linalg import (Matrix, Subspace, det, full_subspace, rref,
                     subspace_equal, subspace_from_vectors,
                     subspace_intersection, subspace_sum, zero_subspace)
from .oracle import (ClassicalChecks, absorption_oracle, classical_checks,
                     enumerate_ideals, enumerate_subspaces, radical_oracle,
                     simple_oracle)

__version__ = "0.1.0"

# the exported names are those the imports above bind, less the submodules
# that importing them binds as a side effect
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
