"""Design-space exploration (paper §VI, Figure 7, Table 6 scale-up).

Evaluating a heterogeneous-reliability-memory design is additive over
regions, so the whole ``candidates^regions`` assignment space can be
explored from a per-(region, candidate) contribution matrix instead of
one scalar evaluation per design:

* :mod:`repro.explore.matrix` — the contribution table (pure Python,
  scalar-oracle bit-identical) and the per-region candidate
  specialization it is built from;
* :mod:`repro.explore.search` — exact branch-and-bound, top-k or the
  full feasible list, with admissible per-region bounds and dominance
  pruning: the production search;
* :mod:`repro.explore.batch` — NumPy chunked evaluation over
  assignment-id ranges and :func:`pareto_front` on top of it;
* :mod:`repro.explore.pareto` — the O(n log n) sort-based front sweep;
* :mod:`repro.explore.engine` — :func:`explore`, the one design-space
  search (``repro.api.explore_design_space``, ``repro explore``,
  ``repro design --target``, the tenancy provisioner): branch-and-bound,
  tested against the scalar oracle :func:`repro.oracles.explore`. Its
  Monte Carlo validation of a winner is the fleet engine's one-server
  case (:class:`repro.cluster.AvailabilitySimulator`).
"""

from repro.explore.batch import BatchDesignSpaceEvaluator, pareto_front
from repro.explore.engine import ExplorationResult, SimulationValidation, explore
from repro.explore.matrix import ContributionMatrix, specialize_candidates
from repro.explore.pareto import pareto_indices
from repro.explore.search import BranchAndBoundResult, BranchAndBoundSearcher

__all__ = [
    "ExplorationResult",
    "SimulationValidation",
    "explore",
    "ContributionMatrix",
    "specialize_candidates",
    "pareto_front",
    "pareto_indices",
    "BranchAndBoundResult",
    "BranchAndBoundSearcher",
    "BatchDesignSpaceEvaluator",
]
