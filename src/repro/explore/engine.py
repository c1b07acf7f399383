"""Design-space exploration orchestration: search, top-k, validation.

:func:`explore` is the one design-space search of the framework, behind
``repro.api.explore_design_space``, ``repro explore`` and every caller
that wants "the cheapest design meeting a target" (``repro design
--target``, the tenancy provisioner):

1. specialize the candidates per region (recoverable fractions bound
   into RECOVER policies);
2. search — build a :class:`~repro.explore.matrix.ContributionMatrix`
   and run exact branch-and-bound over it (reported as
   ``branch-and-bound``): it visits only the subtrees that can hold an
   answer;
3. optionally validate the winner with a Monte Carlo simulation (the
   fleet engine's one-server case) and report percentile confidence
   bounds next to the analytic prediction.

The oracle, one :class:`~repro.core.mapping.DesignEvaluator` evaluation
per design, is :func:`repro.oracles.explore`: the same orchestration
with :func:`_search_scalar` as the search step. Both return identical
designs, metrics and order.

``top_k``: when set, ``feasible`` holds just the k best designs —
branch-and-bound finds them after evaluating a few dozen of millions of
designs. When ``None``, ``feasible`` is every feasible design in the
same order; branch-and-bound then cuts only the subtrees that cannot be
feasible and materializes one row per feasible design, which is what
that answer costs on any path.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.availability import AvailabilityParams, ErrorRateModel
from repro.core.cost_model import CostModel
from repro.core.design_space import RegionPolicy
from repro.core.mapping import DesignEvaluator, DesignMetrics, HRMDesign
from repro.core.optimizer import DEFAULT_CANDIDATES
from repro.core.vulnerability import VulnerabilityProfile
from repro.explore.matrix import ContributionMatrix, specialize_candidates
from repro.explore.search import BranchAndBoundSearcher
from repro.obs.events import SPAN_EXPLORE, SPAN_EXPLORE_PHASE
from repro.obs.instruments import ExplorationInstruments
from repro.obs.trace import NULL_OBSERVER, Observer
from repro.utils.validation import check_fraction

__all__ = [
    "ExplorationResult",
    "SimulationValidation",
    "explore",
]

#: A search step: ``(evaluator, regions, specialized, availability_target,
#: max_incorrect_per_million, top_k, observer) -> ExplorationResult``.
SearchStep = Callable[..., "ExplorationResult"]


@dataclass
class SimulationValidation:
    """Monte Carlo cross-check of the analytic winner."""

    design_name: str
    months: int
    seed: int
    mean_availability: float
    analytic_availability: float
    mean_crashes: float
    analytic_crashes: float
    #: Availability at the 5th / 50th / 95th percentile of months.
    percentiles: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable form (CLI ``--json`` output)."""
        return {
            "design": self.design_name,
            "months": self.months,
            "seed": self.seed,
            "mean_availability": self.mean_availability,
            "analytic_availability": self.analytic_availability,
            "mean_crashes": self.mean_crashes,
            "analytic_crashes": self.analytic_crashes,
            "percentiles": dict(self.percentiles),
        }


@dataclass
class ExplorationResult:
    """Outcome of a design-space search."""

    #: The cheapest feasible design (``feasible[0]``), if any.
    best: Optional[DesignMetrics]
    #: Feasible designs ordered by (-savings, -availability, name,
    #: assignment id): all of them, or the k best under ``top_k``.
    feasible: List[DesignMetrics]
    #: Designs whose exact metrics were computed.
    evaluated: int
    #: The path that ran: ``branch-and-bound`` or ``scalar``.
    backend: str = "scalar"
    #: Size of the full assignment space.
    total_designs: int = 0
    #: Feasible designs in the whole space when
    #: :attr:`feasible_count_exact`; otherwise ``len(feasible)``, a
    #: lower bound — branch-and-bound never counts what a top-k cut
    #: removed.
    feasible_count: int = 0
    feasible_count_exact: bool = True
    #: Designs eliminated by branch-and-bound pruning (0 for the
    #: oracle); ``evaluated + pruned == total_designs``.
    pruned: int = 0
    pruned_by: Dict[str, int] = field(default_factory=dict)
    simulation: Optional[SimulationValidation] = None

    @property
    def found(self) -> bool:
        """Whether any design met the constraints."""
        return self.best is not None


def explore(
    profile: VulnerabilityProfile,
    *,
    availability_target: float,
    error_label: str = "single-bit soft",
    recoverable_fractions: Optional[Dict[str, float]] = None,
    candidates: Sequence[RegionPolicy] = DEFAULT_CANDIDATES,
    max_incorrect_per_million: Optional[float] = None,
    regions: Optional[Sequence[str]] = None,
    cost_model: Optional[CostModel] = None,
    error_model: Optional[ErrorRateModel] = None,
    availability_params: Optional[AvailabilityParams] = None,
    top_k: Optional[int] = None,
    simulate_months: int = 0,
    simulation_seed: int = 0,
    observer: Observer = NULL_OBSERVER,
) -> ExplorationResult:
    """Search the HRM design space; optionally validate by simulation.

    Exact branch-and-bound for every ``top_k`` (``None`` = the full
    feasible list); :func:`repro.oracles.explore` is the exhaustive
    oracle it is tested against.
    """
    return _explore(
        "branch-and-bound",
        _search_branch_and_bound,
        profile,
        availability_target=availability_target,
        error_label=error_label,
        recoverable_fractions=recoverable_fractions,
        candidates=candidates,
        max_incorrect_per_million=max_incorrect_per_million,
        regions=regions,
        cost_model=cost_model,
        error_model=error_model,
        availability_params=availability_params,
        top_k=top_k,
        simulate_months=simulate_months,
        simulation_seed=simulation_seed,
        observer=observer,
    )


def _explore(
    resolved: str,
    search: SearchStep,
    profile: VulnerabilityProfile,
    *,
    availability_target: float,
    error_label: str = "single-bit soft",
    recoverable_fractions: Optional[Dict[str, float]] = None,
    candidates: Sequence[RegionPolicy] = DEFAULT_CANDIDATES,
    max_incorrect_per_million: Optional[float] = None,
    regions: Optional[Sequence[str]] = None,
    cost_model: Optional[CostModel] = None,
    error_model: Optional[ErrorRateModel] = None,
    availability_params: Optional[AvailabilityParams] = None,
    top_k: Optional[int] = None,
    simulate_months: int = 0,
    simulation_seed: int = 0,
    observer: Observer = NULL_OBSERVER,
) -> ExplorationResult:
    """:func:`explore` with ``search`` (named ``resolved`` in spans and
    instruments) as its search step."""
    check_fraction("availability_target", availability_target)
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    if simulate_months < 0:
        raise ValueError(f"simulate_months must be >= 0, got {simulate_months}")
    evaluator = DesignEvaluator(
        profile,
        cost_model=cost_model,
        error_model=error_model,
        availability_params=availability_params,
        error_label=error_label,
    )
    if regions is None:
        regions = sorted(evaluator.region_sizes)
    _check_regions(profile, regions)
    specialized = specialize_candidates(regions, candidates, recoverable_fractions)
    instruments = (
        ExplorationInstruments(observer.metrics)
        if observer.metrics is not None
        else None
    )
    with observer.span(SPAN_EXPLORE, key=resolved) as span:
        result = search(
            evaluator,
            regions,
            specialized,
            availability_target,
            max_incorrect_per_million,
            top_k,
            observer,
        )
        if instruments is not None:
            instruments.record_search(
                backend=resolved,
                evaluated=result.evaluated,
                feasible=result.feasible_count,
                total_designs=result.total_designs,
                pruned_by=result.pruned_by,
            )
        if simulate_months and result.found:
            with observer.span(SPAN_EXPLORE_PHASE, key="simulate"):
                result.simulation = _validate_by_simulation(
                    profile,
                    evaluator,
                    result.best,
                    months=simulate_months,
                    seed=simulation_seed,
                )
        span.set(
            backend=resolved,
            evaluated=result.evaluated,
            pruned=result.pruned,
            feasible=result.feasible_count,
            found=result.found,
        )
    return result


def _check_regions(profile: VulnerabilityProfile, regions: Sequence[str]) -> None:
    """Reject region names a search would silently miscount.

    A name listed twice is one region to the oracle's policy dict and
    two to the matrix; a name the profile has neither a size nor a cell
    for plans a phantom region in place of the one that was meant.
    """
    known = set(profile.region_sizes) | set(profile.regions())
    seen = set()
    for region in regions:
        if region in seen:
            raise ValueError(f"region '{region}' is listed more than once")
        if region not in known:
            raise ValueError(
                f"unknown region '{region}'; the profile has {sorted(known)}"
            )
        seen.add(region)


def _search_branch_and_bound(
    evaluator: DesignEvaluator,
    regions: Sequence[str],
    specialized: Sequence[Tuple[RegionPolicy, ...]],
    availability_target: float,
    max_incorrect_per_million: Optional[float],
    top_k: Optional[int],
    observer: Observer,
) -> ExplorationResult:
    with observer.span(SPAN_EXPLORE_PHASE, key="matrix"):
        matrix = ContributionMatrix.build(evaluator, regions, specialized)
    with observer.span(SPAN_EXPLORE_PHASE, key="search"):
        bounded = BranchAndBoundSearcher(matrix).search(
            availability_target,
            max_incorrect_per_million=max_incorrect_per_million,
            top_k=top_k,
        )
    return ExplorationResult(
        best=bounded.top[0] if bounded.top else None,
        feasible=bounded.top,
        evaluated=bounded.evaluated,
        backend="branch-and-bound",
        total_designs=bounded.total_designs,
        feasible_count=len(bounded.top),
        feasible_count_exact=top_k is None,
        pruned=bounded.pruned,
        pruned_by=bounded.pruned_by,
    )


def _search_scalar(
    evaluator: DesignEvaluator,
    regions: Sequence[str],
    specialized: Sequence[Tuple[RegionPolicy, ...]],
    availability_target: float,
    max_incorrect_per_million: Optional[float],
    top_k: Optional[int],
    observer: Observer,
) -> ExplorationResult:
    """The oracle: every design through the scalar evaluator.

    One enumeration serves both answers — the full feasible list
    (a stable sort, so full ties keep assignment-id order) and the k
    best (``heapq.nsmallest``, the same order in O(k) memory, which
    keeps the oracle runnable on the spaces the benchmark times).
    """
    evaluated = 0
    feasible_count = 0

    def feasible() -> Iterator[DesignMetrics]:
        nonlocal evaluated, feasible_count
        for assignment in itertools.product(*specialized):
            design = HRMDesign(
                name="+".join(policy.describe() for policy in assignment),
                policies=dict(zip(regions, assignment)),
            )
            metrics = evaluator.evaluate(design)
            evaluated += 1
            if metrics.availability < availability_target:
                continue
            if (
                max_incorrect_per_million is not None
                and metrics.incorrect_per_million_queries > max_incorrect_per_million
            ):
                continue
            feasible_count += 1
            yield metrics

    with observer.span(SPAN_EXPLORE_PHASE, key="search"):
        if top_k is None:
            ranked = sorted(feasible(), key=_result_order_key)
        else:
            ranked = heapq.nsmallest(top_k, feasible(), key=_result_order_key)
    return ExplorationResult(
        best=ranked[0] if ranked else None,
        feasible=ranked,
        evaluated=evaluated,
        backend="scalar",
        total_designs=evaluated,
        feasible_count=feasible_count,
    )


def _result_order_key(metrics: DesignMetrics):
    return (
        -metrics.server_cost_savings,
        -metrics.availability,
        metrics.design.name,
    )


def _validate_by_simulation(
    profile: VulnerabilityProfile,
    evaluator: DesignEvaluator,
    best: DesignMetrics,
    *,
    months: int,
    seed: int,
) -> SimulationValidation:
    # Imported here: repro.cluster reaches repro.fleet, whose optimizer
    # imports this package, and repro.cluster.tenancy imports it too.
    from repro.cluster.availability_sim import AvailabilitySimulator

    simulator = AvailabilitySimulator(
        profile,
        best.design.policies,
        error_model=evaluator.error_model,
        params=evaluator.availability_params,
        error_label=evaluator.error_label,
        region_sizes=evaluator.region_sizes,
    )
    summary = simulator.simulate(months, seed=seed)
    return SimulationValidation(
        design_name=best.design.name,
        months=months,
        seed=seed,
        mean_availability=summary.mean_availability,
        analytic_availability=best.availability,
        mean_crashes=summary.mean_crashes,
        analytic_crashes=best.crashes_per_month,
        percentiles={
            "p5": summary.availability_percentile(5),
            "p50": summary.availability_percentile(50),
            "p95": summary.availability_percentile(95),
        },
    )
