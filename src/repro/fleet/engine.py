"""One-call fleet entry points behind :mod:`repro.api`.

:func:`simulate_fleet` composes a fleet (designs × composition ×
config), runs the Monte Carlo simulator, and returns its
:class:`~repro.fleet.simulator.FleetSimulationResult`;
:func:`analyze_fleet` evaluates the same layout analytically;
:func:`optimize_fleet` searches fractional compositions for the
cheapest fleet meeting an availability target. All three accept
``designs`` as :class:`~repro.core.mapping.HRMDesign` or
:class:`~repro.fleet.config.FleetDesign` (defaulting to the paper's
five Table 6 design points) and resolve missing ``server_cost_savings``
through the standard :class:`~repro.core.mapping.DesignEvaluator`.

Backend convention: ``auto`` is the chunked NumPy simulator; ``scalar``
names the per-event reference.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.core.availability import AvailabilityParams, ErrorRateModel
from repro.core.cost_model import CostModel
from repro.core.mapping import DesignEvaluator, HRMDesign, paper_design_points
from repro.core.vulnerability import VulnerabilityProfile
from repro.fleet.analytic import (
    AnalyticFleetModel,
    AnalyticFleetResult,
    CompositionGrid,
)
from repro.fleet.config import FleetConfig, FleetDesign, apportion_servers
from repro.fleet.layout import FleetLayout
from repro.fleet.optimizer import FleetOptimizationResult, FleetOptimizer
from repro.fleet.simulator import FleetSimulationResult, FleetSimulator
from repro.obs.events import SPAN_FLEET, SPAN_FLEET_PHASE
from repro.obs.instruments import FleetInstruments
from repro.obs.trace import NULL_OBSERVER, Observer

__all__ = [
    "FLEET_BACKENDS",
    "analyze_fleet",
    "optimize_fleet",
    "simulate_fleet",
]

#: Backends accepted by :func:`simulate_fleet`.
FLEET_BACKENDS = ("auto", "scalar")

DesignLike = Union[FleetDesign, HRMDesign]


def _resolve_designs(
    profile: VulnerabilityProfile,
    designs: Optional[Sequence[DesignLike]],
    cost_model: Optional[CostModel],
    error_model: Optional[ErrorRateModel],
    availability_params: Optional[AvailabilityParams],
    error_label: str,
    region_sizes: Optional[Mapping[str, int]],
) -> List[FleetDesign]:
    """Normalize to FleetDesigns with resolved cost savings."""
    if designs is None:
        regions = sorted(
            region_sizes if region_sizes is not None else profile.region_sizes
        )
        designs = paper_design_points(regions)
    evaluator: Optional[DesignEvaluator] = None
    resolved: List[FleetDesign] = []
    for design in designs:
        if isinstance(design, FleetDesign):
            if design.server_cost_savings is not None:
                resolved.append(design)
                continue
            name, policies = design.name, design.policies
        else:
            name, policies = design.name, design.policies
        if evaluator is None:
            evaluator = DesignEvaluator(
                profile,
                cost_model=cost_model,
                error_model=error_model,
                availability_params=availability_params,
                error_label=error_label,
                region_sizes=region_sizes,
            )
        metrics = evaluator.evaluate(HRMDesign(name, policies))
        resolved.append(
            FleetDesign(
                name=name,
                policies=policies,
                server_cost_savings=metrics.server_cost_savings,
            )
        )
    return resolved


def _resolve_composition(
    designs: Sequence[FleetDesign],
    composition: Optional[Mapping[str, float]],
    servers: int,
) -> Dict[str, int]:
    """Fractions -> server counts (uniform split when unspecified)."""
    names = [design.name for design in designs]
    if composition is None:
        fractions = {name: 1.0 / len(names) for name in names}
    else:
        unknown = set(composition) - set(names)
        if unknown:
            raise ValueError(
                f"composition names unknown designs: {sorted(unknown)}"
            )
        fractions = {name: composition.get(name, 0.0) for name in names}
    return dict(apportion_servers(servers, fractions))


def simulate_fleet(
    profile: VulnerabilityProfile,
    *,
    designs: Optional[Sequence[DesignLike]] = None,
    composition: Optional[Mapping[str, float]] = None,
    config: Optional[FleetConfig] = None,
    seed: int = 0,
    backend: str = "auto",
    observer: Observer = NULL_OBSERVER,
    cost_model: Optional[CostModel] = None,
    error_model: Optional[ErrorRateModel] = None,
    availability_params: Optional[AvailabilityParams] = None,
    error_label: str = "single-bit soft",
    region_sizes: Optional[Mapping[str, int]] = None,
) -> FleetSimulationResult:
    """Monte Carlo-simulate a heterogeneous fleet (one call).

    Args:
        profile: Measured vulnerability profile driving per-region
            crash/incorrectness probabilities.
        designs: HRM designs deployable in the fleet (``HRMDesign`` or
            ``FleetDesign``; default: the five Table 6 design points).
        composition: Design name -> fraction of servers (summing to 1;
            default: uniform). Fractions become server counts by
            largest-remainder apportionment.
        config: Fleet shape (:class:`FleetConfig`): size, horizon,
            demand headroom, aging, correlation, repair cadence.
        seed: Root seed; results are byte-identical across runs.
        backend: ``auto`` / ``scalar``; ``result.backend`` names what
            ran (``vectorized`` or ``scalar``).
        observer: Receives ``fleet`` spans and fleet instruments.
        cost_model / error_model / availability_params: Model overrides.
        error_label: Which characterized error type drives the rates.
        region_sizes: Region size overrides (default: profiled sizes).
    """
    if backend not in FLEET_BACKENDS:
        raise ValueError(
            f"unknown backend '{backend}'; expected one of {FLEET_BACKENDS}"
        )
    config = config or FleetConfig()
    instruments = (
        FleetInstruments(observer.metrics)
        if observer.metrics is not None
        else None
    )
    with observer.span(SPAN_FLEET, key="simulate") as span:
        with observer.span(SPAN_FLEET_PHASE, key="layout"):
            fleet_designs = _resolve_designs(
                profile,
                designs,
                cost_model,
                error_model,
                availability_params,
                error_label,
                region_sizes,
            )
            counts = _resolve_composition(
                fleet_designs, composition, config.servers
            )
            layout = FleetLayout(
                profile,
                fleet_designs,
                counts,
                config,
                error_model=error_model,
                error_label=error_label,
                region_sizes=region_sizes,
            )
        with observer.span(SPAN_FLEET_PHASE, key="simulate"):
            simulator = FleetSimulator(layout, params=availability_params)
            result = simulator.simulate(seed=seed, backend=backend)
        if instruments is not None:
            instruments.record_simulation(result)
        # Which rows the chunks drew, and the guard that decided it: the
        # largest bound over the chunks, as log10 of a probability (None
        # when nothing in the configuration can add downtime at all).
        chunks = simulator.chunks if backend == "auto" else []
        aggregated = sum(chunk.aggregated for chunk in chunks)
        bound = max(
            (chunk.clip_ln_bound for chunk in chunks), default=-math.inf
        )
        span.set(
            backend=result.backend,
            servers=result.servers,
            months=result.months,
            fleet_availability=result.mean_fleet_availability,
            aggregated_chunks=aggregated,
            per_server_chunks=len(chunks) - aggregated,
            clip_log10_bound=(
                None if bound == -math.inf else bound / math.log(10.0)
            ),
        )
    return result


def analyze_fleet(
    profile: VulnerabilityProfile,
    *,
    designs: Optional[Sequence[DesignLike]] = None,
    composition: Optional[Mapping[str, float]] = None,
    config: Optional[FleetConfig] = None,
    observer: Observer = NULL_OBSERVER,
    cost_model: Optional[CostModel] = None,
    error_model: Optional[ErrorRateModel] = None,
    availability_params: Optional[AvailabilityParams] = None,
    error_label: str = "single-bit soft",
    region_sizes: Optional[Mapping[str, int]] = None,
) -> AnalyticFleetResult:
    """Closed-form counterpart of :func:`simulate_fleet` (same layout)."""
    config = config or FleetConfig()
    with observer.span(SPAN_FLEET, key="analyze"):
        fleet_designs = _resolve_designs(
            profile,
            designs,
            cost_model,
            error_model,
            availability_params,
            error_label,
            region_sizes,
        )
        counts = _resolve_composition(
            fleet_designs, composition, config.servers
        )
        layout = FleetLayout(
            profile,
            fleet_designs,
            counts,
            config,
            error_model=error_model,
            error_label=error_label,
            region_sizes=region_sizes,
        )
        return AnalyticFleetModel(
            layout, params=availability_params
        ).evaluate()


def optimize_fleet(
    profile: VulnerabilityProfile,
    *,
    designs: Optional[Sequence[DesignLike]] = None,
    config: Optional[FleetConfig] = None,
    availability_target: float = 0.99,
    step: float = 0.1,
    observer: Observer = NULL_OBSERVER,
    cost_model: Optional[CostModel] = None,
    error_model: Optional[ErrorRateModel] = None,
    availability_params: Optional[AvailabilityParams] = None,
    error_label: str = "single-bit soft",
    region_sizes: Optional[Mapping[str, int]] = None,
) -> FleetOptimizationResult:
    """Search fractional fleet compositions for the cheapest feasible
    mix (cost-savings vs availability Pareto front included).

    Args:
        profile: Measured vulnerability profile.
        designs: Candidate designs (default: Table 6 design points).
        config: Fleet shape shared by every candidate composition.
        availability_target: Minimum mean routed fleet availability.
        step: Simplex granularity (0.1 -> multiples of 10%).
        observer: Receives ``fleet`` spans and fleet instruments.
        cost_model / error_model / availability_params: Model overrides.
        error_label: Which characterized error type drives the rates.
        region_sizes: Region size overrides (default: profiled sizes).
    """
    config = config or FleetConfig()
    instruments = (
        FleetInstruments(observer.metrics)
        if observer.metrics is not None
        else None
    )
    with observer.span(SPAN_FLEET, key="optimize") as span:
        with observer.span(SPAN_FLEET_PHASE, key="grid"):
            fleet_designs = _resolve_designs(
                profile,
                designs,
                cost_model,
                error_model,
                availability_params,
                error_label,
                region_sizes,
            )
            grid = CompositionGrid(
                profile,
                fleet_designs,
                config,
                params=availability_params,
                error_model=error_model,
                error_label=error_label,
                region_sizes=region_sizes,
            )
        with observer.span(SPAN_FLEET_PHASE, key="search"):
            result = FleetOptimizer(
                grid, availability_target=availability_target
            ).search(step=step)
        if instruments is not None:
            instruments.record_optimization(result)
        span.set(
            evaluated=result.evaluated,
            scored=result.scored,
            skipped_at_ceiling=result.skipped_at_ceiling,
            distinct_blocks=result.distinct_blocks,
            found=result.best is not None,
            mixed_dominates_singles=result.mixed_dominates_singles,
        )
    return result
