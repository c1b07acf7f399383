"""repro.api — the stable, versioned public surface of the framework.

Everything an application needs to characterize a workload, explore the
HRM design space, and scale the result to a datacenter fleet lives
here::

    from repro import api

    profile = api.run_campaign(api.WebSearch(), config=api.CampaignConfig(
        trials_per_cell=30), workers=4)
    result = api.explore_design_space(profile, availability_target=0.999)
    fleet = api.simulate_fleet(profile, config=api.FleetConfig(
        servers=2000, months=60))
    mix = api.optimize_fleet(profile, availability_target=0.9995)

The surface is organized into documented **tiers** (see ``API_TIERS``):

* ``entry points`` — one-call functions covering the full pipeline;
* ``configs`` — keyword-only configuration dataclasses;
* ``results`` — the value objects entry points return;
* ``registries`` — codec/kernel/backend lookup helpers;
* ``workloads`` — bundled applications and the telemetry hooks;
* ``advanced`` — the stable power-user machinery underneath.

Compatibility policy: names exported from this module are the stable
API — they keep working across internal refactors (module moves, kernel
rewrites, cache-format bumps). ``API_VERSION`` tracks surface-breaking
changes only. Deeper imports (``repro.core.campaign`` etc.) continue to
work but may shift between releases.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.apps.base import Workload
from repro.apps.graphmining import GraphMining
from repro.apps.kvstore import KVStoreWorkload
from repro.apps.websearch import WebSearch
from repro.core.availability import AvailabilityParams, ErrorRateModel
from repro.core.campaign import (
    BACKENDS as _CAMPAIGN_BACKENDS,
    DEFAULT_SPECS,
    CampaignConfig,
    CharacterizationCampaign,
    TrialRecord,
    campaign_fingerprint,
    load_or_run_profile,
)
from repro.core.cost_model import CostModel
from repro.core.mapping import DesignEvaluator, DesignMetrics, HRMDesign
from repro.core.optimizer import DEFAULT_CANDIDATES
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.explore import ExplorationResult, SimulationValidation
from repro.explore.engine import explore as _explore
from repro.ecc.base import Codec, DecodeResult, DecodeStatus
from repro.ecc.registry import (
    UnknownTechniqueError,
    available_techniques,
    make_codec,
    register_codec,
)
from repro.fleet.config import (
    AgingConfig,
    CorrelationConfig,
    FleetConfig,
    FleetDesign,
)
from repro.fleet.engine import analyze_fleet, optimize_fleet, simulate_fleet
from repro.exec.workers import resolve_workers
from repro.fleet.analytic import AnalyticFleetResult
from repro.fleet.optimizer import CompositionMetrics, FleetOptimizationResult
from repro.fleet.simulator import FleetSimulationResult
from repro.injection.injector import (
    MULTI_BIT_HARD,
    MULTI_BIT_SOFT,
    SINGLE_BIT_HARD,
    SINGLE_BIT_SOFT,
    ErrorSpec,
)
from repro.kernels.registry import available_kernels, get_kernel
from repro.obs.live import ObservabilityServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    BurnWindow,
    SloConfig,
    SloEngine,
    audit_slo,
    parse_burn_windows,
    slo_from_ledger,
)
from repro.obs.trace import NULL_OBSERVER, Observer
from repro.serve import (
    POLICY_NAMES,
    ServeConfig,
    ServeResult,
    ServeTenant,
    default_tenants,
    load_ledger,
    replay_ledger,
    run_serve,
    serve_session,
)

#: Version of the *surface* (not the package): bumped on breaking
#: changes to exported names or entry-point signatures.
API_VERSION = "10.0"

#: The documented tiers. Names within each tier are sorted; ``__all__``
#: is their concatenation (the API-surface test pins both properties).
API_TIERS: Dict[str, Tuple[str, ...]] = {
    "entry points": (
        "analyze_fleet",
        "explore_design_space",
        "load_or_run_profile",
        "optimize_fleet",
        "run_campaign",
        "simulate_fleet",
    ),
    "configs": (
        "AgingConfig",
        "AvailabilityParams",
        "BurnWindow",
        "CampaignConfig",
        "CorrelationConfig",
        "CostModel",
        "ErrorRateModel",
        "ErrorSpec",
        "FleetConfig",
        "FleetDesign",
        "ServeConfig",
        "ServeTenant",
        "SloConfig",
    ),
    "results": (
        "AnalyticFleetResult",
        "CompositionMetrics",
        "DesignMetrics",
        "ErrorOutcome",
        "ExplorationResult",
        "FleetOptimizationResult",
        "FleetSimulationResult",
        "ServeResult",
        "SimulationValidation",
        "TrialRecord",
        "VulnerabilityProfile",
    ),
    "registries": (
        "UnknownTechniqueError",
        "available_backends",
        "available_kernels",
        "available_techniques",
        "get_kernel",
        "make_codec",
        "register_codec",
    ),
    "workloads": (
        "GraphMining",
        "KVStoreWorkload",
        "MetricsRegistry",
        "NULL_OBSERVER",
        "Observer",
        "WebSearch",
        "Workload",
    ),
    "advanced": (
        "CharacterizationCampaign",
        "Codec",
        "DEFAULT_CANDIDATES",
        "DEFAULT_SPECS",
        "DecodeResult",
        "DecodeStatus",
        "DesignEvaluator",
        "HRMDesign",
        "MULTI_BIT_HARD",
        "MULTI_BIT_SOFT",
        "ObservabilityServer",
        "POLICY_NAMES",
        "SINGLE_BIT_HARD",
        "SINGLE_BIT_SOFT",
        "SloEngine",
        "audit_slo",
        "campaign_fingerprint",
        "default_tenants",
        "load_ledger",
        "parse_burn_windows",
        "replay_ledger",
        "resolve_workers",
        "run_serve",
        "serve_session",
        "slo_from_ledger",
    ),
}

__all__ = [name for tier in API_TIERS.values() for name in tier]

#: Registry of backend tuples behind :func:`available_backends`.
_BACKEND_KINDS: Dict[str, Tuple[str, ...]] = {
    "campaign": tuple(_CAMPAIGN_BACKENDS),
    # One path each: the search since 10.0 (branch-and-bound), the fleet
    # simulator since 10.0 (chunked draws), serving since 9.0
    # (ServeTenant.serve). Their oracles live in repro.oracles.
    "explore": ("auto",),
    "fleet": ("auto",),
    "serve": ("auto",),
}


def available_backends(kind: str) -> Tuple[str, ...]:
    """Execution backends accepted by one subsystem's ``backend=``.

    One helper in place of per-module constants:

    ======================  =============================================
    ``"campaign"``          :func:`run_campaign`
    ``"explore"``           ``("auto",)``: no selector since 10.0
    ``"fleet"``             ``("auto",)``: no selector since 10.0
    ``"serve"``             ``("auto",)``: no selector since 9.0
    ======================  =============================================
    """
    try:
        return _BACKEND_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown backend kind '{kind}'; "
            f"expected one of {sorted(_BACKEND_KINDS)}"
        ) from None


def run_campaign(
    workload: Workload,
    *,
    config: Optional[CampaignConfig] = None,
    observer: Observer = NULL_OBSERVER,
    backend: str = "pruned",
    regions: Optional[Sequence[str]] = None,
    specs: Sequence[ErrorSpec] = DEFAULT_SPECS,
    trials_per_cell: Optional[int] = None,
    workers: Optional[object] = None,
    workload_factory: Optional[Callable[[], Workload]] = None,
    region_codecs: Optional[Dict[str, str]] = None,
) -> VulnerabilityProfile:
    """Characterize ``workload`` in one call and return its profile.

    Wraps construct → :meth:`~CharacterizationCampaign.prepare` →
    :meth:`~CharacterizationCampaign.run`. The profile is bit-identical
    for any ``workers`` count and either ``backend``: ``"pruned"`` (the
    default) plans injections in batches, resolves footprint-decidable
    trials analytically from one golden trace and executes only what a
    fault can reach; ``"scalar"`` is the serial trial-by-trial oracle
    (``workers`` > 1 is a ``ValueError`` there). ``workers`` accepts a
    count, ``"auto"``, or ``0`` (both resolve to the usable CPU count
    with a deterministic fallback to 1). ``region_codecs`` maps region
    names to hardware codecs (e.g. ``{"heap": "SEC-DED"}``); corrected
    single-bit trials are tracked virtually instead of corrupting
    memory, on either backend.
    """
    campaign = CharacterizationCampaign(
        workload, config=config, observer=observer, backend=backend,
        region_codecs=region_codecs,
    )
    campaign.prepare()
    return campaign.run(
        regions=regions,
        specs=specs,
        trials_per_cell=trials_per_cell,
        workers=resolve_workers(workers),
        workload_factory=workload_factory,
    )


def explore_design_space(
    profile: VulnerabilityProfile,
    *,
    availability_target: float,
    error_label: str = "single-bit soft",
    recoverable_fractions: Optional[Dict[str, float]] = None,
    candidates: Sequence = DEFAULT_CANDIDATES,
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
    """Search HRM designs against a measured profile (paper §VI-B).

    Evaluates per-region policy assignments from ``candidates`` and
    returns the cheapest design meeting the availability target (and
    incorrectness budget, when given): exact branch-and-bound over the
    per-(region, candidate) contribution matrix, which visits only the
    subtrees that can hold an answer. ``repro.oracles.explore`` is the
    one-design-at-a-time oracle it is tested against; both return
    identical designs, metrics and order.

    Args:
        profile: Measured vulnerability profile to evaluate against.
        availability_target: Minimum single-server availability.
        error_label: Which characterized error type drives the rates.
        recoverable_fractions: Per-region recoverable data fraction
            (bounds what Detect&Recover policies can absorb).
        candidates: Region policies to enumerate.
        max_incorrect_per_million: Optional incorrectness budget.
        regions: Regions to assign policies to (default: all sized
            regions); a duplicate or unknown name is a ``ValueError``.
        cost_model / error_model / availability_params: Model overrides.
        top_k: When set, return only the k best feasible designs
            (memory-safe on huge spaces; ``feasible_count`` is then a
            lower bound); when ``None``, every feasible design, in the
            same order.
        simulate_months: When > 0, Monte Carlo-validate the winner over
            this many server-months (``result.simulation``).
        simulation_seed: Seed for the validation simulation.
        observer: Receives ``explore`` spans and the
            designs-evaluated / pruned instruments when enabled.
    """
    return _explore(
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
