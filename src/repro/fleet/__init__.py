"""Fleet-scale availability: simulate, analyze, and optimize a
datacenter of heterogeneous-reliability servers (paper §VII at scale).

Layers (each usable on its own):

* :mod:`repro.fleet.config` — kw-only configs: fleet shape, DRAM aging
  curves, correlated-failure structure, deployable designs;
* :mod:`repro.fleet.layout` — the deterministic fleet structure shared
  by simulator and analytic model (design blocks, staggered ages,
  bad-DIMM batches, refurbishment months);
* :mod:`repro.fleet.simulator` — batched Monte Carlo over servers ×
  months (chunked NumPy draws; the per-event reference is
  :func:`repro.oracles.simulate_fleet`), byte-identical across runs of
  one seed;
* :mod:`repro.fleet.analytic` — exact downtime moments plus
  normal-approximated routed availability; cross-validates the MC;
* :mod:`repro.fleet.optimizer` — fractional-composition search against
  a fleet availability target (Pareto front, single-design baselines);
* :mod:`repro.fleet.engine` — the one-call entry points re-exported by
  :mod:`repro.api`.
"""

from repro.fleet.analytic import (
    AnalyticFleetModel,
    AnalyticFleetResult,
    CompositionGrid,
    analytic_matches_simulation,
    ci_contains,
)
from repro.fleet.config import (
    CORRELATION_MODES,
    AgingConfig,
    CorrelationConfig,
    FleetConfig,
    FleetDesign,
    apportion_servers,
)
from repro.fleet.engine import analyze_fleet, optimize_fleet, simulate_fleet
from repro.fleet.layout import DesignBlock, FleetLayout, RegionTable
from repro.fleet.optimizer import (
    CompositionMetrics,
    FleetOptimizationResult,
    FleetOptimizer,
)
from repro.fleet.simulator import FleetSimulationResult, FleetSimulator

__all__ = [
    "AgingConfig",
    "AnalyticFleetModel",
    "AnalyticFleetResult",
    "CORRELATION_MODES",
    "CompositionGrid",
    "CompositionMetrics",
    "CorrelationConfig",
    "DesignBlock",
    "FleetConfig",
    "FleetDesign",
    "FleetLayout",
    "FleetOptimizationResult",
    "FleetOptimizer",
    "FleetSimulationResult",
    "FleetSimulator",
    "RegionTable",
    "analytic_matches_simulation",
    "analyze_fleet",
    "apportion_servers",
    "ci_contains",
    "optimize_fleet",
    "simulate_fleet",
]
