"""The reference implementations the production paths are tested against.

Not part of :mod:`repro.api`: no entry point, CLI flag or pipeline
workload selects these. Each is the production call's own orchestration
(validation, spans, instruments, validation by simulation) with the
reference step in place of the production one:

* :func:`explore` — :func:`repro.explore.explore`'s signature; every
  design through the scalar :class:`~repro.core.mapping.DesignEvaluator`
  (``result.backend == "scalar"``, ``feasible_count`` always exact).
  Identical designs, metrics and order to branch-and-bound.
* :func:`simulate_fleet` — :func:`repro.fleet.simulate_fleet`'s
  signature; the per-event Python loop, one draw per error
  (``result.backend == "scalar"``). The same law as the chunked draws,
  not the same stream; its simulate span reports no chunks.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from repro.explore.engine import _explore, _search_scalar
from repro.fleet.engine import _simulate_fleet
from repro.fleet.simulator import FleetChunk, FleetSimulationResult, FleetSimulator

__all__ = ["explore", "simulate_fleet"]


def _draw_per_event(
    simulator: FleetSimulator, seed: int
) -> Tuple[FleetSimulationResult, List[FleetChunk]]:
    """The reference draw step: it draws no chunks."""
    return simulator._simulate_scalar(seed), []


explore = functools.partial(_explore, "scalar", _search_scalar)
simulate_fleet = functools.partial(_simulate_fleet, _draw_per_event)
