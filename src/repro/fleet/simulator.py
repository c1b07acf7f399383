"""Monte Carlo fleet availability simulation (servers × months).

Every server runs one HRM design, carries a deterministic device age
(staggered deployment, rolling refurbishment) and an optional
bad-DIMM-batch multiplier, and the fleet additionally absorbs
*correlated* shared-rank/row shock events that hit whole cohorts within
a month. Traffic routes around downtime: demand is a fraction of total
capacity and surviving servers absorb failed-over load until the
headroom is gone, so fleet availability is ``served / demand`` — a
nonlinear function of composition the mixed-fleet optimizer exploits.

Draw schedule. An error is corrected, recovered, crashes the server or
is consumed without a crash; thinning a Poisson arrival stream by fixed
probabilities yields *independent* Poissons, and independent Poissons
superpose, so the chain is sampled at the granularity its outputs need
(rates: :class:`repro.fleet.layout.OutcomeRates`, the numbers the
analytic model integrates):

* per (server, month): one ``Poisson(crash_rate × mult)`` summed over
  regions — the per-server 43 200-minute clip must see each server;
* per (design block, region, month): one Poisson each for corrected,
  recovered and consumed-uncrashed errors at ``rate × Σ_servers mult``
  — they only feed fleet-wide monthly totals;
* per (server, month): shock hits, ``Binomial(events, cohort)`` of one
  shared monthly event count (``correlated``) or a Poisson of its own.

Determinism contract: results are **byte-identical** across runs and
``workers`` counts for a given seed and code version (not across
versions — the law is pinned, not the stream:
``tests/property/test_prop_fleet_simulator.py``). Months run in fixed
``config.month_chunk`` blocks; chunk ``i`` draws only from
``derive_seed(seed, "fleet-chunk-i")`` in canonical order and writes a
disjoint month slice. The ``scalar`` backend is the per-event Python
reference (same law, one draw per error).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.availability import MINUTES_PER_MONTH, AvailabilityParams
from repro.fleet.layout import FleetLayout
from repro.utils.rng import derive_seed, poisson_variate

__all__ = ["FleetSimulationResult", "FleetSimulator"]


@dataclass
class FleetSimulationResult:
    """Per-month fleet outcome arrays plus per-design totals.

    All ``*_by_month`` arrays have length ``months``. ``availability``
    is routed fleet availability (served demand / demand);
    ``machine_availability`` ignores routing (mean server uptime).
    """

    backend: str
    seed: int
    workers: int
    servers: int
    months: int
    demand_fraction: float
    composition: Dict[str, int]
    errors_by_month: List[int]
    crashes_by_month: List[int]
    recoveries_by_month: List[int]
    incorrect_by_month: List[float]
    shock_hits_by_month: List[int]
    repairs_by_month: List[int]
    downtime_by_month: List[float]
    capacity_by_month: List[float]
    availability_by_month: List[float]
    downtime_by_design: Dict[str, float] = field(default_factory=dict)
    crashes_by_design: Dict[str, int] = field(default_factory=dict)
    server_months_by_design: Dict[str, int] = field(default_factory=dict)

    @property
    def server_months(self) -> int:
        """Total simulated server-months."""
        return self.servers * self.months

    @property
    def mean_fleet_availability(self) -> float:
        """Mean routed availability across months."""
        return _mean(self.availability_by_month)

    @property
    def mean_machine_availability(self) -> float:
        """Mean server uptime fraction (routing ignored)."""
        total = sum(self.downtime_by_month)
        return 1.0 - total / (self.server_months * MINUTES_PER_MONTH)

    def machine_availability_of(self, design: str) -> float:
        """Mean server uptime for one design's block."""
        server_months = self.server_months_by_design[design]
        downtime = self.downtime_by_design[design]
        return 1.0 - downtime / (server_months * MINUTES_PER_MONTH)

    def downtime_percentile(self, percentile: float) -> float:
        """Fleet downtime minutes at a percentile of months (0-100).

        Same ceil-index convention as
        :meth:`repro.cluster.availability_sim.SimulationSummary.
        availability_percentile`.
        """
        return _percentile(self.downtime_by_month, percentile)

    def availability_percentile(self, percentile: float) -> float:
        """Routed availability at a percentile of months (0-100)."""
        return _percentile(self.availability_by_month, percentile)

    def confidence_interval(
        self, metric: str = "fleet_availability", z: float = 1.96
    ) -> Tuple[float, float]:
        """Normal CI for a per-month mean (``fleet_availability`` /
        ``machine_availability`` / ``downtime``)."""
        if metric == "fleet_availability":
            values = self.availability_by_month
        elif metric == "machine_availability":
            minutes = self.servers * MINUTES_PER_MONTH
            values = [1.0 - d / minutes for d in self.downtime_by_month]
        elif metric == "downtime":
            values = self.downtime_by_month
        else:
            raise ValueError(f"unknown metric '{metric}'")
        mean = _mean(values)
        if len(values) < 2:
            return (mean, mean)
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        half = z * math.sqrt(variance / len(values))
        return (mean - half, mean + half)

    def to_dict(self) -> dict:
        """JSON-serializable summary (CLI ``--json`` output)."""
        ci_fleet = self.confidence_interval("fleet_availability")
        ci_machine = self.confidence_interval("machine_availability")
        return {
            "backend": self.backend,
            "seed": self.seed,
            "workers": self.workers,
            "servers": self.servers,
            "months": self.months,
            "demand_fraction": self.demand_fraction,
            "composition": dict(self.composition),
            "mean_fleet_availability": self.mean_fleet_availability,
            "mean_machine_availability": self.mean_machine_availability,
            "fleet_availability_ci95": list(ci_fleet),
            "machine_availability_ci95": list(ci_machine),
            "availability_p5": self.availability_percentile(5),
            "availability_p50": self.availability_percentile(50),
            "downtime_p99_minutes": self.downtime_percentile(99),
            "totals": {
                "errors": sum(self.errors_by_month),
                "crashes": sum(self.crashes_by_month),
                "recoveries": sum(self.recoveries_by_month),
                "incorrect": sum(self.incorrect_by_month),
                "shock_hits": sum(self.shock_hits_by_month),
                "repairs": sum(self.repairs_by_month),
                "downtime_minutes": sum(self.downtime_by_month),
            },
            "designs": {
                name: {
                    "servers": self.composition[name],
                    "machine_availability": self.machine_availability_of(name),
                    "crashes": self.crashes_by_design[name],
                    "downtime_minutes": self.downtime_by_design[name],
                }
                for name in self.composition
            },
        }


def _mean(values) -> float:
    if not values:
        raise ValueError("no months simulated")
    return sum(values) / len(values)


def _percentile(values, percentile: float) -> float:
    if not 0 <= percentile <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {percentile}")
    ordered = sorted(values)
    index = min(
        len(ordered) - 1,
        max(0, math.ceil(percentile / 100 * len(ordered)) - 1),
    )
    return ordered[index]


class FleetSimulator:
    """Simulates a composed fleet's server-months.

    Construct with a :class:`~repro.fleet.layout.FleetLayout` (which
    pins composition, ages, batches, and per-design rates), then call
    :meth:`simulate`. ``params`` supplies crash-recovery downtime.
    """

    def __init__(
        self,
        layout: FleetLayout,
        params: Optional[AvailabilityParams] = None,
    ) -> None:
        self.layout = layout
        self.params = params or AvailabilityParams()

    # -- vectorized backend -------------------------------------------

    def simulate(
        self, seed: int = 0, workers: int = 1, backend: str = "vectorized"
    ) -> FleetSimulationResult:
        """Run the full horizon; deterministic for any ``workers``."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backend == "scalar":
            if workers != 1:
                raise ValueError("the scalar backend is single-threaded")
            return self._simulate_scalar(seed)
        if backend != "vectorized":
            raise ValueError(
                f"unknown backend '{backend}'; "
                "expected 'scalar' or 'vectorized'"
            )
        import numpy as np

        config = self.layout.config
        months = config.months
        chunk = config.month_chunk
        starts = list(range(0, months, chunk))
        outputs = [None] * len(starts)

        def run_chunk(index: int):
            start = starts[index]
            stop = min(start + chunk, months)
            outputs[index] = self._simulate_chunk(
                np, seed, index, start, stop
            )

        if workers == 1 or len(starts) == 1:
            for index in range(len(starts)):
                run_chunk(index)
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run_chunk, range(len(starts))))
        return self._merge(outputs, seed, workers)

    def _simulate_chunk(self, np, seed: int, index: int, start: int, stop: int):
        """One deterministic month chunk; draws in canonical order."""
        layout = self.layout
        config = layout.config
        span = stop - start
        servers = layout.servers
        rng = np.random.Generator(
            np.random.PCG64(derive_seed(seed, f"fleet-chunk-{index}"))
        )
        ages = layout.ages(start, stop)
        mult = layout.multipliers(start, stop, ages)  # (servers, span)
        crashed = np.empty((servers, span), dtype=np.int64)
        errors = np.zeros(span, dtype=np.int64)
        recoveries = np.zeros(span, dtype=np.int64)
        incorrect = np.zeros(span, dtype=np.float64)
        for block in layout.blocks:
            rates = block.outcomes
            block_mult = mult[block.start:block.stop, :]
            # Crashes, superposed over regions: the only outcome whose
            # downtime the per-server clip has to see.
            crashed[block.start:block.stop, :] = rng.poisson(
                rates.crash_rate * block_mult
            )
            # The rest is reported per month only: superposed over the
            # block's servers, one draw per (outcome, region, month).
            corrected, recovered, uncrashed = rng.poisson(
                np.stack((rates.corrected, rates.recovered, rates.uncrashed))[
                    :, :, None
                ]
                * block_mult.sum(axis=0)
            )
            errors += (corrected + recovered + uncrashed).sum(axis=0)
            recoveries += recovered.sum(axis=0)
            incorrect += (
                uncrashed * rates.incorrect_per_error[:, None]
            ).sum(axis=0)
        crashes = crashed.sum(axis=0)
        errors += crashes
        downtime = crashed * float(self.params.crash_recovery_minutes)
        correlation = config.correlation
        shock_hits = np.zeros(span, dtype=np.int64)
        if correlation.shock_rate_per_month > 0:
            if correlation.mode == "correlated":
                events = rng.poisson(
                    lam=correlation.shock_rate_per_month, size=span
                )
                hits = rng.binomial(
                    np.broadcast_to(events[None, :], (servers, span)),
                    correlation.shock_cohort_fraction,
                )
            else:
                hits = rng.poisson(
                    lam=correlation.shock_marginal_rate,
                    size=(servers, span),
                )
            downtime += hits * correlation.shock_downtime_minutes
            shock_hits = hits.sum(axis=0)
        repairs_mask = layout.repairs(start, stop, ages)
        if config.repair_downtime_minutes > 0:
            downtime += repairs_mask * config.repair_downtime_minutes
        np.clip(downtime, 0.0, MINUTES_PER_MONTH, out=downtime)
        downtime_by_month = downtime.sum(axis=0)
        capacity = servers - downtime_by_month / MINUTES_PER_MONTH
        demand = config.demand_fraction * servers
        served = np.minimum(demand, capacity)
        availability = served / demand
        return {
            "start": start,
            "errors": errors,
            "crashes": crashes,
            "recoveries": recoveries,
            "incorrect": incorrect,
            "shock_hits": shock_hits,
            "repairs": repairs_mask.sum(axis=0).astype(np.int64),
            "downtime": downtime_by_month,
            "capacity": capacity,
            "availability": availability,
            # Per design from the clipped array, so the design totals
            # and the month totals are sums of the same minutes.
            "design_downtime": {
                block.name: float(downtime[block.start:block.stop, :].sum())
                for block in layout.blocks
            },
            "design_crashes": {
                block.name: int(crashed[block.start:block.stop, :].sum())
                for block in layout.blocks
            },
        }

    def _empty_result(
        self, backend: str, seed: int, workers: int
    ) -> FleetSimulationResult:
        months = self.layout.config.months
        composition = self.layout.composition()
        return FleetSimulationResult(
            backend=backend,
            seed=seed,
            workers=workers,
            servers=self.layout.servers,
            months=months,
            demand_fraction=self.layout.config.demand_fraction,
            composition=composition,
            errors_by_month=[0] * months,
            crashes_by_month=[0] * months,
            recoveries_by_month=[0] * months,
            incorrect_by_month=[0.0] * months,
            shock_hits_by_month=[0] * months,
            repairs_by_month=[0] * months,
            downtime_by_month=[0.0] * months,
            capacity_by_month=[0.0] * months,
            availability_by_month=[0.0] * months,
            downtime_by_design={name: 0.0 for name in composition},
            crashes_by_design={name: 0 for name in composition},
            server_months_by_design={
                name: count * months for name, count in composition.items()
            },
        )

    def _merge(self, outputs, seed, workers):
        result = self._empty_result("vectorized", seed, workers)
        for chunk in outputs:
            start = chunk["start"]
            span = slice(start, start + len(chunk["errors"]))
            for series in (
                "errors",
                "crashes",
                "recoveries",
                "incorrect",
                "shock_hits",
                "repairs",
                "downtime",
                "capacity",
                "availability",
            ):
                by_month = getattr(result, f"{series}_by_month")
                by_month[span] = chunk[series].tolist()
            for name, value in chunk["design_downtime"].items():
                result.downtime_by_design[name] += value
            for name, value in chunk["design_crashes"].items():
                result.crashes_by_design[name] += value
        return result

    # -- scalar reference backend -------------------------------------

    def _simulate_scalar(self, seed: int) -> FleetSimulationResult:
        """Per-event Python loop (statistically equivalent reference)."""
        import random

        layout = self.layout
        config = layout.config
        correlation = config.correlation
        months = config.months
        servers = layout.servers
        rng = random.Random(derive_seed(seed, "fleet-scalar"))
        recovery_minutes = self.params.crash_recovery_minutes
        result = self._empty_result("scalar", seed, 1)
        table = layout.table
        retirement = config.retirement_age_months
        bad_mult = correlation.bad_batch_multiplier
        for month in range(months):
            downtime_per_server = [0.0] * servers
            for block in layout.blocks:
                rates = block.outcomes
                for server in range(block.start, block.stop):
                    age = (int(layout.initial_ages[server]) + month) % retirement
                    mult = config.aging.multiplier(float(age))
                    if server < block.bad_stop:
                        mult *= bad_mult
                    server_downtime = 0.0
                    for i in range(len(table.regions)):
                        # Poisson arrivals, then per-event thinning — the
                        # same chain AvailabilitySimulator.simulate_month
                        # runs, with the aging/batch multiplier applied.
                        count = poisson_variate(
                            rng, float(rates.errors[i]) * mult
                        )
                        result.errors_by_month[month] += count
                        if rates.corrects[i]:
                            continue
                        for _ in range(count):
                            if rng.random() < rates.recover_fraction[i]:
                                result.recoveries_by_month[month] += 1
                                continue
                            if rng.random() < table.crash_prob[i]:
                                result.crashes_by_month[month] += 1
                                result.crashes_by_design[block.name] += 1
                                server_downtime += recovery_minutes
                            else:
                                result.incorrect_by_month[month] += float(
                                    rates.incorrect_per_error[i]
                                )
                    downtime_per_server[server] += server_downtime
            if correlation.shock_rate_per_month > 0:
                if correlation.mode == "correlated":
                    events = poisson_variate(
                        rng, correlation.shock_rate_per_month
                    )
                    for server in range(servers):
                        hits = 0
                        for _ in range(events):
                            if rng.random() < correlation.shock_cohort_fraction:
                                hits += 1
                        if hits:
                            downtime_per_server[server] += (
                                hits * correlation.shock_downtime_minutes
                            )
                            result.shock_hits_by_month[month] += hits
                else:
                    for server in range(servers):
                        hits = poisson_variate(
                            rng, correlation.shock_marginal_rate
                        )
                        if hits:
                            downtime_per_server[server] += (
                                hits * correlation.shock_downtime_minutes
                            )
                            result.shock_hits_by_month[month] += hits
            for block in layout.blocks:
                for server in range(block.start, block.stop):
                    age = (int(layout.initial_ages[server]) + month) % retirement
                    if age == 0 and month > 0:
                        downtime_per_server[server] += (
                            config.repair_downtime_minutes
                        )
                        result.repairs_by_month[month] += 1
                    clipped = min(
                        MINUTES_PER_MONTH, downtime_per_server[server]
                    )
                    downtime_per_server[server] = clipped
                    result.downtime_by_design[block.name] += clipped
            total_downtime = sum(downtime_per_server)
            result.downtime_by_month[month] = total_downtime
            capacity = servers - total_downtime / MINUTES_PER_MONTH
            demand = config.demand_fraction * servers
            served = min(demand, capacity)
            result.capacity_by_month[month] = capacity
            result.availability_by_month[month] = served / demand
        return result
