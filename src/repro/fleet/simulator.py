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
analytic model integrates). Every reported series is a monthly total
per design block, so a chunk draws one *row* per block:

* per (block, month): one ``Poisson(crash_rate × Σ_servers mult)``;
* per (block, region, month): one Poisson each for corrected,
  recovered and consumed-uncrashed errors at ``rate × Σ_servers mult``;
* per (block, month): shock hits, ``Binomial(events × servers, cohort)``
  of one shared monthly event count (``correlated``) or
  ``Poisson(marginal × servers)``.

Only the per-server 43 200-minute clip needs to see a server. Before
any draw :func:`clip_ln_bound` bounds, from the configuration alone,
the probability that *any* server-month of the chunk reaches the clip;
when that is under 2^-1074 — the smallest positive double, so no
floating-point statistic of any number of runs can depend on it — the
chunk draws block rows as above. Otherwise its rows are servers: the
crash and shock draws take ``(servers, span)`` rates and the clip runs.

Determinism contract: results are **byte-identical** across runs for
a given seed and code version (not across versions — the law is
pinned, not the stream: ``tests/property/test_prop_fleet_simulator.py``).
Months run in fixed ``config.month_chunk`` blocks, one after another;
chunk ``i`` draws only from ``derive_seed(seed, "fleet-chunk-i")`` in
canonical order and writes a disjoint month slice. Which rows a chunk
draws depends on the configuration only, never on a draw; chunks of one
run may differ. :meth:`FleetSimulator._simulate_scalar` is the
per-event Python reference (same law, one draw per error), reached
through :func:`repro.oracles.simulate_fleet`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.availability import MINUTES_PER_MONTH, AvailabilityParams
from repro.fleet.layout import FleetLayout
from repro.utils.rng import derive_seed, poisson_variate

__all__ = [
    "FleetChunk",
    "FleetSimulationResult",
    "FleetSimulator",
    "LN_SMALLEST_DOUBLE",
    "clip_ln_bound",
]

#: ``ln 2^-1074``, the smallest positive double: an event less likely
#: than this cannot move any float64 statistic of any number of runs.
LN_SMALLEST_DOUBLE = -1074 * math.log(2.0)


#: The per-month series of a :class:`FleetSimulationResult`, as
#: ``<series>_by_month``.
_MONTH_SERIES = (
    "errors",
    "crashes",
    "recoveries",
    "incorrect",
    "shock_hits",
    "repairs",
    "downtime",
    "capacity",
    "availability",
)

#: Budgets in events are capped here (minutes per event may be
#: denormal); a smaller count only loosens the bound.
_COUNT_CAP = float(1 << 53)


def _poisson_tail_ln(lam: float, k: int) -> float:
    """Chernoff bound on ``ln P(Poisson(lam) >= k)`` (0 when vacuous)."""
    if k <= lam:
        return 0.0
    if lam <= 0:
        return -math.inf
    return -lam + k - k * math.log(k / lam)


def clip_ln_bound(
    server_months: int,
    crash_rates: Sequence[float],
    recovery_minutes: float,
    shock_rate: float,
    shock_minutes: float,
    repair_minutes: float,
) -> float:
    """Upper bound on ``ln P(any server-month exceeds the month)``.

    ``crash_rates`` are the blocks' peak crashes per server-month and
    ``shock_rate`` the marginal hits per server-month (``Poisson`` in
    both correlation modes: a thinned Poisson). After the repair, the
    month is split into a shock budget — the fewest hits whose overflow
    tail is already under the per-term target — and a crash budget, the
    rest: a server-month exceeds the clip only if it overruns one of
    them, and the union over two terms and ``server_months`` is at most
    ``2 × server_months ×`` the largest tail. Raising a rate or a
    minutes argument never takes a bound that is not under
    :data:`LN_SMALLEST_DOUBLE` under it.
    """
    month = MINUTES_PER_MONTH - repair_minutes
    if month < 0:
        return 0.0
    union = math.log(2 * server_months)
    hits, shock_tail = 0, -math.inf
    if shock_rate > 0 and shock_minutes > 0:
        # The tail is non-increasing in the budget: bisect for the
        # fewest hits under the target (all that fit, when none is).
        most = int(min(month // shock_minutes, _COUNT_CAP))
        while hits < most:
            middle = (hits + most) // 2
            if union + _poisson_tail_ln(shock_rate, middle + 1) < (
                LN_SMALLEST_DOUBLE
            ):
                most = middle
            else:
                hits = middle + 1
        shock_tail = _poisson_tail_ln(shock_rate, hits + 1)
    worst = shock_tail
    if recovery_minutes > 0:
        budget = month - hits * shock_minutes
        crashes = int(min(budget // recovery_minutes, _COUNT_CAP)) + 1
        for rate in crash_rates:
            worst = max(worst, _poisson_tail_ln(rate, crashes))
    return min(0.0, union + worst)


class FleetChunk(NamedTuple):
    """One month chunk and its clip guard (a function of the config)."""

    start: int
    stop: int
    #: :func:`clip_ln_bound` over the chunk's server-months.
    clip_ln_bound: float

    @property
    def aggregated(self) -> bool:
        """Whether the chunk draws block rows (the clip cannot bind)."""
        return self.clip_ln_bound < LN_SMALLEST_DOUBLE


@dataclass
class FleetSimulationResult:
    """Per-month fleet outcome arrays plus per-design totals.

    All ``*_by_month`` arrays have length ``months``. ``availability``
    is routed fleet availability (served demand / demand);
    ``machine_availability`` ignores routing (mean server uptime).
    """

    backend: str
    seed: int
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
        """Fleet downtime minutes at a percentile of months (0-100)."""
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


def _percentile_index(percentile: float, count: int) -> int:
    """Where ``percentile`` (0-100) of ``count`` ascending values sits.

    The one percentile rule of the simulators: the ceil index, the
    smallest value with at least ``percentile`` % of the values at or
    below it (the first value at 0, the last at 100).
    """
    if not 0 <= percentile <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {percentile}")
    return min(count - 1, max(0, math.ceil(percentile / 100 * count) - 1))


def _percentile(values, percentile: float) -> float:
    index = _percentile_index(percentile, len(values))
    return sorted(values)[index]


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
        #: ``(mass, repairs)`` of each aggregated chunk, by its start:
        #: :meth:`FleetLayout.block_months` as :attr:`chunks` guarded it.
        self._block_months: Dict[int, tuple] = {}

    # -- chunked NumPy draws -------------------------------------------

    @functools.cached_property
    def chunks(self) -> List[FleetChunk]:
        """The ``config.month_chunk`` blocks of the horizon, guarded."""
        layout = self.layout
        config = layout.config
        correlation = config.correlation
        found = []
        for start in range(0, config.months, config.month_chunk):
            stop = min(start + config.month_chunk, config.months)
            mass, repairs, peak = layout.block_months(start, stop)
            chunk = FleetChunk(
                start,
                stop,
                clip_ln_bound(
                    server_months=layout.servers * (stop - start),
                    crash_rates=[
                        block.outcomes.crash_rate * float(multiplier)
                        for block, multiplier in zip(layout.blocks, peak)
                    ],
                    recovery_minutes=self.params.crash_recovery_minutes,
                    shock_rate=correlation.shock_marginal_rate,
                    shock_minutes=correlation.shock_downtime_minutes,
                    repair_minutes=config.repair_downtime_minutes,
                ),
            )
            if chunk.aggregated:
                # Its draws read these block totals: one census a chunk.
                self._block_months[start] = (mass, repairs)
            found.append(chunk)
        return found

    def simulate(self, seed: int = 0) -> FleetSimulationResult:
        """Run the full horizon, chunk by chunk in month order."""
        import numpy as np

        return self._merge(
            [
                self._simulate_chunk(np, seed, index, chunk)
                for index, chunk in enumerate(self.chunks)
            ],
            seed,
        )

    def _simulate_chunk(self, np, seed: int, index: int, chunk: FleetChunk):
        """One deterministic month chunk; draws in canonical order.

        Every array is ``(rows, span)``. An aggregated chunk has one row
        per block, standing for ``weight`` servers; otherwise a row is a
        server and the per-server clip runs.
        """
        layout = self.layout
        config = layout.config
        start, stop = chunk.start, chunk.stop
        span = stop - start
        servers = layout.servers
        rng = np.random.Generator(
            np.random.PCG64(derive_seed(seed, f"fleet-chunk-{index}"))
        )
        if chunk.aggregated:
            mult, repairs = self._block_months[start]
            weight = np.array([[block.servers] for block in layout.blocks])
            rows = [slice(row, row + 1) for row in range(len(layout.blocks))]
        else:
            ages = layout.ages(start, stop)
            mult = layout.multipliers(start, stop, ages)
            repairs = layout.repairs(start, stop, ages)
            weight = 1
            rows = [slice(block.start, block.stop) for block in layout.blocks]
        crashed = np.empty(mult.shape, dtype=np.int64)
        errors = np.zeros(span, dtype=np.int64)
        recoveries = np.zeros(span, dtype=np.int64)
        incorrect = np.zeros(span, dtype=np.float64)
        for block, block_rows in zip(layout.blocks, rows):
            rates = block.outcomes
            block_mult = mult[block_rows, :]
            # Crashes, superposed over regions: the only outcome whose
            # downtime the per-server clip has to see.
            crashed[block_rows, :] = rng.poisson(rates.crash_rate * block_mult)
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
                # One event count a month, shared by every row: given
                # it, servers are hit independently, so a block's hits
                # are one binomial over events x servers.
                events = rng.poisson(
                    lam=correlation.shock_rate_per_month, size=span
                )
                hits = rng.binomial(
                    np.broadcast_to(events * weight, mult.shape),
                    correlation.shock_cohort_fraction,
                )
            else:
                hits = rng.poisson(
                    lam=correlation.shock_marginal_rate * weight,
                    size=mult.shape,
                )
            downtime += hits * correlation.shock_downtime_minutes
            shock_hits = hits.sum(axis=0)
        if config.repair_downtime_minutes > 0:
            downtime += repairs * config.repair_downtime_minutes
        if not chunk.aggregated:
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
            "repairs": repairs.sum(axis=0).astype(np.int64),
            "downtime": downtime_by_month,
            "capacity": capacity,
            "availability": availability,
            # Per design from the same (clipped) rows, so the design
            # totals and the month totals are sums of the same minutes.
            "design_downtime": {
                block.name: float(downtime[block_rows, :].sum())
                for block, block_rows in zip(layout.blocks, rows)
            },
            "design_crashes": {
                block.name: int(crashed[block_rows, :].sum())
                for block, block_rows in zip(layout.blocks, rows)
            },
        }

    def _empty_result(self, backend: str, seed: int, **by_month) -> FleetSimulationResult:
        """A result whose month series are zeros, or the nine ``*_by_month``
        lists given."""
        months = self.layout.config.months
        composition = self.layout.composition()
        if not by_month:
            by_month = dict(
                errors_by_month=[0] * months,
                crashes_by_month=[0] * months,
                recoveries_by_month=[0] * months,
                incorrect_by_month=[0.0] * months,
                shock_hits_by_month=[0] * months,
                repairs_by_month=[0] * months,
                downtime_by_month=[0.0] * months,
                capacity_by_month=[0.0] * months,
                availability_by_month=[0.0] * months,
            )
        return FleetSimulationResult(
            backend=backend,
            seed=seed,
            servers=self.layout.servers,
            months=months,
            demand_fraction=self.layout.config.demand_fraction,
            composition=composition,
            **by_month,
            downtime_by_design={name: 0.0 for name in composition},
            crashes_by_design={name: 0 for name in composition},
            server_months_by_design={
                name: count * months for name, count in composition.items()
            },
        )

    def _merge(self, outputs, seed):
        import numpy as np

        # Chunks come in start order and tile the horizon: each series is
        # one concatenation and one tolist().
        # The label is part of to_dict(), hence of committed result digests.
        result = self._empty_result(
            "vectorized",
            seed,
            **{
                f"{series}_by_month": np.concatenate(
                    [chunk[series] for chunk in outputs]
                ).tolist()
                for series in _MONTH_SERIES
            },
        )
        for chunk in outputs:
            for name, value in chunk["design_downtime"].items():
                result.downtime_by_design[name] += value
            for name, value in chunk["design_crashes"].items():
                result.crashes_by_design[name] += value
        return result

    # -- per-event reference (repro.oracles.simulate_fleet) ------------

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
        result = self._empty_result("scalar", seed)
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
                        # Poisson arrivals, then per-event thinning: the
                        # paper's chain, one draw per error, with the
                        # aging/batch multiplier applied.
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
