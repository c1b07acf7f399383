"""Analytic fleet-availability model (cross-validates the simulator).

Every random count in the fleet chain is a thinned Poisson — and a
thinned Poisson is Poisson — so per-month *means and variances* of
crash downtime are exact, not approximations. The deterministic
structure (aging multipliers on the staggered age grid, bad-batch
membership, refurbishment months) comes from the same
:class:`~repro.fleet.layout.FleetLayout` the Monte Carlo simulator
uses, which is why the analytic mean downtime equals the simulator's
expectation to the digit (absent the rare per-server monthly clip).

Routed fleet availability is nonlinear (``min(demand, capacity)``), so
its mean uses a per-month normal approximation of total downtime::

    E[max(0, X - h)] = (mu - h) * Phi(t) + sigma * phi(t),
    t = (mu - h) / sigma

with fleet sizes in the hundreds the CLT makes this tight.

Shock variance is where correlation shows up analytically. With
fleet-wide events ``E ~ Poisson(lam)`` and per-server hit probability
``q`` over ``N`` servers, total hits have

* correlated mode: ``Var = N * q * (1 - q) * lam + N^2 * q^2 * lam``
  (law of total variance — the shared event count couples servers);
* independent mode: ``Var = N * q * lam`` (same mean ``N * q * lam``).

The quadratic-in-N term is the analytic signature of the heavier
correlated tail the regression tests pin on the simulator.

:class:`CompositionGrid` is the optimizer's fast path: per-month prefix
sums over the server axis make each candidate composition an
``O(designs x months)`` evaluation instead of a fresh layout build.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.availability import (
    MINUTES_PER_MONTH,
    AvailabilityParams,
    ErrorRateModel,
)
from repro.core.vulnerability import VulnerabilityProfile
from repro.fleet.config import FleetConfig, FleetDesign
from repro.fleet.layout import (
    FleetLayout,
    OutcomeRates,
    RegionTable,
    bad_batch_servers,
)

__all__ = [
    "AnalyticFleetModel",
    "AnalyticFleetResult",
    "CompositionGrid",
    "analytic_matches_simulation",
    "ci_contains",
]

#: Elements per row block of :meth:`CompositionGrid.evaluate`.
_BLOCK_ELEMENTS = 1 << 16


def _shock_moments(
    correlation, servers: int
) -> Tuple[float, float]:
    """(mean, variance) of total shock hits per fleet-month."""
    lam = correlation.shock_rate_per_month
    if lam <= 0:
        return (0.0, 0.0)
    q = correlation.shock_cohort_fraction
    mean = servers * q * lam
    if correlation.mode == "correlated":
        variance = servers * q * (1.0 - q) * lam + servers**2 * q**2 * lam
    else:
        variance = servers * q * lam
    return (mean, variance)


def _per_element(function, values: np.ndarray) -> np.ndarray:
    """``function`` (a :mod:`math` scalar) applied to every element."""
    return np.fromiter(
        map(function, values.ravel().tolist()),
        dtype=np.float64,
        count=values.size,
    ).reshape(values.shape)


#: Beyond ``|t| = 39`` the normal shortfall is ``max(0, excess)`` bit for
#: bit: ``exp(-39² / 2) = exp(-760.5)`` is under half the smallest
#: positive double (``exp(-745.13)``) and rounds to exactly 0.0, and
#: ``erf(39 / √2)`` is exactly 1.0 (it is from 5.93 on), so ``cdf`` is
#: exactly 0.0 or 1.0 and ``pdf`` exactly 0.0. No argument about the
#: magnitudes of ``excess`` and ``std`` is needed.
_KERNEL_REACH = 39.0


def _routed_availability(
    mean_downtime: np.ndarray,
    var_downtime: np.ndarray,
    servers: int,
    demand_fraction: float,
) -> np.ndarray:
    """Routed availability from downtime moments, elementwise.

    Works on any array shape: ``(months,)`` for one layout,
    ``(compositions, months)`` for the optimizer's grid. The arithmetic
    is NumPy, but ``erf`` and ``exp`` go through :mod:`math` element by
    element — NumPy has no ``erf``, and ``np.exp`` is not guaranteed to
    round like ``math.exp``, which would move committed availabilities
    in the last digit — and only where they can change the result:
    months with spread whose headroom is within :data:`_KERNEL_REACH`
    standard deviations of the mean.
    """
    demand_minutes = demand_fraction * servers * MINUTES_PER_MONTH
    headroom_minutes = (1.0 - demand_fraction) * servers * MINUTES_PER_MONTH
    excess = mean_downtime - headroom_minutes
    std = np.sqrt(np.maximum(0.0, var_downtime))
    spread = std > 0.0
    t = np.divide(excess, std, out=np.zeros_like(std), where=spread)
    # A degenerate (std == 0) or far-off month is its deterministic
    # shortfall; the rest is E[max(0, X - headroom)], X ~ Normal.
    shortfall = np.maximum(0.0, excess)
    near = spread & (np.abs(t) < _KERNEL_REACH)
    t = t[near]
    cdf = 0.5 * (1.0 + _per_element(math.erf, t / math.sqrt(2.0)))
    pdf = _per_element(math.exp, -0.5 * t * t) / math.sqrt(2.0 * math.pi)
    shortfall[near] = excess[near] * cdf + std[near] * pdf
    return 1.0 - shortfall / demand_minutes


class AnalyticFleetResult:
    """Closed-form per-month moments for one fleet layout."""

    def __init__(
        self,
        layout: FleetLayout,
        mean_downtime: np.ndarray,
        var_downtime: np.ndarray,
        mean_errors: np.ndarray,
        mean_crashes: np.ndarray,
        mean_incorrect: np.ndarray,
        design_downtime: Dict[str, float],
    ) -> None:
        config = layout.config
        self.servers = layout.servers
        self.months = config.months
        self.demand_fraction = config.demand_fraction
        self.composition = layout.composition()
        self.mean_downtime_by_month = mean_downtime
        self.var_downtime_by_month = var_downtime
        self.mean_errors_by_month = mean_errors
        self.mean_crashes_by_month = mean_crashes
        self.mean_incorrect_by_month = mean_incorrect
        self.downtime_by_design = design_downtime
        self.availability_by_month = _routed_availability(
            mean_downtime, var_downtime, self.servers, self.demand_fraction
        )

    @property
    def mean_fleet_availability(self) -> float:
        """Expected routed availability, averaged across months."""
        return float(self.availability_by_month.mean())

    @property
    def mean_machine_availability(self) -> float:
        """Expected server uptime fraction (routing ignored) — exact."""
        total = float(self.mean_downtime_by_month.sum())
        minutes = self.servers * self.months * MINUTES_PER_MONTH
        return 1.0 - total / minutes

    def machine_availability_of(self, design: str) -> float:
        """Expected server uptime for one design's block — exact."""
        block_servers = self.composition[design]
        minutes = block_servers * self.months * MINUTES_PER_MONTH
        return 1.0 - self.downtime_by_design[design] / minutes

    def to_dict(self) -> dict:
        """JSON-serializable summary mirroring the simulator's."""
        return {
            "model": "analytic",
            "servers": self.servers,
            "months": self.months,
            "demand_fraction": self.demand_fraction,
            "composition": dict(self.composition),
            "mean_fleet_availability": self.mean_fleet_availability,
            "mean_machine_availability": self.mean_machine_availability,
            "totals": {
                "errors": float(self.mean_errors_by_month.sum()),
                "crashes": float(self.mean_crashes_by_month.sum()),
                "incorrect": float(self.mean_incorrect_by_month.sum()),
                "downtime_minutes": float(self.mean_downtime_by_month.sum()),
            },
            "designs": {
                name: {
                    "servers": self.composition[name],
                    "machine_availability": self.machine_availability_of(name),
                    "downtime_minutes": self.downtime_by_design[name],
                }
                for name in self.composition
            },
        }


class AnalyticFleetModel:
    """Exact-moment model for one :class:`FleetLayout`."""

    def __init__(
        self,
        layout: FleetLayout,
        params: Optional[AvailabilityParams] = None,
    ) -> None:
        self.layout = layout
        self.params = params or AvailabilityParams()

    def evaluate(self) -> AnalyticFleetResult:
        """Compute per-month downtime moments and routed availability."""
        layout = self.layout
        config = layout.config
        months = config.months
        recovery = self.params.crash_recovery_minutes
        ages = layout.ages(0, months)
        mult = layout.multipliers(0, months, ages)  # (servers, months)
        mean_downtime = np.zeros(months, dtype=np.float64)
        var_downtime = np.zeros(months, dtype=np.float64)
        mean_errors = np.zeros(months, dtype=np.float64)
        mean_crashes = np.zeros(months, dtype=np.float64)
        mean_incorrect = np.zeros(months, dtype=np.float64)
        design_downtime: Dict[str, float] = {}
        for block in layout.blocks:
            rates = block.outcomes
            crash_coeff = rates.crash_rate
            incorrect_coeff = float(
                (rates.uncrashed * rates.incorrect_per_error).sum()
            )
            error_coeff = float(rates.errors.sum())
            block_mult = mult[block.start:block.stop, :].sum(axis=0)
            crashes = crash_coeff * block_mult
            mean_errors += error_coeff * block_mult
            mean_crashes += crashes
            mean_incorrect += incorrect_coeff * block_mult
            # Thinned Poisson: crash-count variance equals its mean.
            mean_downtime += crashes * recovery
            var_downtime += crashes * recovery**2
            design_downtime[block.name] = float(crashes.sum()) * recovery
        shock_mean, shock_var = _shock_moments(
            config.correlation, layout.servers
        )
        if shock_mean > 0:
            minutes = config.correlation.shock_downtime_minutes
            mean_downtime += shock_mean * minutes
            var_downtime += shock_var * minutes**2
            per_server = shock_mean / layout.servers * minutes
            for block in layout.blocks:
                design_downtime[block.name] += (
                    per_server * block.servers * months
                )
        if config.repair_downtime_minutes > 0:
            repairs = layout.repairs(0, months, ages)  # deterministic mask
            mean_downtime += (
                repairs.sum(axis=0) * config.repair_downtime_minutes
            )
            for block in layout.blocks:
                design_downtime[block.name] += float(
                    repairs[block.start:block.stop, :].sum()
                    * config.repair_downtime_minutes
                )
        return AnalyticFleetResult(
            layout,
            mean_downtime,
            var_downtime,
            mean_errors,
            mean_crashes,
            mean_incorrect,
            design_downtime,
        )


class CompositionGrid:
    """Shared precomputation for evaluating many fleet compositions.

    The server axis is fixed by ``config.servers`` (staggered ages and
    refurbishment months depend only on the server index), so aging
    multipliers and repair counts are composition-independent. Prefix
    sums along the server axis turn any contiguous design block's
    monthly multiplier mass into two array lookups, making a candidate
    composition an ``O(designs x months)`` evaluation.
    """

    def __init__(
        self,
        profile: VulnerabilityProfile,
        designs: Sequence[FleetDesign],
        config: FleetConfig,
        params: Optional[AvailabilityParams] = None,
        error_model: Optional[ErrorRateModel] = None,
        error_label: str = "single-bit soft",
        region_sizes: Optional[Mapping[str, int]] = None,
    ) -> None:
        if not designs:
            raise ValueError("need at least one fleet design")
        names = [design.name for design in designs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate design names in {names}")
        self.designs = list(designs)
        self.config = config
        self.params = params or AvailabilityParams()
        error_model = error_model or ErrorRateModel()
        regions = sorted(designs[0].policies)
        table = RegionTable(profile, regions, error_label, region_sizes)
        servers = config.servers
        months = config.months
        retirement = config.retirement_age_months
        indices = np.arange(servers, dtype=np.int64)
        initial_ages = (indices * retirement) // max(1, servers) % retirement
        month_index = np.arange(months, dtype=np.int64)
        ages = (initial_ages[:, None] + month_index[None, :]) % retirement
        mult = config.aging.multiplier(ages.astype(np.float64))
        #: (servers + 1, months) prefix sums of the aging multiplier.
        self.cum_mult = np.zeros((servers + 1, months), dtype=np.float64)
        np.cumsum(mult, axis=0, out=self.cum_mult[1:, :])
        repairs = (ages == 0) & (month_index[None, :] > 0)
        #: Total refurbishments per month (composition-independent).
        self.repairs_by_month = repairs.sum(axis=0).astype(np.float64)
        self.crash_coeff = np.empty(len(designs), dtype=np.float64)
        self.savings = np.empty(len(designs), dtype=np.float64)
        for d, design in enumerate(self.designs):
            if sorted(design.policies) != regions:
                raise ValueError(
                    "all fleet designs must map the same region set"
                )
            # Region by region, left to right: the committed optimizer
            # results are pinned to this summation order.
            coeff = 0.0
            for rate in OutcomeRates(design, table, error_model).crash.tolist():
                coeff += rate
            self.crash_coeff[d] = coeff
            if design.server_cost_savings is None:
                raise ValueError(
                    f"design '{design.name}' has no server_cost_savings; "
                    "resolve it before composition search"
                )
            self.savings[d] = design.server_cost_savings
        shock_mean, shock_var = _shock_moments(config.correlation, servers)
        minutes = config.correlation.shock_downtime_minutes
        self._shock_downtime_mean = shock_mean * minutes
        self._shock_downtime_var = shock_var * minutes**2
        self._bad_fraction = config.correlation.bad_batch_fraction
        self._bad_extra = config.correlation.bad_batch_multiplier - 1.0

    def evaluate(self, counts) -> Tuple[np.ndarray, np.ndarray]:
        """(mean fleet availability, cost savings) per composition.

        ``counts`` is a ``(compositions, designs)`` integer array; each
        row aligns with the construction-time design order and must sum
        to ``config.servers``. Blocks are contiguous in design order,
        matching :class:`FleetLayout`. Moments accumulate design by
        design, left to right, so every composition sees the same
        float64 additions it would see evaluated alone.
        """
        config = self.config
        servers = config.servers
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] != len(self.designs):
            raise ValueError(
                f"counts must be (compositions, {len(self.designs)}), "
                f"got shape {counts.shape}"
            )
        if (counts < 0).any():
            raise ValueError("composition counts must be >= 0")
        covered = counts.sum(axis=1)
        if (covered != servers).any():
            raise ValueError(
                f"composition covers {int(covered[covered != servers][0])} "
                f"servers, config.servers is {servers}"
            )
        recovery = self.params.crash_recovery_minutes
        starts = np.cumsum(counts, axis=1) - counts
        bad_extra = self._bad_extra
        bad_batch = bad_extra > 0 and self._bad_fraction > 0
        if bad_batch:
            bad_of = np.zeros(servers + 1, dtype=np.int64)
            for size in np.unique(counts).tolist():
                bad_of[size] = bad_batch_servers(self._bad_fraction, size)
            bad_stops = starts + bad_of[counts]
        base_mean = (
            self.repairs_by_month * config.repair_downtime_minutes
            + self._shock_downtime_mean
        )
        months = len(base_mean)
        compositions = len(counts)
        availability = np.empty(compositions, dtype=np.float64)
        savings = np.zeros(compositions, dtype=np.float64)
        # Row blocks keep the (rows x months) temporaries and the
        # per-element lists of the shortfall kernel to a few MiB.
        rows = max(1, _BLOCK_ELEMENTS // months)
        for lo in range(0, compositions, rows):
            block = slice(lo, min(lo + rows, compositions))
            mean_downtime = np.tile(base_mean, (block.stop - lo, 1))
            var_downtime = np.full_like(
                mean_downtime, self._shock_downtime_var
            )
            for d in range(len(self.designs)):
                start = starts[block, d]
                head = self.cum_mult[start, :]
                block_mult = self.cum_mult[start + counts[block, d], :] - head
                if bad_batch:
                    block_mult = block_mult + bad_extra * (
                        self.cum_mult[bad_stops[block, d], :] - head
                    )
                crashes = self.crash_coeff[d] * block_mult
                mean_downtime += crashes * recovery
                var_downtime += crashes * recovery**2
            availability[block] = _routed_availability(
                mean_downtime, var_downtime, servers, config.demand_fraction
            ).mean(axis=1)
        for d in range(len(self.designs)):
            savings += self.savings[d] * (counts[:, d] / servers)
        return (availability, savings)


def ci_contains(
    interval: Tuple[float, float], value: float
) -> bool:
    """Whether a (lo, hi) confidence interval contains ``value``."""
    lo, hi = interval
    return lo <= value <= hi


def analytic_matches_simulation(
    analytic: AnalyticFleetResult,
    simulated,
    metrics: Sequence[str] = ("machine_availability", "fleet_availability"),
) -> Dict[str, bool]:
    """Cross-validation verdicts: analytic mean inside each MC CI95."""
    verdicts: Dict[str, bool] = {}
    for metric in metrics:
        interval = simulated.confidence_interval(metric)
        if metric == "machine_availability":
            value = analytic.mean_machine_availability
        elif metric == "fleet_availability":
            value = analytic.mean_fleet_availability
        elif metric == "downtime":
            value = float(analytic.mean_downtime_by_month.mean())
        else:
            raise ValueError(f"unknown metric '{metric}'")
        verdicts[metric] = ci_contains(interval, value)
    return verdicts
