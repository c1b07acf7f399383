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

:class:`CompositionGrid` is the optimizer's fast path. Per-month prefix
sums over the server axis give any contiguous design block's moment
rows in three lookups, and a grid of compositions repeats few blocks —
735 distinct ``(design, start, count)`` among the 53 130 of a step-0.05
grid over five designs — so :class:`BlockTables` computes each once and
a composition's moments are one gathered row per design.
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
    "BlockTables",
    "CompositionGrid",
    "analytic_matches_simulation",
    "ci_contains",
]

#: Elements per row block, wherever compositions are scored
#: (:meth:`CompositionGrid.evaluate`, ``FleetOptimizer.search``). It
#: bounds the (rows x months) temporaries and the per-element lists of
#: the shortfall kernel to a few hundred KiB, and it is how often the
#: search's running best advances and how soon it sees the 1.0 ceiling.
#: At 455 rows a block (36 months) the pipeline benchmark's grid sends
#: 533 of its 10 626 rows through the kernel; advancing after every row
#: would send 64, blocks four times as large 2 005. At 64 or 128 rows a
#: block the search took no less time than at 455 (each block is a
#: kernel call with its own fixed cost).
_BLOCK_ELEMENTS = 1 << 14

#: What :func:`_availability_bound` may fall short of the kernel by, in
#: floating point. Exactly it never does: ``E[max(0, X - h)] >=
#: max(0, E[X] - h)`` (Jensen). The kernel's shortfall is ``excess * cdf
#: + std * pdf`` with an absolute error of an ulp of 1 in ``cdf``
#: (``1 + erf`` cancels for negative ``t``) and a relative one in each
#: product, so it can come out under ``max(0, excess)`` by a few ``2^-53
#: x (|excess| + std)``: in availability, a few ``1e-16 x (|excess| +
#: std) / demand minutes``. That ratio is about ``1 / demand_fraction``
#: for a fleet that is down all month and below 1 for one worth
#: planning; 1e-9 covers it up to 1e5. Jensen's looseness near the
#: threshold, where it matters, is ~1e-5, so the slack costs no pruning.
_BOUND_SLACK = 1e-9


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

    No month is above 1.0. The normal shortfall ``std * psi(t)``, with
    ``psi(t) = t * Phi(t) + phi(t)``, is never negative, but ``1 + erf``
    cancels near ``t = -8`` and the computed ``psi`` can come out a few
    ``1e-16`` below zero; the kernel clamps it there. A mean of months
    that are each at most 1.0 is at most 1.0 too (rounding is monotone
    and ``n`` ones sum exactly), which is what lets the optimizer stop
    at the ceiling.
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
    shortfall[near] = np.maximum(0.0, excess[near] * cdf + std[near] * pdf)
    return 1.0 - shortfall / demand_minutes


def _availability_bound(
    mean_downtime: np.ndarray, servers: int, demand_fraction: float
) -> np.ndarray:
    """Upper bound on :func:`_routed_availability` from the means alone.

    The kernel's own far-field value — what it returns, bit for bit, at
    zero variance. The shortfall is convex in the downtime, so by
    Jensen spread only lowers availability; :data:`_BOUND_SLACK` covers
    the rounding.
    """
    demand_minutes = demand_fraction * servers * MINUTES_PER_MONTH
    headroom_minutes = (1.0 - demand_fraction) * servers * MINUTES_PER_MONTH
    shortfall = np.maximum(0.0, mean_downtime - headroom_minutes)
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
        # Per block and month, from the age census: the multiplier mass
        # and the refurbishments. No (servers, months) array is built.
        mass, repairs, _ = layout.block_months(0, months)
        mean_downtime = np.zeros(months, dtype=np.float64)
        var_downtime = np.zeros(months, dtype=np.float64)
        mean_errors = np.zeros(months, dtype=np.float64)
        mean_crashes = np.zeros(months, dtype=np.float64)
        mean_incorrect = np.zeros(months, dtype=np.float64)
        design_downtime: Dict[str, float] = {}
        for block, block_mult in zip(layout.blocks, mass):
            rates = block.outcomes
            crash_coeff = rates.crash_rate
            incorrect_coeff = float(
                (rates.uncrashed * rates.incorrect_per_error).sum()
            )
            error_coeff = float(rates.errors.sum())
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
            mean_downtime += (
                repairs.sum(axis=0) * config.repair_downtime_minutes
            )
            for block, refurbished in zip(layout.blocks, repairs):
                design_downtime[block.name] += float(
                    refurbished.sum() * config.repair_downtime_minutes
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
    monthly multiplier mass into two array lookups;
    :class:`BlockTables` does them once per distinct block of a batch.
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

    def tabulate(self, counts) -> "BlockTables":
        """Check ``counts`` and tabulate its distinct design blocks."""
        return BlockTables(self, counts)

    def evaluate(self, counts) -> Tuple[np.ndarray, np.ndarray]:
        """(mean fleet availability, cost savings) per composition.

        The exact availability of every row, whatever else is in the
        batch: the oracle and bench surface. ``counts`` is a
        ``(compositions, designs)`` integer array; each row aligns with
        the construction-time design order and must sum to
        ``config.servers``.
        """
        tables = self.tabulate(counts)
        availability = np.empty(len(tables.savings), dtype=np.float64)
        for lo in range(0, len(availability), tables.block_rows):
            rows = slice(lo, lo + tables.block_rows)
            availability[rows] = tables.availability(rows)
        return (availability, tables.savings)


class BlockTables:
    """One batch of compositions, each distinct design block computed once.

    Blocks are contiguous in design order, matching
    :class:`FleetLayout`, so design ``d`` of a composition is the block
    ``(start, count)`` with ``start`` the servers of the designs before
    it. A simplex grid repeats few of them; each distinct pair's
    ``crash_coeff * block_mult * recovery`` and ``* recovery**2`` month
    rows are computed once, from the grid's prefix sums, and a
    composition's moments are those rows added design by design, left
    to right — the same float64 additions it would see evaluated alone.
    """

    def __init__(self, grid: CompositionGrid, counts) -> None:
        config = grid.config
        servers = config.servers
        designs = len(grid.designs)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] != designs:
            raise ValueError(
                f"counts must be (compositions, {designs}), "
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
        self._servers = servers
        self._demand_fraction = config.demand_fraction
        #: Moments before any design's crashes: repairs and shocks.
        self._base_mean = (
            grid.repairs_by_month * config.repair_downtime_minutes
            + grid._shock_downtime_mean
        )
        self._base_var = np.full_like(
            self._base_mean, grid._shock_downtime_var
        )
        #: Rows a caller should score at a time (see ``_BLOCK_ELEMENTS``).
        self.block_rows = max(1, _BLOCK_ELEMENTS // len(self._base_mean))
        #: Cost savings per composition.
        self.savings = np.zeros(len(counts), dtype=np.float64)
        for d in range(designs):
            self.savings += grid.savings[d] * (counts[:, d] / servers)
        recovery = grid.params.crash_recovery_minutes
        bad_extra = grid._bad_extra
        bad_batch = bad_extra > 0 and grid._bad_fraction > 0
        starts = np.cumsum(counts, axis=1) - counts
        #: Per design, each composition's row of the moment tables.
        self._which = np.empty((designs, len(counts)), dtype=np.int64)
        mean_rows, var_rows, tabulated = [], [], 0
        for d in range(designs):
            pairs, which = np.unique(
                starts[:, d] * (servers + 1) + counts[:, d],
                return_inverse=True,
            )
            self._which[d] = which + tabulated
            tabulated += len(pairs)
            start, count = np.divmod(pairs, servers + 1)
            head = grid.cum_mult[start, :]
            block_mult = grid.cum_mult[start + count, :] - head
            if bad_batch:
                bad = bad_batch_servers(grid._bad_fraction, count)
                block_mult = block_mult + bad_extra * (
                    grid.cum_mult[start + bad, :] - head
                )
            # Thinned Poisson: crash-count variance equals its mean.
            crashes = grid.crash_coeff[d] * block_mult
            mean_rows.append(crashes * recovery)
            var_rows.append(crashes * recovery**2)
        self._mean_rows = np.concatenate(mean_rows)
        self._var_rows = np.concatenate(var_rows)
        #: Distinct ``(design, start, count)`` blocks tabulated.
        self.distinct_blocks = tabulated

    @staticmethod
    def _moment(base, table, which) -> np.ndarray:
        """``base`` plus one ``table`` row per design, left to right."""
        moment = base + table[which[0]]
        for picked in which[1:]:
            moment += table[picked]
        return moment

    def availability(self, rows, floor=None) -> np.ndarray:
        """Mean fleet availability of the compositions ``rows``.

        ``rows`` is a slice or an index array. Without ``floor`` every
        value is exact. With one (a scalar or a value per row), a row
        whose availability is provably below its floor — the Jensen
        bound of its mean downtime plus :data:`_BOUND_SLACK` is — skips
        the variance and the shortfall kernel and reads ``-inf``; the
        rest are exact.
        """
        which = self._which[:, rows]
        availability = np.full(which.shape[1], -np.inf)
        mean_downtime = self._moment(self._base_mean, self._mean_rows, which)
        scored = slice(None)
        if floor is not None:
            bound = _availability_bound(
                mean_downtime, self._servers, self._demand_fraction
            ).mean(axis=1)
            scored = bound + _BOUND_SLACK >= floor
            which, mean_downtime = which[:, scored], mean_downtime[scored]
        var_downtime = self._moment(self._base_var, self._var_rows, which)
        availability[scored] = _routed_availability(
            mean_downtime, var_downtime, self._servers, self._demand_fraction
        ).mean(axis=1)
        return availability


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
