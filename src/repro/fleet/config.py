"""Fleet configuration types (kw-only frozen dataclasses).

Everything the fleet engine varies across a datacenter — horizon,
traffic headroom, DRAM aging, correlated failure structure, rolling
repair — lives in these configs so that :func:`repro.api.simulate_fleet`
and :func:`repro.api.optimize_fleet` stay one-call entry points. All
constructors are keyword-only (see
:func:`repro.utils.dataclasses.kw_only_dataclass`): positional use is a
``TypeError``, which keeps the facade free to grow fields.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.design_space import RegionPolicy
from repro.utils.dataclasses import kw_only_dataclass
from repro.utils.validation import check_fraction

__all__ = [
    "AgingConfig",
    "CorrelationConfig",
    "FleetConfig",
    "FleetDesign",
    "CORRELATION_MODES",
]

#: How cross-server failure structure is sampled. ``correlated`` draws
#: fleet-wide shock events that hit whole cohorts in the same month;
#: ``independent`` preserves every per-server marginal rate but removes
#: the common-month coupling (the tail-comparison baseline).
CORRELATION_MODES = ("correlated", "independent")


@kw_only_dataclass
class AgingConfig:
    """DRAM aging error-rate curve (bathtub: infant decay + wear-out).

    The per-server error-rate multiplier at device age ``a`` months is::

        1 + infant_multiplier * exp(-a / infant_tau_months)
          + wearout_slope_per_month * max(0, a - wearout_onset_months)

    ``AgingConfig.flat()`` (all zeros) is the identity curve used when
    aging is disabled. Ages are deterministic — the fleet staggers
    deployment ages and rolls servers through repair/retirement — so
    both the simulator and the analytic model evaluate the *same* curve
    on the same age grid.
    """

    infant_multiplier: float = 1.5
    infant_tau_months: float = 3.0
    wearout_onset_months: float = 36.0
    wearout_slope_per_month: float = 0.04

    def __post_init__(self) -> None:
        if self.infant_multiplier < 0:
            raise ValueError(
                f"infant_multiplier must be >= 0, got {self.infant_multiplier}"
            )
        if self.infant_tau_months <= 0:
            raise ValueError(
                f"infant_tau_months must be > 0, got {self.infant_tau_months}"
            )
        if self.wearout_onset_months < 0:
            raise ValueError(
                "wearout_onset_months must be >= 0, "
                f"got {self.wearout_onset_months}"
            )
        if self.wearout_slope_per_month < 0:
            raise ValueError(
                "wearout_slope_per_month must be >= 0, "
                f"got {self.wearout_slope_per_month}"
            )

    @classmethod
    def flat(cls) -> "AgingConfig":
        """The identity curve (multiplier 1.0 at every age)."""
        return cls(
            infant_multiplier=0.0,
            infant_tau_months=1.0,
            wearout_onset_months=0.0,
            wearout_slope_per_month=0.0,
        )

    def multiplier(self, age_months):
        """Error-rate multiplier at ``age_months`` (scalar or ndarray)."""
        if isinstance(age_months, np.ndarray):
            decay = np.exp(-age_months / self.infant_tau_months)
            wear = np.maximum(0.0, age_months - self.wearout_onset_months)
            return (
                1.0
                + self.infant_multiplier * decay
                + self.wearout_slope_per_month * wear
            )
        decay = math.exp(-age_months / self.infant_tau_months)
        wear = max(0.0, age_months - self.wearout_onset_months)
        return (
            1.0
            + self.infant_multiplier * decay
            + self.wearout_slope_per_month * wear
        )


@kw_only_dataclass
class CorrelationConfig:
    """Cross-server failure structure.

    Two correlated modes layered on top of the per-server error chains:

    * **Shared-rank/row shocks** — fleet-scoped events (a rank shared by
      a row of machines, a faulty PSU segment) arriving at
      ``shock_rate_per_month`` per fleet-month; each event hits every
      server independently with probability ``shock_cohort_fraction``
      and costs ``shock_downtime_minutes`` of downtime per hit. In
      ``correlated`` mode the *same* event count drives every server's
      hit draw within a month (common-factor coupling); in
      ``independent`` mode each server draws hits from a Poisson with
      the identical marginal rate ``shock_rate * cohort_fraction`` —
      same mean downtime, no cross-server covariance.
    * **Batch-of-bad-DIMMs cohorts** — the first
      ``round(bad_batch_fraction * n)`` servers of each design group
      carry DIMMs from a marginal procurement batch and run at
      ``bad_batch_multiplier`` times the base error rate. Membership is
      deterministic, so the analytic model reproduces it exactly.
    """

    shock_rate_per_month: float = 0.0
    shock_cohort_fraction: float = 0.05
    shock_downtime_minutes: float = 10.0
    bad_batch_fraction: float = 0.0
    bad_batch_multiplier: float = 1.0
    mode: str = "correlated"

    def __post_init__(self) -> None:
        if self.shock_rate_per_month < 0:
            raise ValueError(
                "shock_rate_per_month must be >= 0, "
                f"got {self.shock_rate_per_month}"
            )
        check_fraction("shock_cohort_fraction", self.shock_cohort_fraction)
        if self.shock_downtime_minutes < 0:
            raise ValueError(
                "shock_downtime_minutes must be >= 0, "
                f"got {self.shock_downtime_minutes}"
            )
        check_fraction("bad_batch_fraction", self.bad_batch_fraction)
        if self.bad_batch_multiplier < 1.0:
            raise ValueError(
                "bad_batch_multiplier must be >= 1, "
                f"got {self.bad_batch_multiplier}"
            )
        if self.mode not in CORRELATION_MODES:
            raise ValueError(
                f"unknown mode '{self.mode}'; "
                f"expected one of {CORRELATION_MODES}"
            )

    @classmethod
    def disabled(cls) -> "CorrelationConfig":
        """No shocks, no bad batches (the uncorrelated fleet)."""
        return cls()

    def as_independent(self) -> "CorrelationConfig":
        """Same marginal rates with the cross-server coupling removed."""
        return dataclasses.replace(self, mode="independent")

    @property
    def shock_marginal_rate(self) -> float:
        """Expected shock hits per server-month (both modes)."""
        return self.shock_rate_per_month * self.shock_cohort_fraction


@kw_only_dataclass
class FleetDesign:
    """One HRM design deployable across a slice of the fleet.

    ``server_cost_savings`` is the fraction of baseline server cost the
    design saves (the explorer's ``DesignMetrics.server_cost_savings``);
    when ``None`` the engine computes it from the cost model and the
    profiled region sizes.
    """

    name: str
    policies: Mapping[str, RegionPolicy]
    server_cost_savings: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("design name must be non-empty")
        if not self.policies:
            raise ValueError(f"design '{self.name}' maps no regions")
        # Freeze the mapping so the dataclass is safely hashable-by-name
        # and shared between simulator and analytic model.
        object.__setattr__(self, "policies", dict(self.policies))


@kw_only_dataclass
class FleetConfig:
    """Shape of the simulated datacenter.

    Attributes:
        servers: Fleet size (heterogeneous-design servers).
        months: Simulation horizon in months.
        demand_fraction: Traffic demand as a fraction of total fleet
            capacity (one server == one capacity unit); the remainder is
            failover headroom. Fleet availability is
            ``served demand / demand`` after routing around downtime.
        retirement_age_months: Rolling repair/retirement period: a
            server is refurbished (age reset) when its device age wraps,
            costing ``repair_downtime_minutes`` that month. Deployment
            ages are staggered uniformly so the fleet never retires all
            at once.
        repair_downtime_minutes: Downtime charged in a refurbishment
            month.
        aging: DRAM aging curve (``AgingConfig.flat()`` disables).
        correlation: Cross-server failure structure
            (``CorrelationConfig.disabled()`` for independence).
        month_chunk: Months simulated per deterministic chunk — the
            unit of draw-path choice and seeding: chunk seeds derive
            only from (seed, chunk index), and each chunk's clip guard
            picks block rows or per-server rows for its months.
    """

    servers: int = 1000
    months: int = 60
    demand_fraction: float = 0.8
    retirement_age_months: int = 48
    repair_downtime_minutes: float = 30.0
    aging: AgingConfig = dataclasses.field(default_factory=AgingConfig.flat)
    correlation: CorrelationConfig = dataclasses.field(
        default_factory=CorrelationConfig.disabled
    )
    month_chunk: int = 256

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise ValueError(f"servers must be >= 1, got {self.servers}")
        if self.months < 1:
            raise ValueError(f"months must be >= 1, got {self.months}")
        if not 0.0 < self.demand_fraction <= 1.0:
            raise ValueError(
                "demand_fraction must be in (0, 1], "
                f"got {self.demand_fraction}"
            )
        if self.retirement_age_months < 1:
            raise ValueError(
                "retirement_age_months must be >= 1, "
                f"got {self.retirement_age_months}"
            )
        if self.repair_downtime_minutes < 0:
            raise ValueError(
                "repair_downtime_minutes must be >= 0, "
                f"got {self.repair_downtime_minutes}"
            )
        if self.month_chunk < 1:
            raise ValueError(
                f"month_chunk must be >= 1, got {self.month_chunk}"
            )


def apportion_servers(
    servers: int, fractions: Mapping[str, float]
) -> Mapping[str, int]:
    """Largest-remainder apportionment of ``servers`` across designs.

    Deterministic: quotas are floored, then the leftover servers go to
    the largest fractional remainders (ties broken by design name).
    Raises if the fractions do not sum to ~1 or any is negative.
    """
    if not fractions:
        raise ValueError("need at least one design fraction")
    names = list(fractions)
    counts = apportion_rows(
        servers, names, np.array([list(fractions.values())], dtype=np.float64)
    )
    return dict(zip(names, counts[0].tolist()))


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """``rows.sum(axis=1)`` as one vector add per column, left to right:
    NumPy's reduce adds in this order up to 7 columns (pairwise from 8),
    and on the optimizer's (10 626, 5) grid costs several times more."""
    total = np.zeros(rows.shape[0], dtype=rows.dtype)
    for column in range(rows.shape[1]):
        total += rows[:, column]
    return total


def apportion_rows(
    servers: int, names: Sequence[str], fractions: np.ndarray
) -> np.ndarray:
    """:func:`apportion_servers` for every row of ``fractions`` at once.

    ``fractions`` is ``(rows, len(names))``; returns the int64 counts in
    the same shape. This is the one apportionment rule: the composition
    optimizer calls it for its whole simplex grid.
    """
    totals = _row_sums(fractions)
    off = ~(np.abs(totals - 1.0) <= 1e-9)
    if off.any():
        raise ValueError(
            f"fractions must sum to 1, got {float(totals[off][0])}"
        )
    negative = fractions < 0
    if negative.any():
        name = names[int(np.argwhere(negative)[0][1])]
        raise ValueError(f"fraction for '{name}' must be >= 0")
    quotas = servers * fractions
    floors = np.floor(quotas)
    counts = floors.astype(np.int64)
    leftover = servers - _row_sums(counts)
    if not leftover.any():
        return counts
    # Only rows with servers left over need the remainder order.
    rows = np.flatnonzero(leftover)
    quotas, floors, leftover = quotas[rows], floors[rows], leftover[rows]
    rank_of = {name: rank for rank, name in enumerate(sorted(names))}
    name_ranks = np.broadcast_to(
        [rank_of[name] for name in names], quotas.shape
    )
    # Position of each design when its row is sorted by (largest
    # remainder, name); the first ``leftover`` positions get a server.
    order = np.lexsort((name_ranks, floors - quotas), axis=1)
    position = np.argsort(order, axis=1)
    counts[rows] += position < leftover[:, None]
    return counts
