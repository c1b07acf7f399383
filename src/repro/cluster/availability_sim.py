"""Single-server Monte Carlo availability: a one-server view of the fleet engine.

Cross-validates the analytic availability chain of
:mod:`repro.core.availability`. The paper has one availability model —
per-region error rate, outcomes thinned by the region's policy, crashes
× recovery minutes — and :mod:`repro.fleet` is the one place that draws
it (:class:`repro.fleet.layout.OutcomeRates`). A single server is that
engine's degenerate case: one server, flat aging, no correlated shocks,
refurbishment that costs no downtime. Beyond validation, the simulated
months also give distributional quantities the analytic model cannot
(availability percentiles across months).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.core.availability import (
    MINUTES_PER_MONTH,
    AvailabilityParams,
    ErrorRateModel,
)
from repro.core.design_space import RegionPolicy
from repro.core.vulnerability import VulnerabilityProfile
from repro.fleet.config import FleetConfig, FleetDesign
from repro.fleet.layout import FleetLayout
from repro.fleet.simulator import FleetSimulator, _percentile_index

_DESIGN_NAME = "one-server"


@dataclass
class MonthOutcome:
    """One simulated server-month."""

    errors: int = 0
    crashes: int = 0
    recoveries: int = 0
    incorrect_responses: float = 0.0
    downtime_minutes: float = 0.0

    @property
    def availability(self) -> float:
        """Availability for this month."""
        return max(0.0, 1.0 - self.downtime_minutes / MINUTES_PER_MONTH)


#: :class:`MonthOutcome` fields, in order: the simulator's month series.
_SERIES = tuple(series.name for series in fields(MonthOutcome))


class SimulationSummary:
    """Aggregate over many simulated months.

    Holds the five month series (:data:`_SERIES`); every statistic reads
    the ``crashes`` and ``downtime_minutes`` series, and :attr:`months`,
    one :class:`MonthOutcome` per month, is derived on first access.
    Built from ``months`` (``SimulationSummary(months=[...])``), the
    series are read off them.
    """

    def __init__(self, months: Optional[List[MonthOutcome]] = None) -> None:
        self.__dict__["months"] = [] if months is None else months
        self._series = {
            name: [getattr(month, name) for month in self.months]
            for name in _SERIES
        }

    @classmethod
    def _of_series(cls, *series: Sequence) -> "SimulationSummary":
        """A summary of month series given in :data:`_SERIES` order."""
        summary = cls.__new__(cls)
        summary._series = dict(zip(_SERIES, series))
        return summary

    def __eq__(self, other: object) -> bool:
        # Equal months, as the dataclass it replaced compared them.
        if not isinstance(other, SimulationSummary):
            return NotImplemented
        return self._series == other._series

    __hash__ = None  # mutable like the dataclass: unhashable

    def __repr__(self) -> str:
        return f"SimulationSummary({len(self._series['downtime_minutes'])} months)"

    @cached_property
    def months(self) -> List[MonthOutcome]:
        """One :class:`MonthOutcome` per simulated month."""
        return [MonthOutcome(*month) for month in zip(*self._series.values())]

    def _month_count(self) -> int:
        count = len(self._series["downtime_minutes"])
        if not count:
            raise ValueError("no months simulated")
        return count

    @cached_property
    def _ordered_availability(self) -> List[float]:
        """Monthly availabilities in ascending order, derived once.

        Element for element the :attr:`MonthOutcome.availability` values:
        the same IEEE operations on the same downtime.
        """
        self._month_count()
        downtime = np.asarray(self._series["downtime_minutes"], dtype=np.float64)
        return np.sort(np.maximum(0.0, 1.0 - downtime / MINUTES_PER_MONTH)).tolist()

    @property
    def mean_availability(self) -> float:
        """Average availability across months."""
        ordered = self._ordered_availability
        # The builtin sum over the ascending list: the bits do not
        # depend on how a vector sum happens to be blocked.
        return sum(ordered) / len(ordered)

    @property
    def mean_crashes(self) -> float:
        """Average crashes per month."""
        count = self._month_count()
        return sum(self._series["crashes"]) / count

    def availability_percentile(self, percentile: float) -> float:
        """Availability at a given percentile of months (0-100)."""
        ordered = self._ordered_availability
        return ordered[_percentile_index(percentile, len(ordered))]


class AvailabilitySimulator:
    """Simulates one server's months under an HRM design.

    Every draw is the fleet engine's: same seed, same
    :class:`~repro.fleet.simulator.FleetSimulator` series on
    :meth:`layout`, month for month.
    """

    def __init__(
        self,
        profile: VulnerabilityProfile,
        policies: Mapping[str, RegionPolicy],
        error_model: ErrorRateModel = ErrorRateModel(),
        params: AvailabilityParams = AvailabilityParams(),
        error_label: str = "single-bit soft",
        region_sizes: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.profile = profile
        self.policies = dict(policies)
        self.error_model = error_model
        self.params = params
        self.error_label = error_label
        sizes = dict(region_sizes) if region_sizes is not None else profile.region_sizes
        self.region_sizes = {
            region: sizes.get(region, 0) for region in self.policies
        }
        if sum(self.region_sizes.values()) <= 0:
            raise ValueError("design covers no sized regions")

    def layout(self, months: int) -> FleetLayout:
        """The one-server fleet whose ``months`` :meth:`simulate` draws.

        Aging is flat and refurbishment free, so the retirement period
        changes nothing; it must not grow with the horizon, because the
        layout builds one aging-table row per month of it.
        """
        config = FleetConfig(
            servers=1,
            months=months,
            retirement_age_months=1,
            repair_downtime_minutes=0.0,
        )
        design = FleetDesign(name=_DESIGN_NAME, policies=self.policies)
        return FleetLayout(
            self.profile,
            [design],
            {_DESIGN_NAME: 1},
            config,
            error_model=self.error_model,
            error_label=self.error_label,
            region_sizes=self.region_sizes,
        )

    def simulate(self, months: int, seed: int = 0) -> SimulationSummary:
        """Simulate ``months`` server-months (byte-identical per seed)."""
        result = FleetSimulator(self.layout(months), params=self.params).simulate(
            seed=seed
        )
        return SimulationSummary._of_series(
            result.errors_by_month,
            result.crashes_by_month,
            result.recoveries_by_month,
            result.incorrect_by_month,
            result.downtime_by_month,
        )
