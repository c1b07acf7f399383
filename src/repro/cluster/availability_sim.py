"""Monte-Carlo single-server availability simulation.

Cross-validates the analytic availability chain of
:mod:`repro.core.availability`: errors arrive as a Poisson process over
a simulated month, each error lands in a region (size-weighted) and is
resolved per that region's policy; crashes accrue recovery downtime.
Beyond validation, the simulation also reports distributional quantities
the analytic model cannot (downtime percentiles across months), and
optionally models page retirement suppressing repeat hard errors.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Mapping, Optional

from repro.core.availability import (
    MINUTES_PER_MONTH,
    AvailabilityParams,
    ErrorRateModel,
)
from repro.core.design_space import RegionPolicy, SoftwareResponse
from repro.core.vulnerability import VulnerabilityProfile
from repro.utils.rng import poisson_variate

#: Simulation execution strategies: ``scalar`` is the per-event Python
#: loop; ``vectorized`` delegates to the NumPy batched simulator in
#: :mod:`repro.explore.simulator` (statistically equivalent, different
#: draw stream); ``fleet`` delegates a fleet-of-one to the fleet engine
#: (:mod:`repro.fleet.simulator`); ``auto`` is ``vectorized`` when
#: NumPy is importable, else ``scalar``.
SIMULATOR_BACKENDS = ("auto", "scalar", "vectorized", "fleet")


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


@dataclass
class SimulationSummary:
    """Aggregate over many simulated months."""

    months: List[MonthOutcome] = field(default_factory=list)

    @property
    def mean_availability(self) -> float:
        """Average availability across months."""
        if not self.months:
            raise ValueError("no months simulated")
        return sum(month.availability for month in self.months) / len(self.months)

    @property
    def mean_crashes(self) -> float:
        """Average crashes per month."""
        if not self.months:
            raise ValueError("no months simulated")
        return sum(month.crashes for month in self.months) / len(self.months)

    def availability_percentile(self, percentile: float) -> float:
        """Availability at a given percentile of months (0-100)."""
        if not 0 <= percentile <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {percentile}")
        ordered = sorted(month.availability for month in self.months)
        index = min(
            len(ordered) - 1, max(0, math.ceil(percentile / 100 * len(ordered)) - 1)
        )
        return ordered[index]


class AvailabilitySimulator:
    """Simulates server-months under an HRM design."""

    def __init__(
        self,
        profile: VulnerabilityProfile,
        policies: Mapping[str, RegionPolicy],
        error_model: ErrorRateModel = ErrorRateModel(),
        params: AvailabilityParams = AvailabilityParams(),
        error_label: str = "single-bit soft",
        region_sizes: Optional[Mapping[str, int]] = None,
        backend: str = "scalar",
    ) -> None:
        if backend not in SIMULATOR_BACKENDS:
            raise ValueError(
                f"unknown backend '{backend}'; expected one of {SIMULATOR_BACKENDS}"
            )
        self.profile = profile
        self.policies = dict(policies)
        self.error_model = error_model
        self.params = params
        self.error_label = error_label
        self.backend = backend
        sizes = dict(region_sizes) if region_sizes is not None else profile.region_sizes
        self.region_sizes = {
            region: sizes.get(region, 0) for region in self.policies
        }
        total = sum(self.region_sizes.values())
        if total <= 0:
            raise ValueError("design covers no sized regions")
        self._region_names = list(self.policies)
        self._region_weights = [
            self.region_sizes[region] / total for region in self._region_names
        ]

    def _arrival_rate(self) -> float:
        """Expected errors per month across all regions (with L uplift)."""
        rate = 0.0
        for region, weight in zip(self._region_names, self._region_weights):
            rate += self.error_model.region_rate(
                weight, self.policies[region].less_tested
            )
        return rate

    def simulate_month(self, rng: random.Random) -> MonthOutcome:
        """Simulate one server-month of Poisson error arrivals."""
        outcome = MonthOutcome()
        # Per-region arrival rates; sample counts then resolve each error.
        for region, weight in zip(self._region_names, self._region_weights):
            policy = self.policies[region]
            rate = self.error_model.region_rate(weight, policy.less_tested)
            # Exact Knuth/PTRS Poisson sample (returns 0 at rate 0).
            # Historically a local wrapper used a normal approximation
            # above mean 500; delegating to the exact sampler changed
            # the draw sequence but not the statistics.
            count = poisson_variate(rng, rate)
            outcome.errors += count
            crash_probability = self.profile.region_crash_probability(
                region, self.error_label
            )
            stats = self.profile.cells.get((region, self.error_label))
            incorrect_per_error = 0.0
            if stats is not None and stats.trials:
                incorrect_per_error = (
                    stats.incorrect_responses + stats.failed_requests
                ) / stats.trials
            for _ in range(count):
                if policy.technique.corrects_single_bit:
                    continue
                if (
                    policy.technique.detects_single_bit
                    and policy.response is SoftwareResponse.RECOVER
                    and rng.random() < policy.recoverable_fraction
                ):
                    outcome.recoveries += 1
                    continue
                if rng.random() < crash_probability:
                    outcome.crashes += 1
                    outcome.downtime_minutes += self.params.crash_recovery_minutes
                else:
                    outcome.incorrect_responses += incorrect_per_error
        return outcome

    def simulate(self, months: int, seed: int = 0) -> SimulationSummary:
        """Simulate many server-months.

        The ``vectorized`` backend draws from a different (NumPy) stream
        than the scalar per-event loop, so its summaries are
        statistically — not bitwise — equivalent.
        """
        if months <= 0:
            raise ValueError(f"months must be positive, got {months}")
        backend = self.backend
        if backend == "auto":
            from repro.core.optimizer import _numpy_available

            backend = "vectorized" if _numpy_available() else "scalar"
        if backend == "vectorized":
            from repro.explore.simulator import BatchAvailabilitySimulator

            batch = BatchAvailabilitySimulator(
                self.profile,
                [self.policies],
                error_model=self.error_model,
                params=self.params,
                error_label=self.error_label,
                region_sizes=self.region_sizes,
            )
            return batch.simulate(months, seed=seed).to_summary(0)
        if backend == "fleet":
            return self._simulate_fleet_of_one(months, seed)
        rng = random.Random(seed)
        summary = SimulationSummary()
        for _ in range(months):
            summary.months.append(self.simulate_month(rng))
        return summary

    def _simulate_fleet_of_one(self, months: int, seed: int) -> SimulationSummary:
        """Delegate to the fleet engine: one server, no fleet effects.

        Aging is flat, correlation disabled, and refurbishment is
        scheduled past the horizon, so the fleet chain reduces to the
        same Poisson/binomial month model (different draw stream —
        statistically, not bitwise, equivalent to ``scalar``).
        """
        from repro.core.mapping import HRMDesign
        from repro.fleet.config import FleetConfig
        from repro.fleet.layout import FleetLayout
        from repro.fleet.simulator import FleetSimulator

        config = FleetConfig(
            servers=1,
            months=months,
            retirement_age_months=months + 1,
            repair_downtime_minutes=0.0,
        )
        design = HRMDesign("fleet-of-one", self.policies)
        layout = FleetLayout(
            self.profile,
            [design],
            {"fleet-of-one": 1},
            config,
            error_model=self.error_model,
            error_label=self.error_label,
            region_sizes=self.region_sizes,
        )
        result = FleetSimulator(layout, params=self.params).simulate(seed=seed)
        summary = SimulationSummary()
        for month in range(months):
            summary.months.append(
                MonthOutcome(
                    errors=result.errors_by_month[month],
                    crashes=result.crashes_by_month[month],
                    recoveries=result.recoveries_by_month[month],
                    incorrect_responses=result.incorrect_by_month[month],
                    downtime_minutes=result.downtime_by_month[month],
                )
            )
        return summary
