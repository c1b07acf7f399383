"""Unit tests for repro.cluster (Monte-Carlo availability simulator)."""

import math
import tracemalloc

import pytest

from repro.cluster import (
    AvailabilitySimulator,
    MonthOutcome,
    SimulationSummary,
)
from repro.core.availability import (
    MINUTES_PER_MONTH,
    AvailabilityParams,
    ErrorRateModel,
    availability_from_crashes,
    design_outcome_rates,
)
from repro.core.design_space import HardwareTechnique, RegionPolicy, SoftwareResponse
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.fleet import FleetSimulator
from tests.property.test_prop_availability_view import PerEventOracle


@pytest.fixture
def profile():
    prof = VulnerabilityProfile(app="X")
    prof.region_sizes = {"private": 90, "heap": 10}
    cell = prof.cell("private", "single-bit soft")
    for _ in range(98):
        cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
    for _ in range(2):
        cell.record(ErrorOutcome.CRASH, 10, 0, 10, 1.0)
    heap_cell = prof.cell("heap", "single-bit soft")
    for _ in range(100):
        heap_cell.record(ErrorOutcome.MASKED_NEVER_ACCESSED, 100, 0, 0, None)
    return prof


POLICIES = {
    "private": RegionPolicy(technique=HardwareTechnique.NONE),
    "heap": RegionPolicy(technique=HardwareTechnique.NONE),
}

SERIES = (
    "errors",
    "crashes",
    "recoveries",
    "incorrect_responses",
    "downtime_minutes",
)


def series(summary):
    return {
        name: [getattr(month, name) for month in summary.months]
        for name in SERIES
    }


class TestAvailabilitySimulator:
    def test_matches_analytic_model(self, profile):
        policies = {
            "private": RegionPolicy(technique=HardwareTechnique.NONE),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        simulator = AvailabilitySimulator(profile, policies)
        summary = simulator.simulate(months=300, seed=1)
        # Analytic: 2000 errors * 0.9 share * 2% crash = 36 crashes/month.
        assert summary.mean_crashes == pytest.approx(36, rel=0.15)
        analytic = availability_from_crashes(36)
        assert summary.mean_availability == pytest.approx(analytic, abs=0.002)

    def test_ecc_eliminates_crashes(self, profile):
        policies = {
            "private": RegionPolicy(technique=HardwareTechnique.SEC_DED),
            "heap": RegionPolicy(technique=HardwareTechnique.SEC_DED),
        }
        summary = AvailabilitySimulator(profile, policies).simulate(50, seed=2)
        assert summary.mean_crashes == 0
        assert summary.mean_availability == 1.0

    def test_recovery_reduces_crashes(self, profile):
        base = {
            "private": RegionPolicy(technique=HardwareTechnique.NONE),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        protected = {
            "private": RegionPolicy(
                technique=HardwareTechnique.PARITY,
                response=SoftwareResponse.RECOVER,
            ),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        unprotected_summary = AvailabilitySimulator(profile, base).simulate(
            100, seed=3
        )
        protected_summary = AvailabilitySimulator(profile, protected).simulate(
            100, seed=3
        )
        assert protected_summary.mean_crashes < unprotected_summary.mean_crashes
        month = protected_summary.months[0]
        assert month.recoveries >= 0

    def test_less_tested_raises_error_volume(self, profile):
        tested = {
            "private": RegionPolicy(technique=HardwareTechnique.NONE),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        less = {
            "private": RegionPolicy(technique=HardwareTechnique.NONE, less_tested=True),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE, less_tested=True),
        }
        errs_tested = AvailabilitySimulator(profile, tested).simulate(50, seed=4)
        errs_less = AvailabilitySimulator(
            profile, less, error_model=ErrorRateModel(less_tested_multiplier=5)
        ).simulate(50, seed=4)
        mean_tested = sum(m.errors for m in errs_tested.months) / 50
        mean_less = sum(m.errors for m in errs_less.months) / 50
        assert mean_less == pytest.approx(5 * mean_tested, rel=0.1)

    def test_percentiles_ordered(self, profile):
        policies = {
            "private": RegionPolicy(technique=HardwareTechnique.NONE),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        summary = AvailabilitySimulator(profile, policies).simulate(200, seed=5)
        p5 = summary.availability_percentile(5)
        p50 = summary.availability_percentile(50)
        p95 = summary.availability_percentile(95)
        assert p5 <= p50 <= p95

    def test_validation(self, profile):
        policies = {"private": RegionPolicy(technique=HardwareTechnique.NONE)}
        simulator = AvailabilitySimulator(profile, policies)
        with pytest.raises(ValueError):
            simulator.simulate(0)
        with pytest.raises(ValueError):
            summary = simulator.simulate(2, seed=0)
            summary.availability_percentile(200)
        with pytest.raises(ValueError):
            AvailabilitySimulator(profile, {"ghost": RegionPolicy(technique=HardwareTechnique.NONE)})

    def test_summary_statistics_are_the_per_call_derivation(self, profile):
        """The availability series is derived and sorted once per
        summary; every statistic equals the one computed from scratch,
        in whatever order it is asked for."""
        summary = AvailabilitySimulator(profile, POLICIES).simulate(90, seed=6)
        ordered = sorted(month.availability for month in summary.months)
        assert len(set(ordered)) > 10
        for percentile in (95, 0, 50, 100, 5):
            index = max(0, math.ceil(percentile / 100 * 90) - 1)
            assert summary.availability_percentile(percentile) == ordered[index]
        assert summary.mean_availability == pytest.approx(
            sum(month.availability for month in summary.months) / 90,
            rel=1e-12,
        )
        with pytest.raises(ValueError):
            SimulationSummary().mean_availability
        with pytest.raises(ValueError):
            SimulationSummary().availability_percentile(50)

    def test_unknown_backend_rejected(self, profile):
        """There is one engine: ``backend=`` is not an argument."""
        policies = {
            "private": RegionPolicy(technique=HardwareTechnique.NONE),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        with pytest.raises(TypeError):
            AvailabilitySimulator(profile, policies, backend="fpga")


class TestVectorizedSimulatorBackend:
    """The engine's batched draws against the per-event scalar loop they
    replaced (frozen in tests/property/test_prop_availability_view.py,
    which holds the full two-sample contract): the streams differ, so
    means/percentiles match within Monte Carlo error, not bitwise."""

    def test_matches_scalar_statistics(self, profile):
        scalar = SimulationSummary(
            months=PerEventOracle(
                profile, POLICIES, ErrorRateModel(), AvailabilityParams()
            ).simulate(300, seed=1)
        )
        vectorized = AvailabilitySimulator(profile, POLICIES).simulate(
            300, seed=1
        )
        assert vectorized.mean_crashes == pytest.approx(
            scalar.mean_crashes, rel=0.15
        )
        assert vectorized.mean_availability == pytest.approx(
            scalar.mean_availability, abs=0.002
        )
        assert vectorized.availability_percentile(50) == pytest.approx(
            scalar.availability_percentile(50), abs=0.005
        )

    def test_matches_analytic_model(self, profile):
        """Every count ``design_outcome_rates`` predicts, on a design
        that recovers part of what it detects and has a less-tested
        region (TestAvailabilitySimulator holds the NoECC anchor)."""
        policies = {
            "private": RegionPolicy(
                technique=HardwareTechnique.PARITY,
                response=SoftwareResponse.RECOVER,
                recoverable_fraction=0.75,
            ),
            "heap": RegionPolicy(
                technique=HardwareTechnique.NONE, less_tested=True
            ),
        }
        analytic = design_outcome_rates(profile, policies).values()
        summary = AvailabilitySimulator(profile, policies).simulate(400, seed=1)
        drawn = series(summary)
        for name, tolerance in (
            ("errors", 0.01), ("recoveries", 0.01), ("crashes", 0.05)
        ):
            expected = sum(getattr(r, f"{name}_per_month") for r in analytic)
            assert sum(drawn[name]) / 400 == pytest.approx(
                expected, rel=tolerance
            ), name
        crashes = sum(rates.crashes_per_month for rates in analytic)
        assert crashes == pytest.approx(9)
        assert summary.mean_availability == pytest.approx(
            availability_from_crashes(crashes), abs=0.0002
        )

    def test_recovery_reduces_crashes(self, profile):
        """By the recoverable fraction: a quarter of the detected errors
        are consumed, so a quarter of the crashes remain."""
        protected = {
            "private": RegionPolicy(
                technique=HardwareTechnique.PARITY,
                response=SoftwareResponse.RECOVER,
                recoverable_fraction=0.75,
            ),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        base_summary = AvailabilitySimulator(profile, POLICIES).simulate(
            200, seed=3
        )
        protected_summary = AvailabilitySimulator(profile, protected).simulate(
            200, seed=3
        )
        assert protected_summary.mean_crashes == pytest.approx(
            0.25 * base_summary.mean_crashes, rel=0.1
        )
        recoveries = series(protected_summary)["recoveries"]
        assert sum(recoveries) / 200 == pytest.approx(0.75 * 1800, rel=0.02)

    def test_seed_reproducible(self, profile):
        simulator = AvailabilitySimulator(profile, POLICIES)
        first, again, other = (
            simulator.simulate(50, seed=seed) for seed in (9, 9, 10)
        )
        assert series(first) == series(again)
        assert first.mean_availability == again.mean_availability
        assert series(first)["errors"] != series(other)["errors"]


class TestFleetAndAutoBackends:
    """The simulator is a view of repro.fleet's one-server case (what
    ``backend="fleet"`` used to select; there is no other backend now):
    it adds nothing to the engine's draws, and nothing about it grows
    with the horizon."""

    def test_fleet_backend_matches_analytic_model(self, profile):
        """Through ``design_outcome_rates``, RESTART included: the engine
        charges a restarting region's harm as crashes, never as
        incorrect responses, exactly like the analytic chain."""
        policies = {
            "private": RegionPolicy(
                technique=HardwareTechnique.PARITY,
                response=SoftwareResponse.RESTART,
            ),
            "heap": RegionPolicy(technique=HardwareTechnique.NONE),
        }
        analytic = design_outcome_rates(profile, policies)
        summary = AvailabilitySimulator(profile, policies).simulate(300, seed=1)
        crashes = sum(rates.crashes_per_month for rates in analytic.values())
        assert crashes == pytest.approx(36)
        assert summary.mean_crashes == pytest.approx(crashes, rel=0.05)
        assert summary.mean_availability == pytest.approx(
            availability_from_crashes(crashes), abs=0.0005
        )
        assert sum(
            rates.incorrect_responses_per_month for rates in analytic.values()
        ) == 0.0
        assert series(summary)["incorrect_responses"] == [0.0] * 300

    def test_fleet_backend_seed_reproducible(self, profile):
        """The view's five series are ``FleetSimulator``'s own, value for
        value, and byte-identical across runs."""
        simulator = AvailabilitySimulator(profile, POLICIES)
        direct = FleetSimulator(
            simulator.layout(50), params=simulator.params
        ).simulate(seed=9)
        expected = {
            "errors": direct.errors_by_month,
            "crashes": direct.crashes_by_month,
            "recoveries": direct.recoveries_by_month,
            "incorrect_responses": direct.incorrect_by_month,
            "downtime_minutes": direct.downtime_by_month,
        }
        first = series(simulator.simulate(50, seed=9))
        assert first == expected
        assert repr(first) == repr(series(simulator.simulate(50, seed=9)))

    def test_fleet_backend_month_count_and_no_fleet_effects(self, profile):
        summary = AvailabilitySimulator(profile, POLICIES).simulate(40, seed=3)
        assert len(summary.months) == 40
        # One server has no shocks and its refurbishment costs nothing,
        # so below the clip every month is pure crash downtime.
        for month in summary.months:
            assert month.downtime_minutes < MINUTES_PER_MONTH
            assert month.downtime_minutes == pytest.approx(
                month.crashes * 10.0
            )

    def test_cost_does_not_grow_with_the_horizon(self, profile):
        """A retirement period tied to the horizon (``months + 1``) made
        every 256-month chunk build ``(months + 1, 256)`` aging tables:
        ~47 MiB at 12 000 months, against the result's own few MiB."""
        simulator = AvailabilitySimulator(profile, POLICIES)
        short = simulator.layout(12).config
        long = simulator.layout(12_000).config
        assert short.retirement_age_months == long.retirement_age_months
        assert long.repair_downtime_minutes == 0.0
        tracemalloc.start()
        try:
            summary = simulator.simulate(12_000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(summary.months) == 12_000
        assert peak < 12 * 2**20


def month_statistics(months):
    """The summary's statistics derived month by month from
    ``MonthOutcome`` objects (how the summary computed them before it
    read the series as arrays)."""
    ordered = sorted(month.availability for month in months)
    count = len(ordered)
    stats = {
        "mean_availability": sum(ordered) / count,
        "mean_crashes": sum(month.crashes for month in months) / count,
    }
    for percentile in (0, 5, 50, 95, 100):
        index = min(count - 1, max(0, math.ceil(percentile / 100 * count) - 1))
        stats[f"p{percentile}"] = ordered[index]
    return stats


def summary_statistics(summary):
    stats = {
        "mean_availability": summary.mean_availability,
        "mean_crashes": summary.mean_crashes,
    }
    for percentile in (0, 5, 50, 95, 100):
        stats[f"p{percentile}"] = summary.availability_percentile(percentile)
    return stats


class TestArraySummary:
    """``simulate`` hands the summary the engine's month series; no
    ``MonthOutcome`` exists until ``months`` is read, and every statistic
    is bit for bit the one the objects give."""

    @pytest.mark.parametrize("months", [1, 255, 256, 257, 1200])
    @pytest.mark.parametrize("seed", [0, 5, 29])
    def test_statistics_are_the_month_by_month_ones(
        self, profile, months, seed
    ):
        simulator = AvailabilitySimulator(profile, POLICIES)
        got = summary_statistics(simulator.simulate(months, seed=seed))
        outcomes = simulator.simulate(months, seed=seed).months
        assert len(outcomes) == months
        if months >= 255:
            assert len({month.availability for month in outcomes}) >= 10
        want = month_statistics(outcomes)
        assert got == want
        assert repr(got) == repr(want)

    def test_months_are_built_on_first_read_only(self, profile):
        summary = AvailabilitySimulator(profile, POLICIES).simulate(300, seed=4)
        summary_statistics(summary)
        assert "months" not in vars(summary)
        months = summary.months
        assert summary.months is months
        assert all(isinstance(month, MonthOutcome) for month in months)

    def test_built_from_months_keeps_them_and_agrees(self, profile):
        simulated = AvailabilitySimulator(profile, POLICIES).simulate(
            300, seed=8
        )
        months = list(simulated.months)
        rebuilt = SimulationSummary(months=months)
        assert rebuilt.months is months
        got = summary_statistics(rebuilt)
        assert got == summary_statistics(simulated) == month_statistics(months)
        assert repr(got) == repr(month_statistics(months))

    def test_summaries_compare_by_their_months(self, profile):
        simulator = AvailabilitySimulator(profile, POLICIES)
        simulated = simulator.simulate(300, seed=8)
        assert simulated == SimulationSummary(months=list(simulated.months))
        assert simulated == simulator.simulate(300, seed=8)
        assert simulated != simulator.simulate(300, seed=9)
        assert simulated != simulator.simulate(299, seed=8)
        assert repr(simulated) == "SimulationSummary(300 months)"
        with pytest.raises(TypeError):
            hash(simulated)
