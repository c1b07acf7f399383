"""Unit tests for repro.fleet (simulator, analytic model, optimizer).

The acceptance behaviors pinned here:

* seeded ``simulate_fleet`` is byte-identical across runs and
  ``workers`` counts (only the ``workers`` metadata field may differ);
* the analytic model's means sit inside the Monte Carlo CI95 on an
  uncorrelated fleet;
* correlated shocks provably fatten the p99 fleet-downtime tail versus
  the independent baseline with matched marginal rates;
* the optimizer's mixed composition dominates every single-design fleet
  on a seeded scenario.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import oracles
from repro.core.availability import ErrorRateModel, design_outcome_rates
from repro.core.mapping import (
    consumer_pc,
    less_tested,
    paper_design_points,
    typical_server,
)
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.fleet import (
    AgingConfig,
    CorrelationConfig,
    FleetConfig,
    FleetDesign,
    FleetLayout,
    FleetSimulator,
    analytic_matches_simulation,
    analyze_fleet,
    apportion_servers,
    ci_contains,
    optimize_fleet,
    simulate_fleet,
)
from repro.fleet.analytic import CompositionGrid
from repro.fleet.layout import OutcomeRates, RegionTable, bad_batch_servers

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: region -> (size, crash trials, incorrect trials) out of 1000 trials.
REGIONS = {"private": (4000, 12, 5), "heap": (2500, 8, 9), "stack": (300, 50, 1)}


@pytest.fixture(scope="module")
def profile():
    prof = VulnerabilityProfile(app="synthetic")
    prof.region_sizes = {name: spec[0] for name, spec in REGIONS.items()}
    for name, (_, crash_trials, incorrect_trials) in REGIONS.items():
        cell = prof.cell(name, "single-bit soft")
        for _ in range(crash_trials):
            cell.record(ErrorOutcome.CRASH, 10, 0, 10, 0.5)
        for _ in range(incorrect_trials):
            cell.record(ErrorOutcome.INCORRECT, 100, 2, 0, 5.0)
        for _ in range(1000 - crash_trials - incorrect_trials):
            cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
    return prof


@pytest.fixture(scope="module")
def designs(profile):
    regions = sorted(profile.region_sizes)
    return [typical_server(regions), less_tested(regions)]


class TestDeterminism:
    CONFIG = FleetConfig(servers=50, months=40, month_chunk=16)

    def test_same_seed_byte_identical(self, profile, designs):
        first = simulate_fleet(
            profile, designs=designs, config=self.CONFIG, seed=5
        )
        second = simulate_fleet(
            profile, designs=designs, config=self.CONFIG, seed=5
        )
        assert first.to_dict() == second.to_dict()

    def test_different_seeds_differ(self, profile, designs):
        first = simulate_fleet(
            profile, designs=designs, config=self.CONFIG, seed=5
        )
        second = simulate_fleet(
            profile, designs=designs, config=self.CONFIG, seed=6
        )
        assert first.downtime_by_month != second.downtime_by_month


class TestAnalyticCrossValidation:
    def test_analytic_within_mc_ci(self, profile, designs):
        config = FleetConfig(servers=60, months=120, month_chunk=32)
        simulated = simulate_fleet(
            profile, designs=designs, config=config, seed=3
        )
        analytic = analyze_fleet(profile, designs=designs, config=config)
        verdicts = analytic_matches_simulation(analytic, simulated)
        assert verdicts == {
            "machine_availability": True,
            "fleet_availability": True,
        }
        assert simulated.mean_machine_availability == pytest.approx(
            analytic.mean_machine_availability, abs=0.002
        )

    def test_per_design_availability_ordering(self, profile, designs):
        # Less-tested DRAM (5x error rate, no ECC) must be strictly less
        # available than the fully corrected typical server.
        config = FleetConfig(servers=60, months=60, month_chunk=32)
        simulated = simulate_fleet(
            profile, designs=designs, config=config, seed=3
        )
        analytic = analyze_fleet(profile, designs=designs, config=config)
        for result in (simulated, analytic):
            assert result.machine_availability_of(
                "Typical Server"
            ) > result.machine_availability_of("Less-Tested (L)")

    def test_ci_contains(self):
        assert ci_contains((0.4, 0.6), 0.5)
        assert not ci_contains((0.4, 0.6), 0.7)


class TestCorrelatedShocks:
    def test_correlated_mode_fattens_p99_tail(self, profile, designs):
        """Same marginal shock rate; only the coupling differs — the
        correlated fleet's p99 monthly downtime must sit above the
        independent baseline while the means stay matched."""
        correlated = CorrelationConfig(
            shock_rate_per_month=1.0,
            shock_cohort_fraction=0.4,
            shock_downtime_minutes=60.0,
        )
        base = dict(servers=200, months=120, month_chunk=32)
        sim_corr = simulate_fleet(
            profile,
            designs=designs,
            config=FleetConfig(correlation=correlated, **base),
            seed=7,
        )
        sim_ind = simulate_fleet(
            profile,
            designs=designs,
            config=FleetConfig(
                correlation=correlated.as_independent(), **base
            ),
            seed=7,
        )
        assert sim_corr.downtime_percentile(99) > sim_ind.downtime_percentile(99)
        mean_corr = sum(sim_corr.downtime_by_month) / len(sim_corr.downtime_by_month)
        mean_ind = sum(sim_ind.downtime_by_month) / len(sim_ind.downtime_by_month)
        assert mean_corr == pytest.approx(mean_ind, rel=0.05)

    def test_analytic_variance_reflects_coupling(self, profile, designs):
        correlated = CorrelationConfig(
            shock_rate_per_month=1.0,
            shock_cohort_fraction=0.4,
            shock_downtime_minutes=60.0,
        )
        base = dict(servers=200, months=24)
        ana_corr = analyze_fleet(
            profile,
            designs=designs,
            config=FleetConfig(correlation=correlated, **base),
        )
        ana_ind = analyze_fleet(
            profile,
            designs=designs,
            config=FleetConfig(
                correlation=correlated.as_independent(), **base
            ),
        )
        assert all(
            vc > vi
            for vc, vi in zip(
                ana_corr.var_downtime_by_month, ana_ind.var_downtime_by_month
            )
        )
        assert list(ana_corr.mean_downtime_by_month) == pytest.approx(
            list(ana_ind.mean_downtime_by_month)
        )

    def test_bad_batch_raises_error_volume(self, profile, designs):
        base = dict(servers=40, months=48, month_chunk=16)
        clean = simulate_fleet(
            profile, designs=designs, config=FleetConfig(**base), seed=2
        )
        bad = simulate_fleet(
            profile,
            designs=designs,
            config=FleetConfig(
                correlation=CorrelationConfig(
                    bad_batch_fraction=0.5, bad_batch_multiplier=4.0
                ),
                **base,
            ),
            seed=2,
        )
        assert sum(bad.errors_by_month) > 1.5 * sum(clean.errors_by_month)


class TestAgingAndRepair:
    def test_bathtub_aging_raises_error_volume(self, profile, designs):
        base = dict(servers=40, months=48, month_chunk=16)
        flat = simulate_fleet(
            profile, designs=designs, config=FleetConfig(**base), seed=2
        )
        aged = simulate_fleet(
            profile,
            designs=designs,
            config=FleetConfig(aging=AgingConfig(), **base),
            seed=2,
        )
        assert sum(aged.errors_by_month) > sum(flat.errors_by_month)

    def test_aging_curve_shape(self):
        curve = AgingConfig()
        assert curve.multiplier(0.0) > curve.multiplier(12.0)  # infant decay
        assert curve.multiplier(48.0) > curve.multiplier(36.0)  # wear-out
        flat = AgingConfig.flat()
        assert flat.multiplier(0.0) == flat.multiplier(47.0) == 1.0

    def test_rolling_repair_happens_and_costs_downtime(self, profile, designs):
        config = FleetConfig(
            servers=40,
            months=48,
            month_chunk=16,
            repair_downtime_minutes=30.0,
        )
        result = simulate_fleet(
            profile, designs=designs, config=config, seed=2
        )
        assert sum(result.repairs_by_month) > 0
        # Staggered deployment: never the whole fleet in one month.
        assert max(result.repairs_by_month) < config.servers


class TestBackends:
    def test_scalar_matches_vectorized_statistics(self, profile, designs):
        error_model = ErrorRateModel(errors_per_server_month=40.0)
        config = FleetConfig(servers=8, months=60, month_chunk=16)
        scalar = oracles.simulate_fleet(
            profile,
            designs=designs,
            config=config,
            seed=11,
            error_model=error_model,
        )
        vectorized = simulate_fleet(
            profile,
            designs=designs,
            config=config,
            seed=11,
            error_model=error_model,
        )
        assert scalar.backend == "scalar"
        assert vectorized.backend == "vectorized"
        assert sum(scalar.crashes_by_month) == pytest.approx(
            sum(vectorized.crashes_by_month), rel=0.15
        )
        assert scalar.mean_machine_availability == pytest.approx(
            vectorized.mean_machine_availability, abs=0.002
        )

    def test_auto_resolves_to_vectorized_with_numpy(self, profile, designs):
        config = FleetConfig(servers=10, months=12, month_chunk=8)
        result = simulate_fleet(profile, designs=designs, config=config)
        assert result.backend == "vectorized"


class TestDesignDowntimeReconciles:
    """Per-design downtime is summed from the per-server array *after*
    the monthly clip, on both backends: shocks longer than a month used
    to double the design totals and push availabilities below zero."""

    CONFIG = FleetConfig(
        servers=50,
        months=24,
        month_chunk=16,
        correlation=CorrelationConfig(
            shock_rate_per_month=3.0,
            shock_cohort_fraction=0.9,
            shock_downtime_minutes=30000.0,
        ),
    )

    @pytest.mark.parametrize(
        "simulate",
        [
            pytest.param(simulate_fleet, id="vectorized"),
            pytest.param(oracles.simulate_fleet, id="scalar"),
        ],
    )
    def test_design_and_month_totals_are_the_same_minutes(
        self, profile, designs, simulate
    ):
        result = simulate(
            profile,
            designs=designs,
            config=self.CONFIG,
            seed=4,
            error_model=ErrorRateModel(errors_per_server_month=40.0),
        )
        # The clip binds: far more shock minutes were drawn than fit.
        drawn = 30000.0 * sum(result.shock_hits_by_month)
        assert drawn > 1.5 * sum(result.downtime_by_month)
        assert sum(result.downtime_by_design.values()) == pytest.approx(
            sum(result.downtime_by_month)
        )
        for name in result.composition:
            assert 0.0 <= result.machine_availability_of(name) <= 1.0
        assert 0.0 <= result.mean_machine_availability <= 1.0


class TestLayoutArrays:
    """The layout evaluates the aging curve once per distinct age and
    derives the repair mask from the same age grid; both must equal the
    direct per-element evaluation they replaced, element for element."""

    CONFIG = FleetConfig(
        servers=37,
        months=130,
        retirement_age_months=48,
        aging=AgingConfig(),
        correlation=CorrelationConfig(
            bad_batch_fraction=0.2, bad_batch_multiplier=3.0
        ),
    )

    @pytest.fixture(scope="class")
    def layout(self, profile, designs):
        counts = apportion_servers(
            self.CONFIG.servers, {design.name: 0.5 for design in designs}
        )
        return FleetLayout(profile, designs, counts, self.CONFIG)

    @pytest.mark.parametrize("window", [(0, 130), (0, 1), (47, 50), (96, 130)])
    def test_ages_multipliers_and_repairs(self, layout, window):
        start, stop = window
        config = self.CONFIG
        months = np.arange(start, stop, dtype=np.int64)
        ages = (
            layout.initial_ages[:, None] + months[None, :]
        ) % config.retirement_age_months
        assert np.array_equal(layout.ages(start, stop), ages)
        assert layout.ages(start, stop).dtype == ages.dtype
        expected = config.aging.multiplier(ages.astype(np.float64))
        for block in layout.blocks:
            assert block.bad_stop > block.start
            expected[block.start:block.bad_stop, :] *= 3.0
        for given in (None, ages):
            assert np.array_equal(
                layout.multipliers(start, stop, given), expected
            )
            assert np.array_equal(
                layout.repairs(start, stop, given),
                (ages == 0) & (months[None, :] > 0),
            )

    @pytest.mark.parametrize("window", [(0, 130), (0, 1), (47, 50), (96, 130)])
    def test_block_months_are_the_block_sums_of_the_arrays(self, layout, window):
        """The age census gives, per block, what summing the
        ``(servers, span)`` arrays over its servers gives: the same
        repair counts and peak, the same mass up to summation order."""
        mass, repairs, peak = layout.block_months(*window)
        mult = layout.multipliers(*window)
        mask = layout.repairs(*window)
        assert repairs.dtype == np.int64
        for row, block in enumerate(layout.blocks):
            rows = slice(block.start, block.stop)
            assert mass[row] == pytest.approx(mult[rows].sum(axis=0), rel=1e-13)
            assert np.array_equal(repairs[row], mask[rows].sum(axis=0))
            assert peak[row] == mult[rows].max()

    @pytest.mark.parametrize("fraction", [0.5, 0.25, 0.125, 0.05, 0.1])
    def test_bad_batch_rule_on_arrays_is_the_scalar_rule(self, fraction):
        """``np.round`` on the whole block-size vector rounds halves to
        even exactly as ``round`` does on one size."""
        sizes = np.arange(1001, dtype=np.int64)
        got = bad_batch_servers(fraction, sizes)
        assert got.dtype == np.int64
        want = [int(round(fraction * size)) for size in range(1001)]
        assert got.tolist() == want
        assert [bad_batch_servers(fraction, size) for size in range(1001)] == want
        halves = [size for size in range(1001) if fraction * size % 1 == 0.5]
        if fraction in (0.5, 0.25, 0.125):
            assert len(halves) > 100
            # Halves go to the even neighbour: 0.5 -> 0, 1.5 -> 2, 2.5 -> 2.
            assert [int(got[size]) % 2 for size in halves] == [0] * len(halves)

    @pytest.mark.parametrize(
        "config, aggregated",
        [
            (CONFIG, True),
            # Shocks that take a whole month: the clip can bind, so the
            # chunks draw per-server rows and read no census.
            (
                dataclasses.replace(
                    CONFIG,
                    correlation=CorrelationConfig(
                        shock_rate_per_month=1.0,
                        shock_downtime_minutes=43_200.0,
                    ),
                ),
                False,
            ),
        ],
    )
    def test_one_age_census_per_chunk(
        self, profile, designs, monkeypatch, config, aggregated
    ):
        """The guard's ``block_months`` is the one an aggregated chunk
        draws from: one census per chunk, however often it simulates."""
        counts = apportion_servers(
            config.servers, {design.name: 0.5 for design in designs}
        )
        layout = FleetLayout(
            profile, designs, counts, dataclasses.replace(config, month_chunk=32)
        )
        calls = []
        census = FleetLayout.block_months

        def counted(self, start, stop):
            calls.append((start, stop))
            return census(self, start, stop)

        monkeypatch.setattr(FleetLayout, "block_months", counted)
        simulator = FleetSimulator(layout)
        first = simulator.simulate(seed=3).to_dict()
        assert simulator.simulate(seed=3).to_dict() == first
        chunks = simulator.chunks
        assert len(chunks) == 5
        assert [chunk.aggregated for chunk in chunks] == [aggregated] * 5
        assert calls == [(chunk.start, chunk.stop) for chunk in chunks]

    def test_multipliers_do_not_alias_the_curve(self, layout):
        first = layout.multipliers(0, 12)
        first[:] = 0.0
        assert layout.multipliers(0, 12).min() >= 1.0


class TestOutcomeRates:
    """One definition of the thinned rates: the simulator draws from
    ``DesignBlock.outcomes`` and the optimizer's grid integrates the
    same numbers."""

    @pytest.fixture(scope="class")
    def paper_designs(self, profile):
        return [
            FleetDesign(
                name=design.name,
                policies=design.policies,
                server_cost_savings=0.0,
            )
            for design in paper_design_points(sorted(profile.region_sizes))
        ]

    @pytest.fixture(scope="class")
    def layout(self, profile, paper_designs):
        counts = {design.name: 2 for design in paper_designs}
        config = FleetConfig(servers=10, months=3)
        return FleetLayout(profile, paper_designs, counts, config)

    def test_outcomes_partition_the_arrivals(self, layout):
        for block in layout.blocks:
            rates = block.outcomes
            total = (
                rates.corrected + rates.recovered + rates.crash + rates.uncrashed
            )
            assert total == pytest.approx(rates.errors)
            assert rates.crash_rate == pytest.approx(float(rates.crash.sum()))
            assert (rates.corrected[~rates.corrects] == 0.0).all()
            assert (rates.crash[rates.corrects] == 0.0).all()
        assert layout.block_of("Typical Server").outcomes.crash_rate == 0.0
        assert layout.block_of("Consumer PC").outcomes.corrected.sum() == 0.0
        assert layout.block_of("Detect&Recover").outcomes.recovered.sum() > 0.0

    def test_composition_grid_uses_the_same_crash_rates(
        self, profile, paper_designs, layout
    ):
        grid = CompositionGrid(profile, paper_designs, layout.config)
        assert grid.crash_coeff.tolist() == pytest.approx(
            [block.outcomes.crash_rate for block in layout.blocks]
        )
        rates = OutcomeRates(paper_designs[1], layout.table, ErrorRateModel())
        assert rates.crash_rate == layout.blocks[1].outcomes.crash_rate

    def test_incorrect_rate_differs_from_the_design_evaluators_by_one_factor(self):
        """OPEN QUESTION, pinned (ROADMAP item 1): ``core.availability``
        charges incorrect responses per *consumed* error, ``OutcomeRates``
        (the simulator and ``AnalyticFleetModel``) per
        *consumed-uncrashed* error. On the all-NoECC design of the
        pipeline's plan profile crashes and recoveries agree and the
        incorrect responses differ by exactly the per-region factor
        ``1 - P(crash)``: 299.1 against 292.0 a month. Whichever PR
        decides which is the paper's flips this test; no model changed
        to write it."""
        plan_regions = {
            "private": (4000, 12, 5), "heap": (2500, 8, 9),
            "metadata": (1200, 20, 2), "buffers": (600, 4, 14),
            "stack": (300, 50, 1), "code": (100, 100, 0),
        }
        prof = VulnerabilityProfile(app="plan")
        prof.region_sizes = {name: spec[0] for name, spec in plan_regions.items()}
        for name, (_, crash_trials, incorrect_trials) in plan_regions.items():
            cell = prof.cell(name, "single-bit soft")
            for _ in range(crash_trials):
                cell.record(ErrorOutcome.CRASH, 10, 0, 10, 0.5)
            for _ in range(incorrect_trials):
                cell.record(ErrorOutcome.INCORRECT, 100, 2, 0, 5.0)
            for _ in range(1000 - crash_trials - incorrect_trials):
                cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
        regions = list(plan_regions)
        design = consumer_pc(regions)  # every region NoECC
        evaluated = design_outcome_rates(prof, design.policies)
        table = RegionTable(prof, regions, "single-bit soft")
        thinned = OutcomeRates(
            FleetDesign(name=design.name, policies=design.policies),
            table,
            ErrorRateModel(),
        )
        fleet_incorrect = thinned.uncrashed * thinned.incorrect_per_error
        for i, region in enumerate(regions):
            rates = evaluated[region]
            assert rates.crashes_per_month == thinned.crash[i]
            assert rates.recoveries_per_month == thinned.recovered[i] == 0.0
            assert fleet_incorrect[i] == pytest.approx(
                rates.incorrect_responses_per_month * (1.0 - table.crash_prob[i]),
                rel=1e-12,
            )
        assert sum(
            rates.incorrect_responses_per_month for rates in evaluated.values()
        ) == pytest.approx(299.126, abs=1e-3)
        assert float(fleet_incorrect.sum()) == pytest.approx(292.048, abs=1e-3)


class TestOptimizer:
    def test_mixed_composition_dominates_singles(self, profile, designs):
        """At 99% demand, the all-less-tested fleet misses the target
        and the all-typical fleet saves nothing; a mix must win."""
        config = FleetConfig(servers=1000, months=24, demand_fraction=0.99)
        result = optimize_fleet(
            profile,
            designs=designs,
            config=config,
            availability_target=0.9995,
            step=0.05,
        )
        assert result.best is not None
        assert result.best.mixed
        assert result.best.cost_savings > 0
        assert result.mixed_dominates_singles
        singles = result.singles
        assert not singles["Less-Tested (L)"].feasible
        assert singles["Typical Server"].cost_savings == 0.0
        for single in singles.values():
            if single.feasible:
                assert single.cost_savings < result.best.cost_savings
        assert result.evaluated == 21  # step 0.05 over 2 designs

    def test_pareto_front_is_nondominated(self, profile, designs):
        config = FleetConfig(servers=200, months=12, demand_fraction=0.99)
        result = optimize_fleet(
            profile,
            designs=designs,
            config=config,
            availability_target=0.999,
            step=0.1,
        )
        front = result.pareto
        assert front
        for a in front:
            for b in front:
                if a is b:
                    continue
                assert not (
                    b.cost_savings >= a.cost_savings
                    and b.fleet_availability >= a.fleet_availability
                    and (
                        b.cost_savings > a.cost_savings
                        or b.fleet_availability > a.fleet_availability
                    )
                )

    def test_keys_do_not_collide_below_one_percent_steps(
        self, profile, designs
    ):
        """At step 0.005 two decimals file 5/995 and 10/990 under one
        key and print 4/996 as 0.00/1.00; the key takes the decimals
        the step needs. At 0.01 and coarser it is the two it always
        was."""
        config = FleetConfig(servers=2000, months=6, demand_fraction=0.99)
        fine = optimize_fleet(
            profile, designs=designs, config=config,
            availability_target=0.9, step=0.005,
        )
        assert fine.evaluated == 201
        assert fine.best.key == "Less-Tested (L):1.000"
        keys = [point.key for point in fine.pareto]
        assert len(set(keys)) == len(keys) > 100
        assert "Less-Tested (L):0.995+Typical Server:0.005" in keys
        assert "Less-Tested (L):0.990+Typical Server:0.010" in keys
        for step, key in ((0.01, "Less-Tested (L):1.00"), (0.3, "Less-Tested (L):1.00")):
            coarse = optimize_fleet(
                profile, designs=designs, config=config,
                availability_target=0.9, step=step,
            )
            assert coarse.best.key == key
        third = optimize_fleet(
            profile, designs=designs, config=config,
            availability_target=0.99999, step=1 / 3,
        )
        assert [point.key for point in third.pareto][1] == (
            "Less-Tested (L):0.67+Typical Server:0.33"
        )

    def test_singles_are_named_by_their_design_not_their_key(self, profile):
        """A design called ``X:1`` used to be filed under ``X`` (the key
        was split at the first colon), and on a fleet smaller than the
        grid every composition that rounds to one design overwrote that
        design's pure fleet under the first name in its own key."""
        regions = sorted(profile.region_sizes)
        named = [
            FleetDesign(name="X:1", policies=typical_server(regions).policies),
            FleetDesign(name="X", policies=less_tested(regions).policies),
        ]
        result = optimize_fleet(
            profile, designs=named,
            config=FleetConfig(servers=3, months=6, demand_fraction=0.9),
            availability_target=0.9, step=0.05,
        )
        assert list(result.singles) == ["X", "X:1"]
        for name, single in result.singles.items():
            assert single.counts == {name: 3, **{
                other: 0 for other in ("X", "X:1") if other != name
            }}
            assert single.fractions[name] == 1.0
            assert not single.mixed
        assert result.singles["X"].cost_savings > 0.0
        assert result.singles["X:1"].cost_savings == 0.0

    def test_impossible_target_reports_no_best(self, profile, designs):
        config = FleetConfig(servers=50, months=12, demand_fraction=1.0)
        result = optimize_fleet(
            profile,
            designs=designs,
            config=config,
            availability_target=1.0,
            step=0.5,
        )
        # All-typical at full demand still hits 1.0 only if no repair
        # downtime lands; either way the result object stays consistent.
        assert result.evaluated == 3
        if result.best is None:
            assert not result.mixed_dominates_singles

    def test_to_dict_round_trips_json(self, profile, designs):
        import json

        config = FleetConfig(servers=100, months=12)
        result = optimize_fleet(
            profile, designs=designs, config=config, step=0.5
        )
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["evaluated"] == result.evaluated


WEAR = dict(
    aging=AgingConfig(),
    correlation=CorrelationConfig(
        shock_rate_per_month=1.0,
        shock_cohort_fraction=0.1,
        shock_downtime_minutes=30.0,
        bad_batch_fraction=0.05,
        bad_batch_multiplier=3.0,
    ),
)


def golden_documents(profile, designs):
    """``to_dict()`` of the planner's analytic paths on fixed inputs.

    ``tests/golden/fleet_planner.json`` holds what this returned at
    commit ecfe2c5, the last one with the per-composition scalar
    evaluator (captured by calling it with that commit's ``src`` on the
    path). The batched kernel changed no arithmetic, so the documents
    must stay JSON-equal, floats included.

    The ``analyze_*`` documents were regenerated once, by design, when
    ``AnalyticFleetModel`` started reading its moments off
    ``FleetLayout.block_months`` instead of summing ``(servers, months)``
    arrays: the census adds in another order, which moved four totals
    of ``analyze_wear`` in their last digit (relative 2e-16;
    ``analyze_plain`` came out equal). The per-server model is kept as
    the oracle in ``tests/property/test_prop_fleet_kernel.py``. The
    ``optimize_*`` documents are still commit ecfe2c5's, byte for byte.
    """
    return {
        # The pipeline benchmark's trade-off: shocks at 98.5% demand,
        # a many-point front and a mixed winner; five default designs.
        "optimize_tradeoff": optimize_fleet(
            profile,
            config=FleetConfig(
                servers=400, months=24, demand_fraction=0.985, **WEAR
            ),
            availability_target=0.9995,
            step=0.1,
        ).to_dict(),
        # No shocks, two designs, fine step: zero-variance rows (the
        # all-Typical fleet) sit next to ordinary ones.
        "optimize_two_designs": optimize_fleet(
            profile,
            designs=designs,
            config=FleetConfig(servers=1000, months=24, demand_fraction=0.99),
            availability_target=0.9995,
            step=0.05,
        ).to_dict(),
        # Fewer servers than grid units: fractions > 0 round to zero
        # servers, so "single" is decided by counts, not fractions.
        "optimize_tiny_fleet": optimize_fleet(
            profile,
            config=FleetConfig(
                servers=7,
                months=12,
                demand_fraction=0.9,
                correlation=CorrelationConfig(
                    shock_rate_per_month=2.0,
                    shock_cohort_fraction=0.3,
                    shock_downtime_minutes=600.0,
                    mode="independent",
                ),
            ),
            availability_target=0.999,
            step=0.05,
        ).to_dict(),
        "analyze_wear": analyze_fleet(
            profile,
            config=FleetConfig(
                servers=500, months=60, demand_fraction=0.99, **WEAR
            ),
        ).to_dict(),
        "analyze_plain": analyze_fleet(
            profile,
            designs=designs,
            composition={"Typical Server": 0.25, "Less-Tested (L)": 0.75},
            config=FleetConfig(servers=120, months=36, demand_fraction=0.995),
        ).to_dict(),
    }


class TestParentGoldens:
    def test_planner_documents_unchanged(self, profile, designs):
        golden = json.loads(
            (GOLDEN_DIR / "fleet_planner.json").read_text()
        )
        documents = json.loads(json.dumps(golden_documents(profile, designs)))
        assert set(documents) == set(golden)
        for name, document in documents.items():
            assert document == golden[name], name
        # The goldens are worth keeping only while they exercise the
        # trade-off: a real front, a mixed winner, unsaturated means.
        tradeoff = golden["optimize_tradeoff"]
        assert len(tradeoff["pareto"]) >= 3
        assert tradeoff["best"]["mixed"]
        assert golden["analyze_wear"]["mean_fleet_availability"] < 1.0


class TestConfigValidation:
    def test_fleet_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FleetConfig(servers=0)
        with pytest.raises(ValueError):
            FleetConfig(months=0)
        with pytest.raises(ValueError):
            FleetConfig(demand_fraction=0.0)
        with pytest.raises(ValueError):
            FleetConfig(demand_fraction=1.5)
        with pytest.raises(ValueError):
            FleetConfig(retirement_age_months=0)
        with pytest.raises(ValueError):
            FleetConfig(repair_downtime_minutes=-1)
        with pytest.raises(ValueError):
            FleetConfig(month_chunk=0)

    def test_configs_are_keyword_only(self):
        with pytest.raises(TypeError):
            FleetConfig(1000)
        with pytest.raises(TypeError):
            AgingConfig(1.0)
        with pytest.raises(TypeError):
            CorrelationConfig(0.5)

    def test_correlation_validation(self):
        with pytest.raises(ValueError):
            CorrelationConfig(shock_rate_per_month=-1)
        with pytest.raises(ValueError):
            CorrelationConfig(shock_cohort_fraction=1.5)
        with pytest.raises(ValueError):
            CorrelationConfig(bad_batch_multiplier=0.5)
        with pytest.raises(ValueError):
            CorrelationConfig(mode="entangled")
        marginal = CorrelationConfig(
            shock_rate_per_month=2.0, shock_cohort_fraction=0.25
        )
        assert marginal.shock_marginal_rate == pytest.approx(0.5)
        assert marginal.as_independent().mode == "independent"

    def test_aging_validation(self):
        with pytest.raises(ValueError):
            AgingConfig(infant_multiplier=-1)
        with pytest.raises(ValueError):
            AgingConfig(infant_tau_months=0)
        with pytest.raises(ValueError):
            AgingConfig(wearout_slope_per_month=-0.1)

    def test_fleet_design_validation(self):
        with pytest.raises(ValueError):
            FleetDesign(name="", policies={})
        with pytest.raises(ValueError):
            FleetDesign(name="x", policies={})

    def test_apportion_servers(self):
        counts = apportion_servers(
            10, {"a": 0.35, "b": 0.35, "c": 0.30}
        )
        assert sum(counts.values()) == 10
        assert counts == {"a": 4, "b": 3, "c": 3}  # name-tiebreak on a/b
        with pytest.raises(ValueError):
            apportion_servers(10, {"a": 0.7})
        with pytest.raises(ValueError):
            apportion_servers(10, {})


class TestEngineResolution:
    def test_default_designs_are_paper_design_points(self, profile):
        config = FleetConfig(servers=10, months=6, month_chunk=8)
        result = simulate_fleet(profile, config=config)
        assert set(result.composition) == {
            "Typical Server",
            "Consumer PC",
            "Detect&Recover",
            "Less-Tested (L)",
            "Detect&Recover/L",
        }
        assert sum(result.composition.values()) == 10

    def test_explicit_composition_respected(self, profile, designs):
        config = FleetConfig(servers=10, months=6, month_chunk=8)
        result = simulate_fleet(
            profile,
            designs=designs,
            composition={"Typical Server": 0.8, "Less-Tested (L)": 0.2},
            config=config,
        )
        assert result.composition == {
            "Typical Server": 8,
            "Less-Tested (L)": 2,
        }

    def test_unknown_composition_name_rejected(self, profile, designs):
        with pytest.raises(ValueError):
            simulate_fleet(
                profile, designs=designs, composition={"Mystery": 1.0}
            )

    def test_fleet_design_savings_passthrough(self, profile, designs):
        pinned = [
            FleetDesign(
                name=design.name,
                policies=design.policies,
                server_cost_savings=0.1 * (index + 1),
            )
            for index, design in enumerate(designs)
        ]
        config = FleetConfig(servers=100, months=6)
        result = optimize_fleet(
            profile, designs=pinned, config=config, step=0.5
        )
        assert result.evaluated == 3

    def test_result_dict_is_json_serializable(self, profile, designs):
        import json

        config = FleetConfig(servers=10, months=6, month_chunk=8)
        result = simulate_fleet(profile, designs=designs, config=config)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["servers"] == 10
        assert payload["months"] == 6
        assert payload["totals"]["errors"] == sum(result.errors_by_month)

    def test_observer_records_spans_and_instruments(self, profile, designs):
        from repro.obs import EventBuffer, MetricsRegistry, Observer

        buffer = EventBuffer()
        observer = Observer(sinks=[buffer], metrics=MetricsRegistry())
        config = FleetConfig(servers=10, months=6, month_chunk=8)
        simulate_fleet(
            profile, designs=designs, config=config, observer=observer
        )
        observer.close()
        names = {event.name for event in buffer.events}
        assert {"fleet", "fleet_phase"} <= names
        metrics = observer.metrics.to_dict()
        totals = metrics["fleet_server_months_total"]["values"]
        assert sum(totals.values()) == 60

    def test_simulate_span_says_which_path_ran_and_why(self, profile, designs):
        from repro.obs import EventBuffer, Observer

        def attrs(config, simulate=simulate_fleet):
            buffer = EventBuffer()
            simulate(
                profile,
                designs=designs,
                config=config,
                observer=Observer(sinks=[buffer]),
            )
            (span,) = [e for e in buffer.events if e.name == "fleet"]
            return span.attrs

        quiet = FleetConfig(servers=10, months=20, month_chunk=8)
        found = attrs(quiet)
        assert (found["aggregated_chunks"], found["per_server_chunks"]) == (3, 0)
        # log10(2^-1074) = -323.3: under it, the clip provably idles.
        assert found["clip_log10_bound"] < -323.3
        shocked = FleetConfig(
            servers=10,
            months=20,
            month_chunk=8,
            correlation=CorrelationConfig(
                shock_rate_per_month=1.0,
                shock_cohort_fraction=0.3,
                shock_downtime_minutes=50000.0,
            ),
        )
        found = attrs(shocked)
        assert (found["aggregated_chunks"], found["per_server_chunks"]) == (0, 3)
        assert found["clip_log10_bound"] == 0.0
        # The per-event oracle has no chunks to report.
        found = attrs(quiet, simulate=oracles.simulate_fleet)
        assert (found["aggregated_chunks"], found["per_server_chunks"]) == (0, 0)
        assert found["clip_log10_bound"] is None

    def test_optimize_span_and_counters_say_how_much_was_scored(
        self, profile, designs, monkeypatch
    ):
        from repro.fleet import analytic
        from repro.obs import EventBuffer, MetricsRegistry, Observer

        # One composition a row block: the walk sees the ceiling the row
        # it is reached.
        monkeypatch.setattr(analytic, "_BLOCK_ELEMENTS", 24)
        buffer = EventBuffer()
        observer = Observer(sinks=[buffer], metrics=MetricsRegistry())
        result = optimize_fleet(
            profile,
            designs=designs,
            config=FleetConfig(servers=1000, months=24, demand_fraction=0.99),
            availability_target=0.9995,
            step=0.05,
            observer=observer,
        )
        observer.close()
        (span,) = [e for e in buffer.events if e.name == "fleet"]
        # Two designs at step 0.05: 21 rows, each design 21 blocks. In
        # savings order availability rises to 1.0 at the 15th row; of
        # the six after it only the pure Typical Server fleet is scored.
        assert span.attrs["evaluated"] == result.evaluated == 21
        assert span.attrs["distinct_blocks"] == result.distinct_blocks == 42
        assert span.attrs["scored"] == result.scored == 16
        assert span.attrs["skipped_at_ceiling"] == result.skipped_at_ceiling
        assert result.skipped_at_ceiling == 5
        assert result.singles["Typical Server"].fleet_availability == 1.0
        assert "scored" not in result.to_dict()
        assert "skipped_at_ceiling" not in result.to_dict()
        metrics = observer.metrics.to_dict()
        for name, count in (
            ("fleet_compositions_evaluated_total", 21),
            ("fleet_compositions_scored_total", 16),
            ("fleet_compositions_skipped_at_ceiling_total", 5),
            ("fleet_distinct_blocks_total", 42),
        ):
            assert sum(metrics[name]["values"].values()) == count


class TestResultStatistics:
    def test_percentiles_and_ci(self, profile, designs):
        config = FleetConfig(servers=20, months=50, month_chunk=16)
        result = simulate_fleet(
            profile, designs=designs, config=config, seed=1
        )
        assert result.downtime_percentile(5) <= result.downtime_percentile(95)
        low, high = result.confidence_interval("machine_availability")
        assert low <= result.mean_machine_availability <= high
        with pytest.raises(ValueError):
            result.downtime_percentile(200)
        with pytest.raises(ValueError):
            result.confidence_interval("vibes")
