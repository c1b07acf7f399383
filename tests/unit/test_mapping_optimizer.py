"""Unit tests for repro.core.mapping, repro.core.optimizer and the
design search that replaced ``MappingOptimizer`` (``repro.explore``)."""

import pytest

from repro import oracles
from repro.core.availability import ErrorRateModel
from repro.core.design_space import (
    HardwareTechnique,
    RegionPolicy,
    SoftwareResponse,
)
from repro.core.mapping import (
    DesignEvaluator,
    consumer_pc,
    detect_and_recover,
    detect_and_recover_less_tested,
    less_tested,
    paper_design_points,
    typical_server,
)
from repro.core.optimizer import DEFAULT_CANDIDATES, tolerable_errors_per_month
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.explore import explore, pareto_front

REGIONS = ("private", "heap", "stack")


@pytest.fixture
def profile():
    prof = VulnerabilityProfile(app="WebSearch-like")
    prof.region_sizes = {"private": 3600, "heap": 900, "stack": 6}
    crash_probabilities = {"private": 0.01, "heap": 0.006, "stack": 0.1}
    for region, probability in crash_probabilities.items():
        cell = prof.cell(region, "single-bit soft")
        crashes = round(probability * 1000)
        for _ in range(crashes):
            cell.record(ErrorOutcome.CRASH, 10, 0, 10, 0.5)
        for _ in range(5):
            cell.record(ErrorOutcome.INCORRECT, 100, 2, 0, 5.0)
        for _ in range(1000 - crashes - 5):
            cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
    return prof


@pytest.fixture
def evaluator(profile):
    return DesignEvaluator(profile)


class TestDesignPoints:
    def test_five_points_in_paper_order(self):
        designs = paper_design_points(REGIONS)
        assert [design.name for design in designs] == [
            "Typical Server",
            "Consumer PC",
            "Detect&Recover",
            "Less-Tested (L)",
            "Detect&Recover/L",
        ]

    def test_typical_server_all_ecc(self):
        design = typical_server(REGIONS)
        assert all(
            policy.technique is HardwareTechnique.SEC_DED
            for policy in design.policies.values()
        )

    def test_detect_and_recover_mapping(self):
        design = detect_and_recover(REGIONS, {"private": 0.9})
        assert design.policies["private"].response is SoftwareResponse.RECOVER
        assert design.policies["private"].recoverable_fraction == 0.9
        assert design.policies["heap"].technique is HardwareTechnique.NONE

    def test_detect_and_recover_less_tested_mapping(self):
        design = detect_and_recover_less_tested(REGIONS)
        assert design.policies["private"].technique is HardwareTechnique.SEC_DED
        assert design.policies["heap"].response is SoftwareResponse.RECOVER
        assert design.uses_less_tested

    def test_describe(self):
        design = detect_and_recover(REGIONS)
        assert design.describe()["private"] == "Parity+R"


class TestDesignEvaluator:
    def test_typical_server_is_perfect_and_free_of_savings(self, evaluator):
        metrics = evaluator.evaluate(typical_server(REGIONS))
        assert metrics.memory_cost_savings == pytest.approx(0.0)
        assert metrics.crashes_per_month == 0.0
        assert metrics.availability == 1.0
        assert metrics.incorrect_per_million_queries == 0.0

    def test_consumer_pc_trades_availability_for_cost(self, evaluator):
        metrics = evaluator.evaluate(consumer_pc(REGIONS))
        assert metrics.memory_cost_savings == pytest.approx(0.111, abs=0.001)
        assert metrics.crashes_per_month > 0
        assert metrics.availability < 1.0
        assert metrics.incorrect_per_million_queries > 0

    def test_detect_and_recover_beats_consumer_pc_availability(self, evaluator):
        pc = evaluator.evaluate(consumer_pc(REGIONS))
        dr = evaluator.evaluate(detect_and_recover(REGIONS))
        assert dr.crashes_per_month < pc.crashes_per_month
        assert dr.availability > pc.availability
        assert dr.incorrect_per_million_queries < pc.incorrect_per_million_queries

    def test_less_tested_is_cheapest_and_least_available(self, evaluator):
        metrics = {d.name: evaluator.evaluate(d) for d in paper_design_points(REGIONS)}
        cheapest = max(metrics.values(), key=lambda m: m.memory_cost_savings)
        least_available = min(metrics.values(), key=lambda m: m.availability)
        assert cheapest.design.name == "Less-Tested (L)"
        assert least_available.design.name == "Less-Tested (L)"

    def test_less_tested_designs_report_ranges(self, evaluator):
        metrics = evaluator.evaluate(less_tested(REGIONS))
        low, high = metrics.memory_cost_savings_range
        assert low < metrics.memory_cost_savings < high
        assert metrics.server_cost_savings_range is not None

    def test_tested_designs_have_no_range(self, evaluator):
        metrics = evaluator.evaluate(consumer_pc(REGIONS))
        assert metrics.memory_cost_savings_range is None

    def test_meets_target(self, evaluator):
        metrics = evaluator.evaluate(typical_server(REGIONS))
        assert metrics.meets_target(0.999)

    def test_evaluate_all(self, evaluator):
        results = evaluator.evaluate_all(paper_design_points(REGIONS))
        assert len(results) == 5


class TestTolerableErrors:
    def test_scales_with_availability_slack(self, profile):
        tight = tolerable_errors_per_month(profile, 0.9999)
        loose = tolerable_errors_per_month(profile, 0.99)
        assert loose == pytest.approx(tight * 100, rel=0.01)

    def test_inverse_of_crash_probability(self, profile):
        budget_crashes = (1 - 0.999) * 43200 / 10
        expected = budget_crashes / profile.crash_probability_per_error(
            "single-bit soft"
        )
        assert tolerable_errors_per_month(profile, 0.999) == pytest.approx(expected)

    def test_infinite_for_crash_free_app(self):
        prof = VulnerabilityProfile(app="Safe")
        prof.region_sizes = {"heap": 1}
        cell = prof.cell("heap", "single-bit soft")
        cell.record(ErrorOutcome.MASKED_LOGIC, 10, 0, 0, None)
        assert tolerable_errors_per_month(prof, 0.999) == float("inf")


class TestMappingOptimizer:
    """The search ``MappingOptimizer`` ran, through ``explore``: without
    ``top_k`` the result is the full feasible list."""

    def test_search_finds_cheaper_than_baseline(self, profile):
        result = explore(profile, availability_target=0.999)
        assert result.found
        assert result.best.availability >= 0.999
        assert result.best.server_cost_savings > 0
        assert result.total_designs == len(DEFAULT_CANDIDATES) ** 3
        assert result.evaluated + result.pruned == result.total_designs

    def test_impossible_target_fails_gracefully(self, profile):
        # With a huge error rate nothing unprotected can hit 5 nines...
        result = explore(
            profile,
            availability_target=0.99999,
            error_model=ErrorRateModel(errors_per_server_month=10**9),
            candidates=(RegionPolicy(technique=HardwareTechnique.NONE),),
        )
        assert not result.found
        assert result.feasible == []

    def test_incorrectness_budget_filters(self, profile):
        unconstrained = explore(profile, availability_target=0.999)
        constrained = explore(
            profile, availability_target=0.999, max_incorrect_per_million=0.0
        )
        assert len(constrained.feasible) <= len(unconstrained.feasible)
        if constrained.found:
            assert constrained.best.incorrect_per_million_queries == 0.0

    def test_recoverable_fractions_bound(self, profile):
        result = explore(
            profile,
            availability_target=0.99,
            recoverable_fractions={"private": 0.5},
        )
        assert result.found
        for metrics in result.feasible:
            private = metrics.design.policies["private"]
            if private.response is SoftwareResponse.RECOVER:
                assert private.recoverable_fraction == 0.5

    def test_pareto_front_is_nondominated(self, evaluator):
        front = pareto_front(
            evaluator,
            candidates=DEFAULT_CANDIDATES[:4],
            regions=("private", "heap"),
        )
        assert front
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (
                    b.server_cost_savings >= a.server_cost_savings
                    and b.availability >= a.availability
                    and (
                        b.server_cost_savings > a.server_cost_savings
                        or b.availability > a.availability
                    )
                )
                assert not dominates

    def test_empty_candidates_rejected(self, profile):
        for search in (explore, oracles.explore):
            with pytest.raises(ValueError):
                search(
                    profile,
                    availability_target=0.999,
                    candidates=(),
                )


class TestDeterministicTieBreaking:
    """Regression: equal-savings designs must order deterministically.

    The feasible list sorts by (-savings, -availability, name); before
    the tie-breakers were added, equal-savings designs kept whatever
    enumeration order ``itertools.product`` happened to produce for the
    given candidate ordering.
    """

    # The rate model only branches on RECOVER/RESTART, so a parity
    # region with page retirement behaves exactly like plain parity:
    # metrics tie exactly and only the design name decides.
    TIE_CANDIDATES = (
        RegionPolicy(
            technique=HardwareTechnique.PARITY,
            response=SoftwareResponse.RETIRE_PAGES,
        ),
        RegionPolicy(technique=HardwareTechnique.PARITY),
        RegionPolicy(technique=HardwareTechnique.SEC_DED),
    )

    def test_feasible_order_follows_sort_key(self, profile):
        result = explore(
            profile, availability_target=0.9, candidates=self.TIE_CANDIDATES
        )
        assert result.found
        keys = [
            (-m.server_cost_savings, -m.availability, m.design.name)
            for m in result.feasible
        ]
        assert keys == sorted(keys)
        # The tie really exists: at least two designs share the first
        # two key components and are separated by name alone.
        assert len({key[:2] for key in keys}) < len(keys)

    def test_order_independent_of_candidate_ordering(self, profile):
        forward = explore(
            profile, availability_target=0.9, candidates=self.TIE_CANDIDATES
        )
        backward = explore(
            profile,
            availability_target=0.9,
            candidates=tuple(reversed(self.TIE_CANDIDATES)),
        )
        assert [m.design.name for m in forward.feasible] == [
            m.design.name for m in backward.feasible
        ]
        assert forward.best.design.name == backward.best.design.name


class TestBackendEquality:
    def test_vectorized_search_matches_scalar(self, profile):
        """The production path against the oracle, full feasible list."""
        scalar = oracles.explore(profile, availability_target=0.999)
        auto = explore(profile, availability_target=0.999)
        assert [m.design.name for m in auto.feasible] == [
            m.design.name for m in scalar.feasible
        ]
        assert auto.evaluated + auto.pruned == scalar.evaluated
        assert auto.best.server_cost_savings == (
            scalar.best.server_cost_savings
        )
