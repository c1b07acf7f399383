"""Unit tests for repro.explore (matrix, batch, search, pareto, engine).

The contract under test everywhere: every batch/bounded path must return
*byte-identical* designs and metrics to the scalar reference on the same
inputs — ``DesignEvaluator`` one design at a time, and ``explore``'s
``scalar`` oracle for whole searches.
"""

import itertools
import math

import numpy as np
import pytest

from repro import api, oracles
from repro.cluster import AvailabilitySimulator
from repro.core.design_space import (
    HardwareTechnique,
    RegionPolicy,
    SoftwareResponse,
)
from repro.core.mapping import DesignEvaluator, HRMDesign
from repro.core.optimizer import DEFAULT_CANDIDATES
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.explore import (
    BatchDesignSpaceEvaluator,
    BranchAndBoundSearcher,
    ContributionMatrix,
    explore,
    pareto_front,
    pareto_indices,
    specialize_candidates,
)
from repro.obs import MetricsRegistry, Observer

REGIONS = ("private", "heap", "stack")
FRACTIONS = {"private": 0.7}


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


@pytest.fixture
def specialized():
    """Per-region candidate tuples of the searches below."""
    return specialize_candidates(REGIONS, DEFAULT_CANDIDATES, FRACTIONS)


@pytest.fixture
def matrix(evaluator, specialized):
    return ContributionMatrix.build(evaluator, REGIONS, specialized)


def scalar_metrics_for(evaluator, specialized, digits, regions=REGIONS):
    """Evaluate one assignment through the scalar reference path."""
    policies = {
        region: specialized[r][c]
        for r, (region, c) in enumerate(zip(regions, digits))
    }
    design = HRMDesign(
        name="+".join(p.describe() for p in policies.values()),
        policies=policies,
    )
    return evaluator.evaluate(design)


class TestContributionMatrix:
    def test_metrics_identical_to_scalar_oracle(self, evaluator, specialized, matrix):
        width = matrix.candidate_count
        for digits in itertools.product(range(width), repeat=len(REGIONS)):
            expected = scalar_metrics_for(evaluator, specialized, digits)
            got = matrix.metrics_at(digits)
            assert got.design.name == expected.design.name
            assert got.memory_cost_savings == expected.memory_cost_savings
            assert got.server_cost_savings == expected.server_cost_savings
            assert got.crashes_per_month == expected.crashes_per_month
            assert got.availability == expected.availability
            assert (
                got.incorrect_per_million_queries
                == expected.incorrect_per_million_queries
            )
            assert (
                got.memory_cost_savings_range == expected.memory_cost_savings_range
            )
            assert (
                got.server_cost_savings_range == expected.server_cost_savings_range
            )

    def test_id_roundtrip_matches_product_order(self, matrix):
        width = matrix.candidate_count
        for design_id, digits in enumerate(
            itertools.product(range(width), repeat=len(REGIONS))
        ):
            assert matrix.digits_of(design_id) == tuple(digits)

    def test_rejects_empty_regions(self, evaluator):
        with pytest.raises(ValueError):
            ContributionMatrix.build(evaluator, (), [])

    def test_rejects_unsized_space(self):
        prof = VulnerabilityProfile(app="empty")
        prof.region_sizes = {"heap": 0}
        cell = prof.cell("heap", "single-bit soft")
        cell.record(ErrorOutcome.MASKED_LOGIC, 10, 0, 0, None)
        with pytest.raises(ValueError):
            ContributionMatrix.build(
                DesignEvaluator(prof),
                ("heap",),
                specialize_candidates(("heap",), DEFAULT_CANDIDATES),
            )


class TestVectorizedSearch:
    """The full feasible list (``top_k=None``): the production path
    against the scalar oracle, where the exhaustive vectorized scan
    used to stand."""

    def test_search_identical_to_scalar(self, profile):
        kwargs = dict(
            availability_target=0.999,
            recoverable_fractions=FRACTIONS,
            regions=REGIONS,
        )
        scalar = oracles.explore(profile, **kwargs)
        auto = explore(profile, **kwargs)
        assert auto.evaluated + auto.pruned == scalar.evaluated
        assert auto.feasible_count == scalar.feasible_count
        assert len(auto.feasible) == len(scalar.feasible)
        for got, expected in zip(auto.feasible, scalar.feasible):
            assert got.design.name == expected.design.name
            assert got.server_cost_savings == expected.server_cost_savings
            assert got.availability == expected.availability
        assert auto.best.design.name == scalar.best.design.name

    def test_search_with_budget_identical(self, profile):
        kwargs = dict(
            availability_target=0.999,
            max_incorrect_per_million=0.5,
            regions=REGIONS,
        )
        scalar = oracles.explore(profile, **kwargs)
        auto = explore(profile, **kwargs)
        assert auto.pruned_by["incorrectness"] > 0
        assert [m.design.name for m in auto.feasible] == [
            m.design.name for m in scalar.feasible
        ]


class TestParetoFront:
    @staticmethod
    def quadratic_front(points):
        """The pre-optimization O(n^2) front, kept as the golden oracle."""
        front = []
        for i, (savings_a, avail_a) in enumerate(points):
            dominated = False
            for j, (savings_b, avail_b) in enumerate(points):
                if i == j:
                    continue
                if (
                    savings_b >= savings_a
                    and avail_b >= avail_a
                    and (savings_b > savings_a or avail_b > avail_a)
                ):
                    dominated = True
                    break
            if not dominated:
                front.append(i)
        front.sort(key=lambda idx: (-points[idx][0], idx))
        return front

    @staticmethod
    def sweep(points):
        return pareto_indices(
            [savings for savings, _ in points],
            [availability for _, availability in points],
        ).tolist()

    def test_sweep_matches_quadratic_on_seed_profile(self, evaluator, specialized):
        metrics = [
            scalar_metrics_for(evaluator, specialized, digits)
            for digits in itertools.product(
                range(len(DEFAULT_CANDIDATES)), repeat=len(REGIONS)
            )
        ]
        points = [(m.server_cost_savings, m.availability) for m in metrics]
        assert self.sweep(points) == self.quadratic_front(points)

    def test_sweep_handles_ties_and_duplicates(self):
        points = [
            (0.5, 0.9), (0.5, 0.9), (0.5, 0.8),
            (0.3, 0.99), (0.3, 0.99), (0.1, 0.99), (0.6, 0.1),
        ]
        assert self.sweep(points) == self.quadratic_front(points)
        assert self.sweep(points) == [6, 0, 1, 3, 4]

    def test_sweep_of_nothing_is_empty(self):
        assert self.sweep([]) == []

    def scalar_front(self, evaluator, candidates, fractions, regions):
        """Names of the quadratic front over one scalar evaluation per
        design: what ``pareto_front`` has to return, in order."""
        specialized = specialize_candidates(regions, candidates, fractions)
        metrics = [
            scalar_metrics_for(evaluator, specialized, digits, regions)
            for digits in itertools.product(
                range(len(candidates)), repeat=len(regions)
            )
        ]
        points = [(m.server_cost_savings, m.availability) for m in metrics]
        return [metrics[i].design.name for i in self.quadratic_front(points)]

    def test_optimizer_front_matches_quadratic(self, evaluator):
        regions = ("private", "heap")
        front = pareto_front(
            evaluator, candidates=DEFAULT_CANDIDATES[:4], regions=regions
        )
        assert [m.design.name for m in front] == self.scalar_front(
            evaluator, DEFAULT_CANDIDATES[:4], None, regions
        )

    def test_vectorized_front_matches_scalar(self, evaluator):
        """Whole default space, recoverable fractions bound, regions
        defaulted to the evaluator's sized ones."""
        front = pareto_front(evaluator, recoverable_fractions=FRACTIONS)
        assert [m.design.name for m in front] == self.scalar_front(
            evaluator, DEFAULT_CANDIDATES, FRACTIONS, sorted(REGIONS)
        )


class TestBranchAndBound:
    def exhaustive_top(self, profile, target, k, budget=None):
        result = oracles.explore(
            profile,
            availability_target=target,
            recoverable_fractions=FRACTIONS,
            max_incorrect_per_million=budget,
            regions=REGIONS,
        )
        return result.feasible[:k]

    @pytest.mark.parametrize("top_k", [1, 5, 50, 1000])
    def test_top_k_matches_exhaustive(self, profile, matrix, top_k):
        bounded = BranchAndBoundSearcher(matrix).search(0.999, top_k=top_k)
        expected = self.exhaustive_top(profile, 0.999, top_k)
        assert [m.design.name for m in bounded.top] == [
            m.design.name for m in expected
        ]
        for got, want in zip(bounded.top, expected):
            assert got.server_cost_savings == want.server_cost_savings
            assert got.availability == want.availability
        assert bounded.evaluated + bounded.pruned == bounded.total_designs

    def test_budget_constrained_matches_exhaustive(self, profile, matrix):
        bounded = BranchAndBoundSearcher(matrix).search(
            0.999, max_incorrect_per_million=0.5, top_k=3
        )
        expected = self.exhaustive_top(profile, 0.999, 3, budget=0.5)
        assert [m.design.name for m in bounded.top] == [
            m.design.name for m in expected
        ]

    def test_infeasible_target_prunes_whole_space(self, matrix):
        bounded = BranchAndBoundSearcher(matrix).search(
            0.999, max_incorrect_per_million=-1.0
        )
        assert not bounded.found
        assert bounded.top == []
        assert bounded.evaluated + bounded.pruned == bounded.total_designs

    def test_prunes_without_losing_exactness(self, matrix):
        bounded = BranchAndBoundSearcher(matrix).search(0.999, top_k=1)
        assert bounded.pruned > 0
        assert bounded.evaluated < bounded.total_designs

    def test_validation(self, matrix):
        searcher = BranchAndBoundSearcher(matrix)
        with pytest.raises(ValueError):
            searcher.search(0.999, top_k=0)
        with pytest.raises(ValueError):
            searcher.search(1.5)


class TestExploreEngine:
    #: The production search and its oracle.
    SEARCHES = {"auto": explore, "scalar": oracles.explore}

    def test_backends_agree_on_top_k(self, profile):
        results = {
            backend: search(
                profile,
                availability_target=0.999,
                recoverable_fractions=FRACTIONS,
                top_k=4,
            )
            for backend, search in self.SEARCHES.items()
        }
        names = {
            backend: [m.design.name for m in result.feasible]
            for backend, result in results.items()
        }
        assert names["auto"] == names["scalar"]
        assert len(names["scalar"]) == 4
        assert results["auto"].backend == "branch-and-bound"
        assert results["scalar"].backend == "scalar"
        # The oracle counts the whole space's feasible designs;
        # branch-and-bound only proves feasibility for the designs it
        # returns (everything else was pruned away unevaluated).
        assert results["scalar"].feasible_count_exact
        assert results["scalar"].feasible_count > 4
        assert results["auto"].feasible_count == 4

    def test_full_feasible_list_without_top_k(self, profile, evaluator, specialized):
        """The oracle's full list is the filtered, sorted enumeration —
        spelled out here, independent of ``explore``'s own loop."""
        result = oracles.explore(
            profile,
            availability_target=0.999,
            recoverable_fractions=FRACTIONS,
            regions=REGIONS,
        )
        reference = [
            metrics
            for metrics in (
                scalar_metrics_for(evaluator, specialized, digits)
                for digits in itertools.product(
                    range(len(DEFAULT_CANDIDATES)), repeat=len(REGIONS)
                )
            )
            if metrics.availability >= 0.999
        ]
        reference.sort(
            key=lambda m: (-m.server_cost_savings, -m.availability, m.design.name)
        )
        assert [m.design.name for m in result.feasible] == [
            m.design.name for m in reference
        ]
        assert result.total_designs == len(DEFAULT_CANDIDATES) ** len(REGIONS)
        assert result.evaluated == result.total_designs
        assert result.feasible_count == len(reference)

    def test_auto_is_branch_and_bound_exactly_when_top_k_is_set_or_none(
        self, profile
    ):
        """``auto`` means one thing: with ``top_k`` the k best and a
        lower-bound count, without it every feasible design and an
        exact count — branch-and-bound either way."""
        kwargs = dict(
            availability_target=0.999,
            recoverable_fractions=FRACTIONS,
            regions=REGIONS,
        )
        reference = oracles.explore(profile, **kwargs)
        ranked = explore(profile, top_k=3, **kwargs)
        assert ranked.backend == "branch-and-bound"
        assert ranked.evaluated < ranked.total_designs
        assert not ranked.feasible_count_exact
        full = explore(profile, **kwargs)
        assert full.backend == "branch-and-bound"
        assert full.evaluated + full.pruned == full.total_designs
        assert full.pruned_by["cost"] == full.pruned_by["dominated"] == 0
        assert full.feasible_count_exact
        assert full.evaluated == full.feasible_count == reference.feasible_count > 3
        assert [m.design.name for m in full.feasible] == [
            m.design.name for m in reference.feasible
        ]
        assert [m.design.name for m in ranked.feasible] == [
            m.design.name for m in reference.feasible[:3]
        ]

    @pytest.mark.parametrize("backend", SEARCHES)
    def test_regions_are_validated_before_dispatch(self, profile, backend):
        explore = self.SEARCHES[backend]
        kwargs = dict(availability_target=0.9, top_k=1)
        with pytest.raises(ValueError, match="'private'.*more than once"):
            explore(profile, regions=["private", "private"], **kwargs)
        with pytest.raises(ValueError, match="unknown region 'nope'"):
            explore(profile, regions=["private", "nope"], **kwargs)
        # A region the profile has cells for but no size stays legal:
        # it adds its crashes and no cost.
        profile.cell("kernel", "single-bit soft").record(
            ErrorOutcome.CRASH, 10, 0, 10, 0.5
        )
        sized = explore(profile, regions=["private"], **kwargs)
        unsized = explore(profile, regions=["private", "kernel"], **kwargs)
        assert unsized.total_designs == len(DEFAULT_CANDIDATES) ** 2
        assert unsized.best.design.name.startswith(sized.best.design.name + "+")
        assert unsized.best.server_cost_savings == sized.best.server_cost_savings

    def test_duplicated_candidates_stay_cheap(self, profile):
        """Every design has 2^regions equal-savings twins, and the cost
        bound only cuts *strictly* worse subtrees — so this is the case
        where branch-and-bound could quietly degrade to enumeration.
        The pinned counts are what it evaluates today (of 4096)."""
        for top_k, evaluated in ((1, 8), (5, 14)):
            kwargs = dict(
                availability_target=0.999,
                recoverable_fractions={"private": 0.7},
                candidates=DEFAULT_CANDIDATES * 2,
                top_k=top_k,
            )
            ranked = explore(profile, **kwargs)
            oracle = oracles.explore(profile, **kwargs)
            assert [m.design.name for m in ranked.feasible] == [
                m.design.name for m in oracle.feasible
            ]
            assert ranked.total_designs == oracle.evaluated == 4096
            assert ranked.evaluated + ranked.pruned == 4096
            assert ranked.evaluated == evaluated

    def test_simulation_validation(self, profile):
        result = oracles.explore(
            profile,
            availability_target=0.999,
            top_k=1,
            simulate_months=150,
            simulation_seed=7,
        )
        sim = result.simulation
        assert sim is not None
        assert sim.design_name == result.best.design.name
        assert sim.months == 150
        assert sim.seed == 7
        assert sim.mean_availability == pytest.approx(
            sim.analytic_availability, abs=0.005
        )
        assert set(sim.percentiles) == {"p5", "p50", "p95"}
        payload = sim.to_dict()
        assert payload["design"] == sim.design_name
        assert "backend" not in payload  # one engine, nothing to name

    def test_simulation_validation_is_the_month_by_month_reference(
        self, profile
    ):
        """At the pipeline's 1 200 months, the validation the array
        summary gives equals one built from ``MonthOutcome`` objects."""
        result = explore(
            profile,
            availability_target=0.99,
            top_k=1,
            simulate_months=1200,
            simulation_seed=29,
        )
        best = result.best
        evaluator = DesignEvaluator(profile)
        months = AvailabilitySimulator(
            profile,
            best.design.policies,
            error_model=evaluator.error_model,
            params=evaluator.availability_params,
            error_label=evaluator.error_label,
            region_sizes=evaluator.region_sizes,
        ).simulate(1200, seed=29).months
        ordered = sorted(month.availability for month in months)
        assert len(set(ordered)) >= 10

        def percentile(p):
            return ordered[max(0, math.ceil(p / 100 * 1200) - 1)]

        reference = {
            "design": best.design.name,
            "months": 1200,
            "seed": 29,
            "mean_availability": sum(ordered) / 1200,
            "analytic_availability": best.availability,
            "mean_crashes": sum(month.crashes for month in months) / 1200,
            "analytic_crashes": best.crashes_per_month,
            "percentiles": {
                "p5": percentile(5),
                "p50": percentile(50),
                "p95": percentile(95),
            },
        }
        got = result.simulation.to_dict()
        assert got == reference
        assert repr(got) == repr(reference)

    def test_observer_instruments_and_spans(self, profile):
        registry = MetricsRegistry()
        observer = Observer(metrics=registry)
        result = explore(
            profile,
            availability_target=0.999,
            top_k=2,
            observer=observer,
        )
        snapshot = registry.to_dict()
        evaluated = snapshot["explore_designs_evaluated_total"]["values"]
        assert sum(evaluated.values()) == result.evaluated
        pruned = snapshot["explore_designs_pruned_total"]["values"]
        assert sum(pruned.values()) == result.pruned
        assert list(
            snapshot["explore_space_designs"]["values"].values()
        ) == [result.total_designs]

    def test_validation_errors(self, profile):
        with pytest.raises(ValueError):
            explore(profile, availability_target=0.999, top_k=0)
        with pytest.raises(ValueError):
            explore(profile, availability_target=0.999, simulate_months=-1)
        with pytest.raises(ValueError):
            explore(profile, availability_target=1.5)


class TestApiFacade:
    def test_explore_design_space_delegates(self, profile):
        result = api.explore_design_space(
            profile, availability_target=0.999, top_k=2
        )
        assert isinstance(result, api.ExplorationResult)
        assert result.found
        assert len(result.feasible) == 2

    def test_backend_tuples_exported(self):
        assert api.available_backends("explore") == ("auto",)
        with pytest.raises(ValueError):
            api.available_backends("search")


class TestBatchEvaluator:
    def test_chunked_values_match_matrix(self, matrix):
        batch = BatchDesignSpaceEvaluator(matrix, chunk_size=37)
        ids = np.arange(matrix.total_designs, dtype=np.int64)
        values = batch.evaluate_ids(ids)
        for design_id in range(matrix.total_designs):
            digits = matrix.digits_of(design_id)
            cost, crashes, incorrect = matrix.totals_at(digits)
            assert values["savings"][design_id] == (
                matrix.server_savings_from_cost(cost)
            )
            assert values["availability"][design_id] == (
                matrix.availability_from_crash_total(crashes)
            )
            assert values["incorrect_per_million"][design_id] == (
                matrix.incorrect_per_million_from_total(incorrect)
            )


class TestBatchSimulator:
    """What the deleted batched simulator's tests still have to say,
    on the one-server view built the way ``explore`` builds it (the
    evaluator's models and region sizes)."""

    def make_simulator(self, profile, policies):
        evaluator = DesignEvaluator(profile)
        return AvailabilitySimulator(
            profile,
            policies,
            error_model=evaluator.error_model,
            params=evaluator.availability_params,
            region_sizes=evaluator.region_sizes,
        )

    def policies(self, technique, response=SoftwareResponse.CONSUME):
        return {
            region: RegionPolicy(technique=technique, response=response)
            for region in REGIONS
        }

    def draws(self, profile, seed):
        simulator = self.make_simulator(
            profile, self.policies(HardwareTechnique.NONE)
        )
        return [
            (month.errors, month.crashes, month.incorrect_responses)
            for month in simulator.simulate(60, seed=seed).months
        ]

    def test_seed_stable(self, profile):
        first = self.draws(profile, 11)
        assert first == self.draws(profile, 11)
        assert [month[0] for month in first] != [
            month[0] for month in self.draws(profile, 12)
        ]

    def test_ecc_design_never_crashes(self, profile):
        unprotected, protected = (
            self.make_simulator(profile, self.policies(technique)).simulate(
                50, seed=4
            )
            for technique in (HardwareTechnique.NONE, HardwareTechnique.SEC_DED)
        )
        assert protected.mean_crashes == 0.0
        assert protected.mean_availability == 1.0
        assert unprotected.mean_crashes > 0.0

    def test_validation(self, profile):
        with pytest.raises(ValueError):
            self.make_simulator(profile, {})
        simulator = self.make_simulator(
            profile, self.policies(HardwareTechnique.NONE)
        )
        with pytest.raises(ValueError):
            simulator.simulate(0)
