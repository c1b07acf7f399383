"""Property-based equivalence tests for the design-space exploration engine.

The matrix, batch and branch-and-bound paths promise *bit-identical*
results to the scalar reference: ``DesignEvaluator`` one design at a
time, ``repro.oracles.explore`` for whole searches. Hypothesis
drives that contract across random profiles, region counts, candidate
subsets and recoverable fractions — the inputs the seed-profile unit
tests cannot vary.
"""

import itertools
from typing import NamedTuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import oracles
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
from repro.fleet import FleetConfig, FleetDesign
from repro.fleet.optimizer import CompositionMetrics, FleetOptimizer

#: A wider policy pool than DEFAULT_CANDIDATES so draws exercise every
#: technique family (including the ones only the benchmark grid uses).
POLICY_POOL = DEFAULT_CANDIDATES + (
    RegionPolicy(technique=HardwareTechnique.CHIPKILL, less_tested=True),
    RegionPolicy(technique=HardwareTechnique.RAIM),
    RegionPolicy(technique=HardwareTechnique.MIRRORING),
    RegionPolicy(
        technique=HardwareTechnique.DEC_TED,
        response=SoftwareResponse.RETIRE_PAGES,
    ),
)

REGION_NAMES = ("private", "heap", "stack", "anon")


@st.composite
def profiles(draw):
    """A random measured profile over 1-4 regions."""
    region_count = draw(st.integers(min_value=1, max_value=4))
    regions = REGION_NAMES[:region_count]
    prof = VulnerabilityProfile(app="prop")
    prof.region_sizes = {
        region: draw(st.integers(min_value=1, max_value=5000))
        for region in regions
    }
    for region in regions:
        cell = prof.cell(region, "single-bit soft")
        crashes = draw(st.integers(min_value=0, max_value=12))
        incorrect = draw(st.integers(min_value=0, max_value=6))
        masked = draw(st.integers(min_value=1, max_value=80))
        for _ in range(crashes):
            cell.record(ErrorOutcome.CRASH, 10, 0, 10, 0.5)
        for _ in range(incorrect):
            cell.record(ErrorOutcome.INCORRECT, 100, 3, 1, 5.0)
        for _ in range(masked):
            cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
    return prof


@st.composite
def search_spaces(draw, max_candidates=4, pool=POLICY_POOL, unique=True):
    """(profile, candidates, recoverable fractions) of one random space.

    ``unique=False`` lets the same pool entry be drawn more than once:
    duplicated candidates give whole families of designs with equal
    names and equal metrics, which only the id tie-break orders.
    """
    prof = draw(profiles())
    count = draw(st.integers(min_value=1, max_value=max_candidates))
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(pool) - 1),
            min_size=count,
            max_size=count,
            unique=unique,
        )
    )
    candidates = tuple(pool[i] for i in indices)
    fractions = {
        region: draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        )
        for region in prof.region_sizes
        if draw(st.booleans())
    }
    return prof, candidates, fractions


class Space(NamedTuple):
    """One random space the way ``explore`` sets it up: the evaluator,
    the sized regions in sorted order and their candidate tuples."""

    profile: VulnerabilityProfile
    candidates: tuple
    fractions: dict
    evaluator: DesignEvaluator
    regions: list
    specialized: list

    @classmethod
    def of(cls, prof, candidates, fractions):
        regions = sorted(prof.region_sizes)
        return cls(
            prof,
            candidates,
            fractions,
            DesignEvaluator(prof),
            regions,
            specialize_candidates(regions, candidates, fractions),
        )

    def matrix(self):
        return ContributionMatrix.build(self.evaluator, self.regions, self.specialized)

    def explore(self, target, search=explore, **options):
        return search(
            self.profile,
            availability_target=target,
            recoverable_fractions=self.fractions,
            candidates=self.candidates,
            **options,
        )


@st.composite
def spaces(draw, max_candidates=4):
    """A scalar-reference view of a random profile + candidates."""
    return Space.of(*draw(search_spaces(max_candidates)))


def scalar_metrics(space, digits):
    policies = {
        region: space.specialized[r][c]
        for r, (region, c) in enumerate(zip(space.regions, digits))
    }
    design = HRMDesign(
        name="+".join(p.describe() for p in policies.values()),
        policies=policies,
    )
    return space.evaluator.evaluate(design)


class TestMatrixMatchesScalarOracle:
    @settings(max_examples=40, deadline=None)
    @given(space=spaces(), data=st.data())
    def test_metrics_bit_identical(self, space, data):
        matrix = space.matrix()
        width = matrix.candidate_count
        design_id = data.draw(
            st.integers(min_value=0, max_value=matrix.total_designs - 1)
        )
        digits = matrix.digits_of(design_id)
        expected = scalar_metrics(space, digits)
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
        assert got.memory_cost_savings_range == expected.memory_cost_savings_range
        assert width ** len(space.regions) == matrix.total_designs

    @settings(max_examples=25, deadline=None)
    @given(space=spaces(max_candidates=3))
    def test_batch_arrays_bit_identical(self, space):
        matrix = space.matrix()
        batch = BatchDesignSpaceEvaluator(matrix, chunk_size=13)
        ids = np.arange(matrix.total_designs, dtype=np.int64)
        values = batch.evaluate_ids(ids)
        for design_id in range(matrix.total_designs):
            expected = scalar_metrics(space, matrix.digits_of(design_id))
            assert values["savings"][design_id] == expected.server_cost_savings
            assert values["availability"][design_id] == expected.availability
            assert (
                values["incorrect_per_million"][design_id]
                == expected.incorrect_per_million_queries
            )


class TestSearchEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        space=spaces(max_candidates=3),
        target=st.floats(min_value=0.9, max_value=1.0, allow_nan=False),
        top_k=st.integers(min_value=1, max_value=6),
    )
    def test_branch_and_bound_matches_exhaustive(self, space, target, top_k):
        exhaustive = space.explore(target, search=oracles.explore)
        matrix = space.matrix()
        bounded = BranchAndBoundSearcher(matrix).search(target, top_k=top_k)
        expected = exhaustive.feasible[:top_k]
        assert [m.design.name for m in bounded.top] == [
            m.design.name for m in expected
        ]
        for got, want in zip(bounded.top, expected):
            assert got.server_cost_savings == want.server_cost_savings
            assert got.availability == want.availability
        assert bounded.evaluated + bounded.pruned == matrix.total_designs

    @settings(max_examples=20, deadline=None)
    @given(
        space=spaces(max_candidates=3),
        target=st.floats(min_value=0.9, max_value=1.0, allow_nan=False),
    )
    def test_vectorized_search_matches_scalar(self, space, target):
        """The full feasible list: the production path (where the
        exhaustive vectorized scan stood) against the oracle."""
        scalar = space.explore(target, search=oracles.explore)
        auto = space.explore(target)
        assert [m.design.name for m in auto.feasible] == [
            m.design.name for m in scalar.feasible
        ]
        assert auto.evaluated + auto.pruned == scalar.evaluated
        assert auto.evaluated == auto.feasible_count == scalar.feasible_count


#: Same technique (so the same cost column) under every response, plus
#: the less-tested twin of one of them: columns that tie on cost and
#: differ only in crash / incorrectness contributions.
EQUAL_COST_POOL = tuple(
    RegionPolicy(technique=HardwareTechnique.PARITY, response=response)
    for response in SoftwareResponse
) + (
    RegionPolicy(technique=HardwareTechnique.NONE),
    RegionPolicy(technique=HardwareTechnique.NONE, less_tested=True),
)

#: One name ("Parity+R"), one cost column, three recoverable fractions.
#: In a region that never crashes and has no measured fraction to bind,
#: designs built from these tie on (savings, availability, name) and
#: differ in incorrectness: the assignment-id tie-break shows in the
#: metrics, and branch-and-bound visits the tied designs in the opposite
#: order (lowest incorrectness first). Exact duplicates cannot show it —
#: their tied designs are indistinguishable.
SAME_NAME_POOL = tuple(
    RegionPolicy(
        technique=HardwareTechnique.PARITY,
        response=SoftwareResponse.RECOVER,
        recoverable_fraction=fraction,
    )
    for fraction in (0.0, 0.5, 1.0)
) + (RegionPolicy(technique=HardwareTechnique.NONE),)


def crash_free_profile():
    """One region that answers wrongly but never crashes."""
    prof = VulnerabilityProfile(app="prop")
    prof.region_sizes = {"heap": 100}
    cell = prof.cell("heap", "single-bit soft")
    for _ in range(3):
        cell.record(ErrorOutcome.INCORRECT, 100, 3, 1, 5.0)
    for _ in range(7):
        cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
    return prof


METRIC_FIELDS = (
    "memory_cost_savings",
    "server_cost_savings",
    "crashes_per_month",
    "availability",
    "incorrect_per_million_queries",
)


class TestAutoMatchesEveryNamedBackend:
    """``auto`` is branch-and-bound, for the k best and (``top_k=None``)
    for the full feasible list; ``scalar`` is its oracle — names,
    metrics and order must agree on exactly the inputs where ties decide
    the ranking."""

    @settings(max_examples=60, deadline=None)
    @given(
        space=st.one_of(
            search_spaces(max_candidates=3),
            search_spaces(max_candidates=4, unique=False),
            search_spaces(
                max_candidates=4, pool=EQUAL_COST_POOL, unique=False
            ),
            search_spaces(
                max_candidates=4, pool=SAME_NAME_POOL, unique=False
            ),
        ),
        target=st.one_of(
            st.floats(min_value=0.9, max_value=1.0, allow_nan=False),
            st.sampled_from([0.0, 0.5, 1.0]),
        ),
        budget=st.one_of(
            st.none(),
            st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        ),
        top_k=st.none() | st.integers(min_value=1, max_value=12),
    )
    @example(
        space=(crash_free_profile(), SAME_NAME_POOL[:3], {}),
        target=0.0,
        budget=None,
        top_k=None,
    )
    def test_names_metrics_and_order(self, space, target, budget, top_k):
        prof, candidates, fractions = space
        results = {
            backend: search(
                prof,
                availability_target=target,
                recoverable_fractions=fractions,
                candidates=candidates,
                max_incorrect_per_million=budget,
                top_k=top_k,
            )
            for backend, search in (
                ("auto", explore), ("scalar", oracles.explore)
            )
        }
        auto, oracle = results["auto"], results["scalar"]
        assert auto.backend == "branch-and-bound"
        assert oracle.backend == "scalar"
        assert auto.evaluated + auto.pruned == auto.total_designs
        assert oracle.evaluated == oracle.total_designs == auto.total_designs
        assert oracle.feasible_count_exact
        assert auto.feasible_count_exact == (top_k is None)
        assert auto.feasible_count == len(auto.feasible)
        ranking = [
            (m.design.name,) + tuple(getattr(m, f) for f in METRIC_FIELDS)
            for m in auto.feasible
        ]
        assert ranking == [
            (m.design.name,) + tuple(getattr(m, f) for f in METRIC_FIELDS)
            for m in oracle.feasible
        ]
        if top_k is None:
            assert len(ranking) == oracle.feasible_count
        else:
            assert len(ranking) == min(top_k, oracle.feasible_count)


def quadratic_front(points):
    """The O(n^2) dominance scan the sweep replaced, output order
    (savings descending, index ascending) included: the oracle."""
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


#: Coordinates from a short menu next to free floats: tied savings,
#: tied availabilities and exact duplicates in most draws.
def coordinates(low, high, menu):
    return st.one_of(
        st.sampled_from(menu),
        st.floats(min_value=low, max_value=high, allow_nan=False),
    )


POINTS = st.lists(
    st.tuples(
        coordinates(-1.0, 1.0, [-0.0, 0.0, 0.25, 0.5]),
        coordinates(0.0, 1.0, [0.0, 0.9, 0.999, 1.0]),
    ),
    max_size=40,
)


def ceiling_skipped(points, block_rows):
    """Rows of a two-design simplex scored as ``points`` that the fleet
    search never asks about: those in row blocks after the one where
    availability first reaches 1.0, neither pure fleets (rows 0 and
    ``len(points) - 1``) nor tied on savings with that first 1.0 row."""
    savings = np.array([p[0] for p in points])
    availability = np.array([p[1] for p in points])
    order = np.argsort(-savings, kind="stable")
    reached = np.flatnonzero(availability[order] == 1.0)
    if not len(reached):
        return 0
    later = order[(reached[0] // block_rows + 1) * block_rows:]
    single = (later == 0) | (later == len(points) - 1)
    tie = savings[later] == savings[order[reached[0]]]
    return int((~single & ~tie).sum())


class ScoredGrid:
    """A ``CompositionGrid`` stand-in that scores row ``i`` of a
    two-design simplex as the ``i``-th given point.

    It offers what ``FleetOptimizer.search`` asks of a grid —
    ``tabulate(counts)`` giving ``savings``, ``block_rows``,
    ``distinct_blocks`` and ``availability(rows, floor)`` — and prunes
    as hard as that contract allows: every row below its floor reads
    ``-inf``, as if the bound were the exact value and the slack zero.
    ``POINTS`` keep availability within [0, 1], as the contract asks.
    """

    distinct_blocks = 0

    def __init__(self, points, servers=1000, block_rows=3):
        self.designs = [
            FleetDesign(name=name, policies={"heap": DEFAULT_CANDIDATES[0]})
            for name in ("A", "B")
        ]
        self.config = FleetConfig(servers=servers)
        self.savings, self.exact = map(np.array, zip(*points))
        self.block_rows = block_rows
        self.pruned = 0

    def tabulate(self, counts):
        assert len(counts) == len(self.exact)
        return self

    def availability(self, rows, floor):
        below = self.exact[rows] < floor
        self.pruned += int(below.sum())
        return np.where(below, -np.inf, self.exact[rows])


class TestParetoSweep:
    @settings(max_examples=200, deadline=None)
    @given(points=POINTS)
    def test_matches_quadratic_front(self, points):
        front = pareto_indices(
            [savings for savings, _ in points],
            [availability for _, availability in points],
        )
        assert front.tolist() == quadratic_front(points)

    @settings(max_examples=30, deadline=None)
    @given(space=search_spaces(max_candidates=3, unique=False))
    def test_mapping_optimizer_fronts_match_quadratic(self, space):
        """``repro.explore.pareto_front`` (where ``MappingOptimizer``'s
        stood) against the quadratic front of one scalar evaluation per
        design, over duplicated candidates."""
        space = Space.of(*space)
        front = pareto_front(
            space.evaluator,
            candidates=space.candidates,
            recoverable_fractions=space.fractions,
        )
        metrics = [
            scalar_metrics(space, digits)
            for digits in itertools.product(
                range(len(space.candidates)), repeat=len(space.regions)
            )
        ]
        expected = [
            metrics[i]
            for i in quadratic_front(
                [(m.server_cost_savings, m.availability) for m in metrics]
            )
        ]
        assert [
            (m.design.name, m.server_cost_savings, m.availability) for m in front
        ] == [
            (m.design.name, m.server_cost_savings, m.availability)
            for m in expected
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        points=POINTS.filter(lambda points: len(points) >= 2),
        target=st.sampled_from([0.5, 0.9, 0.999, 1.0]),
        block_rows=st.sampled_from([1, 3, 1000]),
    )
    def test_fleet_search_front_and_winner_match_reference(
        self, points, target, block_rows
    ):
        """``FleetOptimizer.search`` on a scored simplex: the front in
        oracle order, and the winner by the list form of the tie-break
        (savings, availability, then key) — with every row the walk
        lets the grid skip skipped, one row, three rows or the whole
        grid at a time. Rows past the ceiling are not asked at all."""
        units = len(points) - 1
        grid = ScoredGrid(points, block_rows=block_rows)
        result = FleetOptimizer(grid, availability_target=target).search(
            step=1.0 / units
        )
        assert result.evaluated == len(points)
        skipped = ceiling_skipped(points, block_rows)
        assert result.skipped_at_ceiling == skipped
        assert result.scored == len(points) - grid.pruned - skipped
        # The two pure fleets are exposed whatever they score.
        for name, index in (("A", units), ("B", 0)):
            single = result.singles[name]
            assert (single.cost_savings, single.fleet_availability) == points[index]

        def row(point):
            return round(point.fractions["A"] * units)

        assert [row(p) for p in result.pareto] == quadratic_front(points)
        for p in result.pareto:
            assert (p.cost_savings, p.fleet_availability) == points[row(p)]
        keys = {}
        for index in range(len(points)):
            fractions = {"A": index / units, "B": (units - index) / units}
            keys[index] = CompositionMetrics(
                fractions=fractions,
                counts={},
                fleet_availability=0.0,
                cost_savings=0.0,
                feasible=False,
                key_decimals=max(2, len(str(units - 1))),
            ).key
        feasible = [i for i, (_, avail) in enumerate(points) if avail >= target]
        if not feasible:
            assert result.best is None
            return
        winner = min(
            feasible, key=lambda i: (-points[i][0], -points[i][1], keys[i])
        )
        assert row(result.best) == winner
        assert result.best.feasible


class TestExhaustiveEnumerationOrder:
    @settings(max_examples=20, deadline=None)
    @given(space=spaces(max_candidates=3))
    def test_matrix_ids_enumerate_product_order(self, space):
        matrix = space.matrix()
        names = [
            matrix.design_name(matrix.digits_of(i))
            for i in range(matrix.total_designs)
        ]
        expected = [
            "+".join(policy.describe() for policy in assignment)
            for assignment in itertools.product(*space.specialized)
        ]
        assert names == expected
