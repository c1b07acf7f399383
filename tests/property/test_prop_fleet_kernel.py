"""The batched shortfall kernel against the scalar loop it replaced.

``CompositionGrid.evaluate`` scores a whole ``(compositions x months)``
grid in one pass and ``AnalyticFleetResult`` routes its per-month
moments through the same kernel. The one-composition-at-a-time
evaluator and its ``math.erf`` / ``math.exp`` month loop used to live in
``repro.fleet.analytic``; they are kept here, verbatim, as the oracle.
The arithmetic did not change — same operations, same order — so the
contract is equality of ``float.hex()``, not a tolerance.

Two later replacements are pinned the same way, their old forms frozen
here: the kernel that ran ``erf`` / ``exp`` on *every* cell (it now
runs them only within 39 standard deviations of the headroom, where
they can change the result) and the recursive stars-and-bars generator
(now one array, same rows in the same order).
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.availability import MINUTES_PER_MONTH  # noqa: E402
from repro.core.mapping import paper_design_points  # noqa: E402
from repro.core.taxonomy import ErrorOutcome  # noqa: E402
from repro.core.vulnerability import VulnerabilityProfile  # noqa: E402
from repro.explore.pareto import pareto_indices  # noqa: E402
from repro.fleet import (  # noqa: E402
    AgingConfig,
    CorrelationConfig,
    FleetConfig,
    FleetDesign,
    analyze_fleet,
    apportion_servers,
    optimize_fleet,
)
from repro.fleet.analytic import (  # noqa: E402
    CompositionGrid,
    _routed_availability,
)
from repro.fleet.config import apportion_rows  # noqa: E402
from repro.fleet.optimizer import (  # noqa: E402
    CompositionMetrics,
    FleetOptimizationResult,
    _unit_allocations,
)

REGIONS = {"private": (4000, 12, 5), "heap": (2500, 8, 9), "stack": (300, 50, 1)}
RECOVERABLE = {"private": 0.7, "heap": 0.55, "stack": 0.2}


def build_profile():
    prof = VulnerabilityProfile(app="kernel")
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


PROFILE = build_profile()
#: The five Table 6 designs. "Typical Server" corrects every single-bit
#: error, so a fleet of it alone has zero crash variance: with shocks
#: off that is the ``std <= 0`` branch.
DESIGNS = tuple(paper_design_points(sorted(REGIONS), RECOVERABLE))


# ----------------------------------------------------------------------
# The scalar reference (the pre-batching source, unchanged)
# ----------------------------------------------------------------------
def _phi(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _Phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _expected_shortfall(mean, std, headroom):
    excess = mean - headroom
    if std <= 0.0:
        return max(0.0, excess)
    t = excess / std
    return excess * _Phi(t) + std * _phi(t)


def reference_routed_availability(mean_downtime, var_downtime, servers, demand_fraction):
    demand_minutes = demand_fraction * servers * MINUTES_PER_MONTH
    headroom_minutes = (1.0 - demand_fraction) * servers * MINUTES_PER_MONTH
    months = len(mean_downtime)
    out = np.empty(months, dtype=np.float64)
    for m in range(months):
        shortfall = _expected_shortfall(
            float(mean_downtime[m]),
            math.sqrt(max(0.0, float(var_downtime[m]))),
            headroom_minutes,
        )
        out[m] = 1.0 - shortfall / demand_minutes
    return out


def reference_evaluate(grid, counts):
    """One composition through the old ``CompositionGrid.evaluate``."""
    config = grid.config
    servers = config.servers
    if sum(counts) != servers:
        raise ValueError("composition does not cover config.servers")
    recovery = grid.params.crash_recovery_minutes
    mean_downtime = (
        grid.repairs_by_month * config.repair_downtime_minutes
        + grid._shock_downtime_mean
    )
    var_downtime = np.full_like(mean_downtime, grid._shock_downtime_var)
    savings = 0.0
    cursor = 0
    for d, count in enumerate(counts):
        if count == 0:
            continue
        stop = cursor + count
        block_mult = grid.cum_mult[stop, :] - grid.cum_mult[cursor, :]
        if grid._bad_extra > 0 and grid._bad_fraction > 0:
            bad_stop = cursor + int(round(grid._bad_fraction * count))
            block_mult = block_mult + grid._bad_extra * (
                grid.cum_mult[bad_stop, :] - grid.cum_mult[cursor, :]
            )
        crashes = grid.crash_coeff[d] * block_mult
        mean_downtime = mean_downtime + crashes * recovery
        var_downtime = var_downtime + crashes * recovery**2
        savings += grid.savings[d] * (count / servers)
        cursor = stop
    availability = reference_routed_availability(
        mean_downtime, var_downtime, servers, config.demand_fraction
    )
    return (float(availability.mean()), float(savings))


def reference_apportion(servers, fractions):
    """The old per-composition ``apportion_servers`` (checks omitted)."""
    quotas = tuple(
        (name, servers * fraction) for name, fraction in fractions.items()
    )
    counts = {name: int(math.floor(quota)) for name, quota in quotas}
    leftover = servers - sum(counts.values())
    remainders = sorted(
        quotas, key=lambda item: (-(item[1] - math.floor(item[1])), item[0])
    )
    for name, _quota in remainders[:leftover]:
        counts[name] += 1
    return counts


def reference_unit_allocations(designs, units):
    """The recursive stars-and-bars generator the array form replaced
    (``repro.fleet.optimizer._unit_allocations`` as of commit 8c277a3)."""
    if designs == 1:
        yield (units,)
        return
    for first in range(units + 1):
        for rest in reference_unit_allocations(designs - 1, units - first):
            yield (first,) + rest


def reference_search(grid, availability_target, step):
    """The old ``FleetOptimizer.search``: every point built and scored
    one at a time, winner and singles picked from the full list. One
    line differs from that source: ``singles`` took its names from
    ``key.split(":")[0]`` over every point unmixed *by count*, which
    filed a rounded-to-one-design fleet under the first fraction in its
    key; a single is the point that gives one design every unit."""
    units = max(1, round(1.0 / step))
    names = [design.name for design in grid.designs]
    points = []
    for allocation in reference_unit_allocations(len(names), units):
        fractions = {name: allocation[d] / units for d, name in enumerate(names)}
        counts = reference_apportion(grid.config.servers, fractions)
        availability, savings = reference_evaluate(
            grid, [counts[name] for name in names]
        )
        points.append(
            CompositionMetrics(
                fractions=fractions,
                counts=dict(counts),
                fleet_availability=availability,
                cost_savings=savings,
                feasible=availability >= availability_target,
            )
        )
    feasible = [point for point in points if point.feasible]
    best = None
    if feasible:
        best = min(
            feasible,
            key=lambda p: (-p.cost_savings, -p.fleet_availability, p.key),
        )
    front = pareto_indices(
        [p.cost_savings for p in points],
        [p.fleet_availability for p in points],
    ).tolist()
    return FleetOptimizationResult(
        availability_target=availability_target,
        step=1.0 / units,
        evaluated=len(points),
        best=best,
        pareto=[points[i] for i in front],
        singles={
            name: p
            for p in points
            for name, fraction in p.fractions.items()
            if fraction == 1.0
        },
    )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def correlations(draw):
    shocks = draw(st.booleans())
    bad_batch = draw(st.sampled_from(["off", "fraction-only", "multiplier-only", "on"]))
    return CorrelationConfig(
        shock_rate_per_month=draw(st.floats(0.05, 3.0)) if shocks else 0.0,
        shock_cohort_fraction=draw(st.floats(0.01, 0.5)),
        shock_downtime_minutes=draw(st.floats(1.0, 240.0)),
        bad_batch_fraction=(
            draw(st.floats(0.01, 0.6)) if bad_batch in ("fraction-only", "on") else 0.0
        ),
        bad_batch_multiplier=(
            draw(st.floats(1.5, 6.0)) if bad_batch in ("multiplier-only", "on") else 1.0
        ),
        mode=draw(st.sampled_from(["correlated", "independent"])),
    )


@st.composite
def fleet_configs(draw, max_servers=300):
    """A fleet shape; two in three are *tense*.

    With free headroom the shortfall is 0 (or, at ``demand_fraction``
    1.0, the whole mean) and availability does not depend on ``erf`` /
    ``exp`` at all — a sweep of such configs passes with the kernel
    broken. A tense config puts the headroom within a few standard
    deviations of the uniform fleet's mean downtime, where the last bit
    of every intermediate shows in the result.
    """
    config = FleetConfig(
        servers=draw(st.integers(1, max_servers)),
        months=draw(st.integers(1, 40)),
        demand_fraction=draw(
            st.one_of(st.floats(0.5, 1.0), st.sampled_from([0.985, 0.99, 1.0]))
        ),
        retirement_age_months=draw(st.integers(1, 60)),
        repair_downtime_minutes=draw(st.sampled_from([0.0, 45.0, 240.0])),
        aging=draw(st.sampled_from([AgingConfig.flat(), AgingConfig()])),
        correlation=draw(correlations()),
    )
    sigmas = draw(st.one_of(st.none(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
    if sigmas is None:
        return config
    moments = analyze_fleet(PROFILE, designs=DESIGNS, config=config)
    headroom = float(moments.mean_downtime_by_month.mean()) + sigmas * math.sqrt(
        float(moments.var_downtime_by_month.mean())
    )
    demand = 1.0 - headroom / (config.servers * MINUTES_PER_MONTH)
    return dataclasses.replace(
        config, demand_fraction=min(1.0, max(0.01, demand))
    )


@st.composite
def design_subsets(draw, max_designs=5):
    """1 to 5 of the Table 6 designs, order kept (blocks are ordered)."""
    picked = draw(
        st.lists(
            st.integers(0, len(DESIGNS) - 1),
            min_size=1,
            max_size=max_designs,
            unique=True,
        )
    )
    return [DESIGNS[i] for i in sorted(picked)]


def resolved_grid(designs, config):
    """The grid ``optimize_fleet`` builds for these designs."""
    from repro.fleet.engine import _resolve_designs

    fleet_designs = _resolve_designs(
        PROFILE, designs, None, None, None, "single-bit soft", None
    )
    return CompositionGrid(PROFILE, fleet_designs, config)


def hexes(values):
    return [float(value).hex() for value in values]


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
class TestBatchedKernelMatchesScalarLoop:
    @settings(max_examples=60, deadline=None)
    @given(config=fleet_configs(), designs=design_subsets(), data=st.data())
    def test_random_compositions(self, config, designs, data):
        """Arbitrary count rows, zero-count designs included, in one
        batch — each row must score as it did evaluated alone."""
        grid = resolved_grid(designs, config)
        rows = []
        for _ in range(data.draw(st.integers(1, 12))):
            cuts = sorted(
                data.draw(st.integers(0, config.servers))
                for _ in range(len(designs) - 1)
            )
            edges = [0] + cuts + [config.servers]
            rows.append([hi - lo for lo, hi in zip(edges, edges[1:])])
        availability, savings = grid.evaluate(rows)
        expected = [reference_evaluate(grid, row) for row in rows]
        assert hexes(availability) == hexes(pair[0] for pair in expected)
        assert hexes(savings) == hexes(pair[1] for pair in expected)

    @settings(max_examples=40, deadline=None)
    @given(
        config=fleet_configs(),
        designs=design_subsets(max_designs=3),
        step=st.sampled_from([1.0, 0.5, 0.05]),
        target=st.sampled_from([0.9, 0.999, 0.9995, 1.0]),
    )
    def test_optimizer_result_unchanged(self, config, designs, step, target):
        """Lazy point construction, the tie-break and the singles table
        give the same ``to_dict()`` as building every point."""
        got = optimize_fleet(
            PROFILE,
            designs=designs,
            config=config,
            availability_target=target,
            step=step,
        )
        want = reference_search(resolved_grid(designs, config), target, step)
        assert got.to_dict() == want.to_dict()
        assert list(got.singles) == list(want.singles)
        assert hexes(p.fleet_availability for p in got.pareto) == hexes(
            p.fleet_availability for p in want.pareto
        )

    @settings(max_examples=40, deadline=None)
    @given(config=fleet_configs(max_servers=120), designs=design_subsets())
    def test_analyze_fleet_routes_through_the_same_kernel(self, config, designs):
        result = analyze_fleet(PROFILE, designs=designs, config=config)
        expected = reference_routed_availability(
            result.mean_downtime_by_month,
            result.var_downtime_by_month,
            result.servers,
            config.demand_fraction,
        )
        assert hexes(result.availability_by_month) == hexes(expected)
        assert result.mean_fleet_availability.hex() == float(expected.mean()).hex()

    def test_row_blocks_do_not_change_results(self, monkeypatch):
        """More rows than one block holds: the block boundary is only a
        memory bound."""
        from repro.fleet import analytic

        config = FleetConfig(
            servers=90,
            months=24,
            demand_fraction=0.985,
            correlation=CorrelationConfig(
                shock_rate_per_month=1.0,
                shock_cohort_fraction=0.1,
                bad_batch_fraction=0.05,
                bad_batch_multiplier=3.0,
            ),
        )
        grid = resolved_grid(list(DESIGNS), config)
        rows = [[a, b, 90 - a - b, 0, 0] for a in range(0, 91, 9) for b in range(0, 91 - a, 9)]
        whole = grid.evaluate(rows)
        monkeypatch.setattr(analytic, "_BLOCK_ELEMENTS", 24 * 7)
        blocked = grid.evaluate(rows)
        assert hexes(whole[0]) == hexes(blocked[0])
        assert hexes(whole[1]) == hexes(blocked[1])
        assert hexes(whole[0]) == hexes(reference_evaluate(grid, row)[0] for row in rows)


# ----------------------------------------------------------------------
# The kernel that ran erf / exp on every cell (the parent's source)
# ----------------------------------------------------------------------
def reference_per_element(function, values):
    return np.fromiter(
        map(function, values.ravel().tolist()),
        dtype=np.float64,
        count=values.size,
    ).reshape(values.shape)


def reference_kernel(mean_downtime, var_downtime, servers, demand_fraction):
    """``repro.fleet.analytic._routed_availability`` as of commit
    8c277a3, verbatim: ``erf`` and ``exp`` on every element."""
    demand_minutes = demand_fraction * servers * MINUTES_PER_MONTH
    headroom_minutes = (1.0 - demand_fraction) * servers * MINUTES_PER_MONTH
    excess = mean_downtime - headroom_minutes
    std = np.sqrt(np.maximum(0.0, var_downtime))
    spread = std > 0.0
    t = np.divide(excess, std, out=np.zeros_like(std), where=spread)
    cdf = 0.5 * (1.0 + reference_per_element(math.erf, t / math.sqrt(2.0)))
    pdf = reference_per_element(math.exp, -0.5 * t * t) / math.sqrt(
        2.0 * math.pi
    )
    shortfall = np.where(
        spread, excess * cdf + std * pdf, np.maximum(0.0, excess)
    )
    return 1.0 - shortfall / demand_minutes


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
        got[got.view(np.int64) != want.view(np.int64)],
        want[got.view(np.int64) != want.view(np.int64)],
    )


#: Standardized distances worth hitting on purpose: the reach itself,
#: its neighbours on both sides, the band where the pdf is denormal
#: (``exp(-t²/2)`` between 38 and 39), where it first underflows, zero.
EDGES = [
    edge
    for t in (39.0, 38.0, 38.25, 38.5, 38.75, 38.999, 38.6, 38.7, 8.3, 5.93)
    for edge in (t, np.nextafter(t, 40.0), np.nextafter(t, 0.0))
] + [0.0, 60.0, 1e6]
EDGES = EDGES + [-t for t in EDGES]


class TestKernelOnlyNearItsThreshold:
    @pytest.mark.parametrize("var", [1.0, 4.0, 0.0])
    def test_exact_edges(self, var):
        """No headroom (``demand_fraction`` 1.0) and a power-of-two
        ``std``: ``t`` is the mean over ``std`` exactly, so every edge
        lands on the cell it names. ``var`` 0.0 is the degenerate
        branch over the same means."""
        std = math.sqrt(var) or 1.0
        mean = np.array(EDGES, dtype=np.float64) * std
        variance = np.full_like(mean, var)
        want = reference_kernel(mean, variance, 3, 1.0)
        assert_same_bits(_routed_availability(mean, variance, 3, 1.0), want)
        grid = (mean.reshape(2, -1), variance.reshape(2, -1))
        assert_same_bits(
            _routed_availability(*grid, 3, 1.0), want.reshape(2, -1)
        )
        if var:
            # The edges straddle the reach: cells on both sides of it,
            # denormal pdfs among the near ones.
            t = mean / std
            pdf = reference_per_element(math.exp, -0.5 * t * t)
            assert (np.abs(t) >= 39.0).sum() >= 8
            assert ((pdf > 0.0) & (pdf < 2.3e-308)).sum() >= 20

    @settings(max_examples=200, deadline=None)
    @given(
        servers=st.integers(1, 5000),
        demand_fraction=st.one_of(
            st.floats(0.5, 1.0), st.sampled_from([0.985, 1.0])
        ),
        cells=st.lists(
            st.tuples(
                st.one_of(st.sampled_from(EDGES), st.floats(-60.0, 60.0)),
                st.one_of(st.just(0.0), st.floats(1e-3, 1e7)),
            ),
            min_size=1,
            max_size=48,
        ),
        rows=st.sampled_from([1, 2, 3, 4]),
    )
    def test_random_moments(self, servers, demand_fraction, cells, rows):
        """Moments placed ``t`` standard deviations from the headroom,
        ``std == 0`` cells among them, as ``(months,)`` and as
        ``(rows, months)``."""
        cells = cells * rows
        t = np.array([cell[0] for cell in cells])
        std = np.array([cell[1] for cell in cells])
        headroom = (1.0 - demand_fraction) * servers * MINUTES_PER_MONTH
        mean = headroom + t * std
        variance = std * std
        want = reference_kernel(mean, variance, servers, demand_fraction)
        got = _routed_availability(mean, variance, servers, demand_fraction)
        assert_same_bits(got, want)
        assert_same_bits(
            _routed_availability(
                mean.reshape(rows, -1),
                variance.reshape(rows, -1),
                servers,
                demand_fraction,
            ),
            want.reshape(rows, -1),
        )


class TestArrayStarsAndBars:
    @pytest.mark.parametrize("designs", range(1, 7))
    def test_rows_match_the_recursive_generator(self, designs):
        for units in range(1, 21):
            got = _unit_allocations(designs, units)
            assert got.dtype == np.int64
            assert got.tolist() == [
                list(row) for row in reference_unit_allocations(designs, units)
            ], (designs, units)


class TestBatchedApportionment:
    @settings(max_examples=200, deadline=None)
    @given(
        servers=st.integers(1, 2000),
        names=st.lists(
            st.text("abcXYZ :", min_size=1, max_size=4),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        data=st.data(),
    )
    def test_rows_match_the_per_composition_rule(self, servers, names, data):
        """Small integer weights make equal remainders common, so the
        name tie-break decides who gets the leftover servers."""
        weights = st.lists(
            st.integers(0, 6), min_size=len(names), max_size=len(names)
        ).filter(any)
        rows = [
            [weight / sum(row) for weight in row]
            for row in data.draw(st.lists(weights, min_size=1, max_size=8))
        ]
        got = apportion_rows(servers, names, np.array(rows))
        assert got.sum(axis=1).tolist() == [servers] * len(rows)
        for row, counts in zip(rows, got.tolist()):
            fractions = dict(zip(names, row))
            assert counts == list(reference_apportion(servers, fractions).values())
            assert apportion_servers(servers, fractions) == dict(zip(names, counts))

    def test_checks_name_the_offending_row(self):
        with pytest.raises(ValueError, match="sum to 1, got 0.9"):
            apportion_rows(10, ["a", "b"], np.array([[0.5, 0.5], [0.5, 0.4]]))
        with pytest.raises(ValueError, match="'b' must be >= 0"):
            apportion_rows(10, ["a", "b"], np.array([[0.5, 0.5], [1.5, -0.5]]))


class TestEvaluateRejectsBadCompositions:
    GRID_CONFIG = FleetConfig(servers=10, months=6)

    def test_row_that_does_not_cover_the_fleet(self):
        grid = resolved_grid(list(DESIGNS[:2]), self.GRID_CONFIG)
        with pytest.raises(ValueError, match="covers 9 servers"):
            grid.evaluate([[5, 5], [4, 5]])

    def test_negative_count_and_wrong_width(self):
        grid = resolved_grid(list(DESIGNS[:2]), self.GRID_CONFIG)
        with pytest.raises(ValueError, match=">= 0"):
            grid.evaluate([[11, -1]])
        with pytest.raises(ValueError, match="compositions, 2"):
            grid.evaluate([[5, 3, 2]])
        with pytest.raises(ValueError, match="compositions, 2"):
            grid.evaluate([5, 5])

    def test_duplicate_design_names(self):
        twin = FleetDesign(
            name=DESIGNS[0].name,
            policies=DESIGNS[1].policies,
            server_cost_savings=0.1,
        )
        with pytest.raises(ValueError, match="duplicate design names"):
            resolved_grid([DESIGNS[0], twin], self.GRID_CONFIG)
