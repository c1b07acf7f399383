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

Three cuts came after, and moved none of those bits: each distinct
``(design, start, count)`` block of a batch is tabulated once, the
search runs the kernel only on compositions whose Jensen bound can reach
the front (pinned to ``reference_search``, which scores them all), and
``AnalyticFleetModel`` reads its moments off the age census — the one
that moves a last digit, so the per-server model it replaced is frozen
here too, with a tolerance in ulps.
"""

import dataclasses
import math
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.availability import MINUTES_PER_MONTH
from repro.core.mapping import paper_design_points
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.explore.pareto import pareto_indices
from repro.fleet import (
    AgingConfig,
    CorrelationConfig,
    FleetConfig,
    FleetDesign,
    FleetLayout,
    analyze_fleet,
    apportion_servers,
    optimize_fleet,
)
from repro.fleet.analytic import (
    _BOUND_SLACK,
    AnalyticFleetModel,
    CompositionGrid,
    _availability_bound,
    _routed_availability,
    _shock_moments,
)
from repro.fleet.config import apportion_rows
from repro.fleet.optimizer import (
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


def reference_points(grid, availability_target, step):
    """Every point of the old ``FleetOptimizer.search``, built and scored
    one at a time, in grid row order."""
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
    return points


def reference_search(grid, availability_target, step, points=None):
    """The old ``FleetOptimizer.search``: winner and singles picked from
    the full list of :func:`reference_points` (``points``, when they are
    built already). One line differs from that source: ``singles`` took
    its names from ``key.split(":")[0]`` over every point unmixed *by
    count*, which filed a rounded-to-one-design fleet under the first
    fraction in its key; a single is the point that gives one design
    every unit."""
    units = max(1, round(1.0 / step))
    if points is None:
        points = reference_points(grid, availability_target, step)
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


def resolved(designs):
    """``designs`` as ``optimize_fleet`` resolves them: savings filled in."""
    from repro.fleet.engine import _resolve_designs

    return _resolve_designs(
        PROFILE, designs, None, None, None, "single-bit soft", None
    )


def resolved_grid(designs, config):
    """The grid ``optimize_fleet`` builds for these designs."""
    return CompositionGrid(PROFILE, resolved(designs), config)


def hexes(values):
    return [float(value).hex() for value in values]


def random_rows(data, servers, designs):
    """1 to 12 count rows covering ``servers``, zero counts included."""
    rows = []
    for _ in range(data.draw(st.integers(1, 12))):
        cuts = sorted(
            data.draw(st.integers(0, servers)) for _ in range(designs - 1)
        )
        edges = [0] + cuts + [servers]
        rows.append([hi - lo for lo, hi in zip(edges, edges[1:])])
    return rows


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
        # The kernel clamps a shortfall that rounds below zero: where the
        # frozen kernel reads above 1.0, it reads exactly 1.0.
        want = np.minimum(
            reference_kernel(mean, variance, servers, demand_fraction), 1.0
        )
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


# ----------------------------------------------------------------------
# Block tables, the Jensen bound and the bounded search
# ----------------------------------------------------------------------
def with_twins(designs):
    """``designs`` resolved, each followed by a twin under another name:
    equal savings and equal moments, so whole families of compositions
    tie on both coordinates and only the key orders them."""
    return [
        design
        for original in resolved(designs)
        for design in (
            original,
            dataclasses.replace(original, name=original.name + " (twin)"),
        )
    ]


def assert_same_search(got, want):
    assert got.to_dict() == want.to_dict()
    assert list(got.singles) == list(want.singles)
    for mine, theirs in (
        ([got.best], [want.best]),
        (got.pareto, want.pareto),
        (got.singles.values(), want.singles.values()),
    ):
        for field in ("fleet_availability", "cost_savings"):
            assert hexes(getattr(p, field) for p in mine if p) == hexes(
                getattr(p, field) for p in theirs if p
            )
    assert got.evaluated == want.evaluated
    assert 0 < got.scored <= got.evaluated


def row_blocks(rows, months):
    """Patch the row-block size to ``rows`` compositions."""
    from repro.fleet import analytic

    return mock.patch.object(analytic, "_BLOCK_ELEMENTS", rows * months)


def ceiling_accounting(points, block_rows):
    """``(scored, skipped_at_ceiling)`` of a search over the reference
    ``points`` whose first row block holds the whole grid or reaches
    1.0 with every savings tie of its first 1.0 row at 1.0: that block
    is scored in full (nothing is below a floor yet), and of the later
    rows the singles and those ties are scored, the rest skipped."""
    savings = np.array([p.cost_savings for p in points])
    availability = np.array([p.fleet_availability for p in points])
    single = np.array([max(p.fractions.values()) == 1.0 for p in points])
    order = np.argsort(-savings, kind="stable")
    first, later = order[:block_rows], order[block_rows:]
    if not len(later):
        return (len(first), 0)
    tie = savings[later] == savings[first[availability[first] == 1.0][0]]
    assert (availability[later[tie]] == 1.0).all()
    kept = single[later] | tie
    return (len(first) + int(kept.sum()), int((~kept).sum()))


class TestBoundedSearchMatchesReference:
    """``FleetOptimizer.search`` scores only the compositions whose
    Jensen bound can reach the front, and none below the savings of the
    first one at 1.0; what it exposes must be what scoring every
    composition one at a time exposes, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        config=fleet_configs(max_servers=120),
        designs=design_subsets(max_designs=3),
        regime=st.sampled_from(["as drawn", "saturated", "no spread"]),
        twins=st.booleans(),
        step=st.sampled_from([1.0, 0.5, 0.25, 0.1, 0.05, 0.02]),
        target=st.sampled_from([0.9, 0.999, 0.9995, 1.0]),
        block=st.sampled_from([1, 2, 7, None, 10**6]),
    )
    def test_best_front_and_singles(
        self, config, designs, regime, twins, step, target, block
    ):
        """Tense, saturated (every availability exactly 1.0: the first
        row reaches the ceiling, so past the first row block only the
        singles and its savings ties are scored) and spread-free (no
        shocks, no bad batch: ``std == 0`` cells wherever Typical Server
        holds the fleet) grids; twins tie whole savings groups across
        row blocks; at step 0.02 the fleet is smaller than the grid and
        rounding makes duplicate rows; row blocks of one composition, a
        few, the default and the whole grid."""
        if regime == "saturated":
            config = dataclasses.replace(config, demand_fraction=0.5)
        elif regime == "no spread":
            config = dataclasses.replace(config, correlation=CorrelationConfig())
        if twins:
            designs = with_twins(designs[: 2 if step >= 0.05 else 1])
        grid = resolved_grid(designs, config)
        points = reference_points(grid, target, step)
        want = reference_search(grid, target, step, points)
        if regime == "saturated":
            assert {p.fleet_availability for p in want.singles.values()} == {1.0}
        with row_blocks(block, config.months) if block else nullcontext():
            got = optimize_fleet(
                PROFILE,
                designs=designs,
                config=config,
                availability_target=target,
                step=step,
            )
        assert_same_search(got, want)
        if regime == "saturated" or block == 10**6:
            from repro.fleet import analytic

            rows = block or analytic._BLOCK_ELEMENTS // config.months
            assert (got.scored, got.skipped_at_ceiling) == ceiling_accounting(
                points, rows
            )

    def test_tense_grid_prunes_but_scores_its_dominated_single(self):
        """The benchmark's wear at half a percent of headroom: same
        result as the reference from a fifth of the kernel rows, over
        far fewer distinct blocks than block lookups. The all-Consumer-PC
        fleet is strictly dominated — exactly what the walk skips — and
        still reported exactly."""
        config = FleetConfig(
            servers=1000,
            months=36,
            demand_fraction=0.995,
            aging=AgingConfig(),
            correlation=CorrelationConfig(
                shock_rate_per_month=1.0,
                shock_cohort_fraction=0.1,
                shock_downtime_minutes=30.0,
                bad_batch_fraction=0.05,
                bad_batch_multiplier=3.0,
            ),
        )
        with row_blocks(64, config.months):
            got = optimize_fleet(
                PROFILE, designs=DESIGNS, config=config,
                availability_target=0.9995, step=0.1,
            )
        want = reference_search(resolved_grid(DESIGNS, config), 0.9995, 0.1)
        assert_same_search(got, want)
        assert got.evaluated == 1001
        assert got.scored < 0.3 * got.evaluated
        # 11 + 3 x 66 + 11 of the 5 005 (composition, design) blocks.
        assert got.distinct_blocks == 220
        dominated = got.singles["Consumer PC"]
        assert dominated.key not in {point.key for point in got.pareto}
        assert any(
            point.cost_savings >= dominated.cost_savings
            and point.fleet_availability > dominated.fleet_availability
            for point in got.pareto
        )

    def test_tied_twins_survive_a_block_boundary(self):
        """Two names for Typical Server and no shocks: every composition
        has zero variance, the bound *is* the availability, and all 21
        rows tie on both coordinates. One row per block: each later row
        meets a running best equal to its own bound, and has to stay."""
        assert DESIGNS[0].name == "Typical Server"
        designs = with_twins([DESIGNS[0]])
        config = FleetConfig(
            servers=40, months=12, demand_fraction=1.0,
            repair_downtime_minutes=45.0, retirement_age_months=6,
        )
        with row_blocks(1, config.months):
            got = optimize_fleet(
                PROFILE, designs=designs, config=config,
                availability_target=0.9, step=0.05,
            )
        assert_same_search(
            got, reference_search(resolved_grid(designs, config), 0.9, 0.05)
        )
        assert len(got.pareto) == got.scored == got.evaluated == 21
        assert got.pareto[0].fleet_availability < 1.0

    def test_saturated_grid_scores_its_singles_and_the_ceiling_ties(self):
        """Half the fleet idle: every composition reads exactly 1.0, so
        the first row scored is at the ceiling. With one row a block,
        what is scored is exactly the singles and the rows that tie the
        first on savings; the rest are skipped, the result unchanged."""
        config = FleetConfig(
            servers=60, months=12, demand_fraction=0.5,
            correlation=CorrelationConfig(shock_rate_per_month=1.0),
        )
        grid = resolved_grid(list(DESIGNS), config)
        points = reference_points(grid, 0.9995, 0.1)
        assert {p.fleet_availability for p in points} == {1.0}
        with row_blocks(1, config.months):
            got = optimize_fleet(
                PROFILE, designs=DESIGNS, config=config,
                availability_target=0.9995, step=0.1,
            )
        assert_same_search(
            got, reference_search(grid, 0.9995, 0.1, points)
        )
        top = max(p.cost_savings for p in points)
        kept = [
            p for p in points
            if p.cost_savings == top or max(p.fractions.values()) == 1.0
        ]
        assert got.scored == len(kept) == len(DESIGNS)
        assert got.skipped_at_ceiling == got.evaluated - got.scored == 996
        assert (got.scored, got.skipped_at_ceiling) == ceiling_accounting(
            points, 1
        )

    def test_tied_twins_at_the_ceiling_survive_its_block_boundary(self):
        """Two names each for Typical Server and Less-Tested (L) at 2 %
        headroom: the richest savings groups miss 1.0, and the first to
        reach it has nine members, all at 1.0. The row block ends just
        after the first of them: the other eight come after the ceiling
        is reached, tie it on savings, and must stay on the front."""
        designs = with_twins([DESIGNS[0], DESIGNS[3]])
        config = FleetConfig(
            servers=40, months=12, demand_fraction=0.98,
            repair_downtime_minutes=45.0, retirement_age_months=6,
        )
        grid = resolved_grid(designs, config)
        points = reference_points(grid, 0.9, 0.25)
        savings = np.array([p.cost_savings for p in points])
        availability = np.array([p.fleet_availability for p in points])
        order = np.argsort(-savings, kind="stable")
        first = int(np.flatnonzero(availability[order] == 1.0)[0])
        ceiling = savings[order[first]]
        twins = order[savings[order] == ceiling]
        assert first == 13 and len(twins) == 9
        assert (availability[twins] == 1.0).all()
        assert (availability[order[:first]] < 1.0).all()
        with row_blocks(first + 1, config.months):
            got = optimize_fleet(
                PROFILE, designs=designs, config=config,
                availability_target=0.9, step=0.25,
            )
        assert_same_search(got, reference_search(grid, 0.9, 0.25, points))
        on_front = [p for p in got.pareto if p.cost_savings == ceiling]
        assert len(on_front) == 9
        assert {p.fleet_availability for p in on_front} == {1.0}
        assert (got.scored, got.skipped_at_ceiling) == ceiling_accounting(
            points, first + 1
        )
        assert got.skipped_at_ceiling > 0


class TestJensenBound:
    def check_cells(self, mean, variance, servers, demand_fraction):
        bound = _availability_bound(mean, servers, demand_fraction)
        kernel = _routed_availability(mean, variance, servers, demand_fraction)
        assert_same_bits(
            bound,
            _routed_availability(
                mean, np.zeros_like(mean), servers, demand_fraction
            ),
        )
        # The derivation behind the slack: the kernel can exceed the
        # bound by a few ulps of (|excess| + std) over the demand.
        demand = demand_fraction * servers * MINUTES_PER_MONTH
        excess = mean - (1.0 - demand_fraction) * servers * MINUTES_PER_MONTH
        scale = np.maximum(1.0, (np.abs(excess) + np.sqrt(variance)) / demand)
        assert (bound >= kernel - _BOUND_SLACK / 1000 * scale).all()

    @pytest.mark.parametrize("var", [1.0, 4.0, 0.0])
    def test_exact_edges(self, var):
        std = math.sqrt(var) or 1.0
        mean = np.array(EDGES, dtype=np.float64) * std
        self.check_cells(mean, np.full_like(mean, var), 3, 1.0)

    def test_a_negative_psi_rounds_to_the_ceiling_not_past_it(self):
        """At ``t = -8.359375`` the computed ``psi(t)`` is about
        ``-2e-16`` (``1 + erf`` cancels); with ``std = 2^23`` minutes
        against one server's month the frozen kernel reads
        ``1 + 3.8e-14``. The kernel's clamp holds it at 1.0, and the
        Jensen bound, 1.0 there too, still covers it."""
        std = 2.0**23
        mean = np.array([-8.359375 * std])
        variance = np.array([std * std])
        assert (reference_kernel(mean, variance, 1, 1.0) > 1.0).all()
        got = _routed_availability(mean, variance, 1, 1.0)
        assert got.tolist() == [1.0]
        assert _routed_availability(
            np.tile(mean, (2, 3)), np.tile(variance, (2, 3)), 1, 1.0
        ).max() == 1.0
        self.check_cells(mean, variance, 1, 1.0)

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
    )
    def test_random_moments(self, servers, demand_fraction, cells):
        t = np.array([cell[0] for cell in cells])
        std = np.array([cell[1] for cell in cells])
        headroom = (1.0 - demand_fraction) * servers * MINUTES_PER_MONTH
        self.check_cells(headroom + t * std, std * std, servers, demand_fraction)

    @settings(max_examples=60, deadline=None)
    @given(config=fleet_configs(), designs=design_subsets(), data=st.data())
    def test_floor_skips_what_jensen_allows_and_nothing_above_it(
        self, config, designs, data
    ):
        """Through ``BlockTables.availability``: a floor at a row's own
        availability never prunes it (the bound is not below the exact
        value by more than the slack, ``std == 0`` rows included), and a
        floor beyond Jensen's largest gap — ``pdf(0) x std`` a month —
        always does (the bound is taken from the whole mean)."""
        grid = resolved_grid(designs, config)
        counts = np.array(random_rows(data, config.servers, len(designs)))
        tables = grid.tabulate(counts)
        everything = slice(None)
        exact = tables.availability(everything)
        assert hexes(exact) == hexes(
            reference_evaluate(grid, row)[0] for row in counts.tolist()
        )
        assert_same_bits(tables.availability(everything, exact), exact)
        assert_same_bits(tables.availability(everything, -np.inf), exact)
        # No composition's variance exceeds the shocks' plus the worst
        # design's crashes on every server, bad batch and all.
        variance_cap = grid._shock_downtime_var + (
            grid.crash_coeff.max()
            * grid.params.crash_recovery_minutes**2
            * grid.cum_mult[-1]
            * config.correlation.bad_batch_multiplier
        )
        demand = config.demand_fraction * config.servers * MINUTES_PER_MONTH
        gap = np.sqrt(variance_cap).mean() / math.sqrt(2.0 * math.pi) / demand
        beyond = exact + gap * (1.0 + 1e-9) + 3.0 * _BOUND_SLACK
        assert (tables.availability(everything, beyond) == -np.inf).all()
        # Mixed: pruned rows read -inf, the others keep their bits.
        floor = np.where(np.arange(len(counts)) % 2 == 0, beyond, exact)
        mixed = tables.availability(everything, floor)
        assert (mixed[0::2] == -np.inf).all()
        assert_same_bits(mixed[1::2], exact[1::2])


class TestBlockTables:
    @settings(max_examples=60, deadline=None)
    @given(config=fleet_configs(), designs=design_subsets(), data=st.data())
    def test_a_row_scores_the_same_in_any_company(self, config, designs, data):
        """``evaluate`` on a shuffled subset, duplicates included,
        returns the bits each row gets evaluated alone: the tables are
        per batch, the additions per row."""
        grid = resolved_grid(designs, config)
        rows = random_rows(data, config.servers, len(designs))
        alone = [grid.evaluate([row]) for row in rows]
        picks = data.draw(
            st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=20)
        )
        availability, savings = grid.evaluate([rows[i] for i in picks])
        assert hexes(availability) == hexes(alone[i][0][0] for i in picks)
        assert hexes(savings) == hexes(alone[i][1][0] for i in picks)
        tables = grid.tabulate(rows)
        assert tables.distinct_blocks == len(
            {
                (d, sum(row[:d]), row[d])
                for row in rows
                for d in range(len(designs))
            }
        )


# ----------------------------------------------------------------------
# The per-server analytic model (the parent's source)
# ----------------------------------------------------------------------
def reference_analytic_moments(layout, recovery):
    """``AnalyticFleetModel.evaluate`` as of commit cb7ff37: per-month
    moments summed over ``(servers, months)`` arrays, which the model now
    reads off :meth:`FleetLayout.block_months`' age census."""
    config = layout.config
    months = config.months
    ages = layout.ages(0, months)
    mult = layout.multipliers(0, months, ages)
    series = {
        name: np.zeros(months, dtype=np.float64)
        for name in ("downtime", "variance", "errors", "crashes", "incorrect")
    }
    design_downtime = {}
    for block in layout.blocks:
        rates = block.outcomes
        block_mult = mult[block.start:block.stop, :].sum(axis=0)
        crashes = rates.crash_rate * block_mult
        series["errors"] += float(rates.errors.sum()) * block_mult
        series["crashes"] += crashes
        series["incorrect"] += (
            float((rates.uncrashed * rates.incorrect_per_error).sum())
            * block_mult
        )
        series["downtime"] += crashes * recovery
        series["variance"] += crashes * recovery**2
        design_downtime[block.name] = float(crashes.sum()) * recovery
    hits, hits_variance = _shock_moments(config.correlation, layout.servers)
    if hits > 0:
        minutes = config.correlation.shock_downtime_minutes
        series["downtime"] += hits * minutes
        series["variance"] += hits_variance * minutes**2
        for block in layout.blocks:
            design_downtime[block.name] += (
                hits / layout.servers * minutes * block.servers * months
            )
    if config.repair_downtime_minutes > 0:
        repairs = layout.repairs(0, months, ages)
        series["downtime"] += repairs.sum(axis=0) * config.repair_downtime_minutes
        for block in layout.blocks:
            design_downtime[block.name] += float(
                repairs[block.start:block.stop, :].sum()
                * config.repair_downtime_minutes
            )
    return series, design_downtime


def assert_within_ulps(got, want, ulps):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    ulp = np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert (np.abs(got - want) <= ulps * ulp).all(), (got, want)


class TestCensusAnalyticModel:
    @settings(max_examples=60, deadline=None)
    @given(config=fleet_configs(), designs=design_subsets())
    def test_agrees_with_the_per_server_model(self, config, designs):
        """Same moments, another summation order: the census adds each
        distinct age once, weighted by its head count, where the arrays
        added a block's servers one after another. Sums of positive
        terms: the arrays carry up to an ulp a server, the census up to
        an ulp an age, and that is all the two may differ by (30 ulps
        is the most 400 draws of up to 300 servers showed)."""
        from repro.fleet.engine import _resolve_composition

        fleet_designs = resolved(designs)
        layout = FleetLayout(
            PROFILE,
            fleet_designs,
            _resolve_composition(fleet_designs, None, config.servers),
            config,
        )
        model = AnalyticFleetModel(layout)
        result = model.evaluate()
        series, design_downtime = reference_analytic_moments(
            layout, model.params.crash_recovery_minutes
        )
        ulps = config.servers + config.retirement_age_months
        for got, name in (
            (result.mean_downtime_by_month, "downtime"),
            (result.var_downtime_by_month, "variance"),
            (result.mean_errors_by_month, "errors"),
            (result.mean_crashes_by_month, "crashes"),
            (result.mean_incorrect_by_month, "incorrect"),
        ):
            assert_within_ulps(got, series[name], ulps)
        assert list(result.downtime_by_design) == list(design_downtime)
        assert_within_ulps(
            list(result.downtime_by_design.values()),
            list(design_downtime.values()),
            ulps,
        )

    def test_peak_allocation_does_not_scale_with_servers(self):
        """8000 x 120 against 1000 x 120: the per-server model traced
        three (servers, months) arrays — tens of MiB at 8000 — where the
        census needs (retirement, months) tables whatever the fleet."""
        import tracemalloc

        def peak(servers):
            config = FleetConfig(servers=servers, months=120, aging=AgingConfig())
            tracemalloc.start()
            try:
                analyze_fleet(PROFILE, designs=DESIGNS, config=config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # imports and caches, outside the comparison
        small, large = peak(1000), peak(8000)
        # ``initial_ages`` is the one per-server vector left, 8 bytes a
        # server (56 000 of the 57 000 measured); the arrays took 15 MiB.
        assert large - small < 2 * 8 * 7000


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
