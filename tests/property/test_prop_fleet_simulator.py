"""The fleet simulator's statistical contract.

``FleetSimulator._simulate_chunk`` used to sample the un-thinned chain:
``Poisson`` arrivals plus two ``Binomial`` thinnings per (server, region,
month). It now draws the thinned, superposed Poissons directly, and —
when :func:`repro.fleet.simulator.clip_ln_bound` proves from the
configuration that no server-month can reach the 43 200-minute clip —
superposed over each design block as well: one crash draw and one shock
draw per (block, month). Same joint law of every reported series,
different random stream, so "same bytes as the parent" cannot be the
contract. This file is what replaces it:

* the old chain is kept here, verbatim, as the oracle, and every
  per-month series is two-sample-tested against it over fixed seeds, on
  configurations that take the block-row path and on ones that take the
  per-server path (each test asserts which one ran);
* downtime variance is held to the closed form in both correlation
  modes, the ``N^2 q^2 lam`` term included;
* the guard is sound (it bounds the exact Poisson tail), monotone, and
  never divides by a zero rate or a zero recovery time;
* runs are byte-identical across repeats and ``workers`` counts, also
  when the chunks of one run take different paths;
* the accounting identities hold for every month and seed.

All seeds are fixed; nothing here is flaky by construction.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oracles
from repro.core.availability import (
    MINUTES_PER_MONTH,
    ErrorRateModel,
)
from repro.core.mapping import paper_design_points
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.fleet import (
    AgingConfig,
    CorrelationConfig,
    FleetConfig,
    FleetDesign,
    FleetLayout,
    FleetSimulator,
    analyze_fleet,
    apportion_servers,
    simulate_fleet,
)
from repro.fleet.simulator import (
    LN_SMALLEST_DOUBLE,
    _poisson_tail_ln,
    clip_ln_bound,
)
from repro.utils.rng import derive_seed

#: The six-region profile of ``benchmarks/bench_fleet.py`` and the
#: pipeline's ``plan_fleet``: region -> (size, crash trials, incorrect
#: trials) out of 1000. On it 1.5 % headroom binds once wear sets in.
REGIONS = {
    "private": (4000, 12, 5),
    "heap": (2500, 8, 9),
    "metadata": (1200, 20, 2),
    "buffers": (600, 4, 14),
    "stack": (300, 50, 1),
    "code": (100, 100, 0),
}
RECOVERABLE = {
    "private": 0.7,
    "heap": 0.55,
    "metadata": 0.95,
    "buffers": 0.4,
    "stack": 0.2,
    "code": 1.0,
}

#: Series every comparison covers, as ``FleetSimulationResult`` names them.
SERIES = (
    "errors",
    "crashes",
    "recoveries",
    "incorrect",
    "shock_hits",
    "downtime",
    "availability",
)


def build_profile():
    prof = VulnerabilityProfile(app="fleet-simulator")
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
#: The five Table 6 designs: correcting, detecting + recovering,
#: detecting + restarting and unprotected regions all occur.
DESIGNS = tuple(
    FleetDesign(name=design.name, policies=design.policies)
    for design in paper_design_points(sorted(REGIONS), RECOVERABLE)
)

SHOCKS = CorrelationConfig(
    shock_rate_per_month=1.0,
    shock_cohort_fraction=0.1,
    shock_downtime_minutes=30.0,
    bad_batch_fraction=0.05,
    bad_batch_multiplier=3.0,
)
#: Two chunks and a ragged tail; 1.5 % headroom binds in aged months.
SHAPE = dict(servers=100, months=36, month_chunk=16, demand_fraction=0.985)
WEAR = FleetConfig(aging=AgingConfig(), correlation=SHOCKS, **SHAPE)
PLAIN = FleetConfig(**SHAPE)
#: One shock outlasts the month: every hit server sits at the clip.
CLIPPED = FleetConfig(
    servers=60,
    months=24,
    month_chunk=16,
    demand_fraction=0.9,
    correlation=CorrelationConfig(
        shock_rate_per_month=1.0,
        shock_cohort_fraction=0.3,
        shock_downtime_minutes=1.5 * MINUTES_PER_MONTH,
    ),
)


#: Peak crash rates near 2 500 a server-month (58 % of the month down):
#: the clip never binds in practice, but no bound under 2^-1074 says so.
HEAVY = ErrorRateModel(errors_per_server_month=14600.0)
#: One server per design, so a chunk sees a block's infant-mortality
#: peak only if that server is refurbished in it: under :data:`HEAVY`
#: the middle chunk alone fails the guard.
MIXED_PATHS = FleetConfig(
    servers=5, months=48, month_chunk=16, aging=AgingConfig()
)


def paths(simulator):
    """Which rows each chunk of ``simulator`` draws."""
    return [
        "aggregated" if chunk.aggregated else "per-server"
        for chunk in simulator.chunks
    ]


def build_simulator(config, error_model=None):
    counts = apportion_servers(
        config.servers, {design.name: 1.0 / len(DESIGNS) for design in DESIGNS}
    )
    layout = FleetLayout(
        PROFILE, DESIGNS, counts, config, error_model=error_model
    )
    return FleetSimulator(layout)


# ----------------------------------------------------------------------
# The oracle: the pre-thinning chunk body (the parent commit's source)
# ----------------------------------------------------------------------
def reference_simulate_chunk(simulator, seed, index, start, stop):
    """``FleetSimulator._simulate_chunk`` as of commit 9c88115.

    Unchanged but for three things: the per-region inputs moved from
    ``block.*`` to ``block.outcomes.*`` (``rates`` is now ``errors``);
    the per-design *downtime* totals are dropped — they were summed
    before the per-server clip, the bug this PR fixes, so the scalar
    backend is the oracle for them; and the arrays come back as they
    are, with no ``start`` key.
    """
    layout = simulator.layout
    config = layout.config
    span = stop - start
    servers = layout.servers
    rng = np.random.Generator(
        np.random.PCG64(derive_seed(seed, f"fleet-chunk-{index}"))
    )
    mult = layout.multipliers(start, stop)  # (servers, span)
    recovery_minutes = simulator.params.crash_recovery_minutes
    downtime = np.zeros((servers, span), dtype=np.float64)
    errors = np.zeros(span, dtype=np.int64)
    crashes = np.zeros(span, dtype=np.int64)
    recoveries = np.zeros(span, dtype=np.int64)
    incorrect = np.zeros(span, dtype=np.float64)
    design_crashes = {}
    for block in layout.blocks:
        inputs = block.outcomes
        lam = (
            inputs.errors[None, :, None]
            * mult[block.start:block.stop, None, :]
        )
        counts = rng.poisson(lam=lam)
        recovered = rng.binomial(
            counts, inputs.recover_fraction[None, :, None]
        )
        consumed = np.where(
            inputs.corrects[None, :, None], 0, counts - recovered
        )
        crashed = rng.binomial(
            consumed, layout.table.crash_prob[None, :, None]
        )
        harmed = (consumed - crashed) * inputs.incorrect_per_error[
            None, :, None
        ]
        block_downtime = crashed.sum(axis=1) * recovery_minutes
        downtime[block.start:block.stop, :] += block_downtime
        errors += counts.sum(axis=(0, 1))
        crashes += crashed.sum(axis=(0, 1))
        recoveries += recovered.sum(axis=(0, 1))
        incorrect += harmed.sum(axis=(0, 1))
        design_crashes[block.name] = int(crashed.sum())
    correlation = config.correlation
    shock_hits = np.zeros(span, dtype=np.int64)
    if correlation.shock_rate_per_month > 0:
        if correlation.mode == "correlated":
            events = rng.poisson(
                lam=correlation.shock_rate_per_month, size=span
            )
            hits = rng.binomial(
                np.broadcast_to(events[None, :], (servers, span)),
                correlation.shock_cohort_fraction,
            )
        else:
            hits = rng.poisson(
                lam=correlation.shock_marginal_rate,
                size=(servers, span),
            )
        shock_downtime = hits * correlation.shock_downtime_minutes
        downtime += shock_downtime
        shock_hits = hits.sum(axis=0)
    repairs_mask = layout.repairs(start, stop)
    if config.repair_downtime_minutes > 0:
        repair_downtime = repairs_mask * config.repair_downtime_minutes
        downtime += repair_downtime
    np.clip(downtime, 0.0, MINUTES_PER_MONTH, out=downtime)
    capacity = servers - downtime.sum(axis=0) / MINUTES_PER_MONTH
    demand = config.demand_fraction * servers
    served = np.minimum(demand, capacity)
    availability = served / demand
    return {
        "errors": errors,
        "crashes": crashes,
        "recoveries": recoveries,
        "incorrect": incorrect,
        "shock_hits": shock_hits,
        "repairs": repairs_mask.sum(axis=0).astype(np.int64),
        "downtime": downtime.sum(axis=0),
        "capacity": capacity,
        "availability": availability,
        "design_crashes": design_crashes,
    }


def reference_chunks(simulator, seed):
    """The oracle's chunk outputs over the full horizon, in order."""
    config = simulator.layout.config
    return [
        reference_simulate_chunk(
            simulator, seed, index, start,
            min(start + config.month_chunk, config.months),
        )
        for index, start in enumerate(
            range(0, config.months, config.month_chunk)
        )
    ]


def reference_series(simulator, seed):
    """The oracle's series: name -> (months,) array."""
    chunks = reference_chunks(simulator, seed)
    return {
        name: np.concatenate([chunk[name] for chunk in chunks])
        for name in SERIES
    }


def simulated_series(simulator, seed):
    result = simulator.simulate(seed=seed)
    return {
        name: np.array(getattr(result, f"{name}_by_month"), dtype=np.float64)
        for name in SERIES
    }


def collect(draw, simulator, seeds):
    """Series name -> (seeds, months) array of one sampler's output."""
    runs = [draw(simulator, seed) for seed in seeds]
    return {
        name: np.array([run[name] for run in runs], dtype=np.float64)
        for name in SERIES
    }


# ----------------------------------------------------------------------
# Two-sample statistics (NumPy only; SciPy is not a dependency)
# ----------------------------------------------------------------------
#: Kolmogorov's c(alpha) at alpha = 0.01.
KS_C_01 = 1.6276


def ks_statistic(a, b):
    """sup |F_a - F_b| over the pooled sample (ties handled)."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def ks_critical(n, m, c=KS_C_01):
    return c * ((n + m) / (n * m)) ** 0.5


def assert_means_agree(name, ours, oracle):
    """Rows are i.i.d. draws (one per seed): the column means of the two
    samples must agree within 3 standard errors."""
    ours, oracle = np.asarray(ours, float), np.asarray(oracle, float)
    standard_error = (
        ours.var(axis=0, ddof=1) / len(ours)
        + oracle.var(axis=0, ddof=1) / len(oracle)
    ) ** 0.5
    gap = np.abs(ours.mean(axis=0) - oracle.mean(axis=0))
    assert (gap <= 3.0 * standard_error).all(), (name, gap, standard_error)


def assert_same_law(name, ours, oracle, variance_band=(0.8, 1.25)):
    """``ours`` and ``oracle`` are (seeds, months) draws of one series.

    Means: the seeds are i.i.d., so the grand means must agree within 3
    standard errors of the per-seed means. Variances: the across-seed
    variance, averaged over months (months differ in law, seeds do not),
    within ``variance_band``. Shape: the KS distance of the samples
    pooled over seeds and months under its 1 % critical value — the
    months are matched strata on both sides, which only makes the
    critical value conservative.
    """
    spread = ours.var(axis=0, ddof=1).mean()
    oracle_spread = oracle.var(axis=0, ddof=1).mean()
    if spread == 0.0 and oracle_spread == 0.0:
        # A deterministic series (no shocks drawn, headroom never
        # binding): equality is the only law there is.
        assert np.array_equal(ours[0], oracle[0]), name
        return
    assert_means_agree(name, ours.mean(axis=1), oracle.mean(axis=1))
    low, high = variance_band
    assert low <= spread / oracle_spread <= high, (
        name, spread, oracle_spread,
    )
    distance = ks_statistic(ours.ravel(), oracle.ravel())
    assert distance < ks_critical(ours.size, oracle.size), (name, distance)


def test_ks_statistic_separates_shifted_samples():
    """The home-made KS must be able to fail: identical samples score
    0, a half-sigma shift is far over the 1 % line."""
    rng = np.random.Generator(np.random.PCG64(1))
    a, b = rng.normal(size=2000), rng.normal(size=2000)
    critical = ks_critical(len(a), len(b))
    assert ks_statistic(a, a) == 0.0
    assert ks_statistic(a, b) < critical
    assert ks_statistic(a, b + 0.5) > 2 * critical
    assert ks_statistic(np.zeros(10), np.ones(10)) == 1.0


# ----------------------------------------------------------------------
# The thinned draws against the chain they replaced
# ----------------------------------------------------------------------
SEEDS = range(1000, 1120)
ORACLE_SEEDS = range(5000, 5120)


class TestAgainstTheUnthinnedChain:
    @pytest.mark.parametrize(
        "config, error_model, path",
        [
            (WEAR, None, "aggregated"),
            (PLAIN, None, "aggregated"),
            (WEAR, HEAVY, "per-server"),
        ],
        ids=["wear-shocks-bad-batch", "plain", "wear-heavy-per-server"],
    )
    def test_every_series_has_the_same_law(self, config, error_model, path):
        simulator = build_simulator(config, error_model)
        assert set(paths(simulator)) == {path}
        ours = collect(simulated_series, simulator, SEEDS)
        oracle = collect(reference_series, simulator, ORACLE_SEEDS)
        if config is WEAR:
            # Binding headroom: routed availability is a real series
            # here, not the constant 1.0.
            assert (ours["availability"] < 1.0).mean() > 0.1
            assert (oracle["availability"] < 1.0).mean() > 0.1
        for name in SERIES:
            assert_same_law(name, ours[name], oracle[name])

    def test_clipped_servers_have_the_same_law(self):
        """Shock minutes above a month's worth: the clip decides every
        hit server's downtime, and it is applied per server — a fleet
        total of crash minutes would not do."""
        simulator = build_simulator(CLIPPED)
        assert set(paths(simulator)) == {"per-server"}
        ours = collect(simulated_series, simulator, SEEDS)
        oracle = collect(reference_series, simulator, ORACLE_SEEDS)
        assert (ours["downtime"] <= CLIPPED.servers * MINUTES_PER_MONTH).all()
        unclipped = (
            ours["shock_hits"]
            * CLIPPED.correlation.shock_downtime_minutes
        )
        assert (ours["downtime"] < unclipped)[ours["shock_hits"] > 0].all()
        for name in SERIES:
            # One shared event count a month makes the variance of the
            # shock series a heavy-tailed estimate; the band is wider.
            assert_same_law(
                name, ours[name], oracle[name], variance_band=(0.7, 1.4)
            )

    def test_clipped_design_downtime_matches_the_scalar_backend(self):
        """Per-design downtime with the clip binding, against the
        per-event reference (the chain above summed it before the
        clip)."""
        error_model = ErrorRateModel(errors_per_server_month=40.0)
        config = dataclasses.replace(CLIPPED, servers=20, months=12)
        simulator = build_simulator(config, error_model)
        ours, scalar = [], []
        for seed in range(40):
            fast = simulator.simulate(seed=seed)
            slow = oracles.simulate_fleet(
                PROFILE,
                designs=DESIGNS,
                config=config,
                seed=seed,
                error_model=error_model,
            )
            ours.append(list(fast.downtime_by_design.values()))
            scalar.append(list(slow.downtime_by_design.values()))
            for result in (fast, slow):
                assert sum(result.downtime_by_design.values()) == (
                    pytest.approx(sum(result.downtime_by_month))
                )
        assert_means_agree("downtime_by_design", ours, scalar)

    def test_design_crashes_have_the_same_means(self):
        simulator = build_simulator(WEAR)
        assert set(paths(simulator)) == {"aggregated"}
        ours = np.array([
            list(simulator.simulate(seed=seed).crashes_by_design.values())
            for seed in SEEDS
        ])
        oracle = [
            [
                sum(chunk["design_crashes"][design] for chunk in chunks)
                for design in simulator.layout.composition()
            ]
            for chunks in (
                reference_chunks(simulator, seed) for seed in ORACLE_SEEDS
            )
        ]
        assert_means_agree("crashes_by_design", ours, oracle)


# ----------------------------------------------------------------------
# Variance against the closed form, N^2 q^2 lam included
# ----------------------------------------------------------------------
class TestDowntimeVarianceMatchesClosedForm:
    #: Sample variance over 200 seeds x 24 months. The correlated total
    #: is a Poisson(1) mixture (excess kurtosis 1), so the estimate's
    #: relative standard deviation is ~ sqrt(3 / 4800) = 2.5 %.
    BAND = (0.85, 1.15)
    SHOCKS = CorrelationConfig(
        shock_rate_per_month=1.0,
        shock_cohort_fraction=0.4,
        shock_downtime_minutes=60.0,
    )

    def sample_and_closed_form(self, correlation):
        config = FleetConfig(
            servers=200, months=24, month_chunk=16, correlation=correlation
        )
        # Block rows: five blocks share one event count a month, which
        # is where the quadratic term has to come from.
        assert paths(build_simulator(config)) == ["aggregated"] * 2
        downtime = np.array([
            simulate_fleet(
                PROFILE, designs=DESIGNS, config=config, seed=seed
            ).downtime_by_month
            for seed in range(200)
        ])
        analytic = analyze_fleet(PROFILE, designs=DESIGNS, config=config)
        return (
            downtime.var(axis=0, ddof=1).mean(),
            float(analytic.var_downtime_by_month.mean()),
            downtime.mean() / float(analytic.mean_downtime_by_month.mean()),
        )

    def test_independent_mode(self):
        sample, closed, mean_ratio = self.sample_and_closed_form(
            self.SHOCKS.as_independent()
        )
        assert self.BAND[0] <= sample / closed <= self.BAND[1]
        assert mean_ratio == pytest.approx(1.0, abs=0.005)

    def test_correlated_mode_needs_the_quadratic_term(self):
        sample, closed, mean_ratio = self.sample_and_closed_form(self.SHOCKS)
        assert self.BAND[0] <= sample / closed <= self.BAND[1]
        assert mean_ratio == pytest.approx(1.0, abs=0.02)
        # Drop N^2 q^2 lam from the closed form and the sample is an
        # order of magnitude outside the band: the band tests the term.
        shocks, servers = self.SHOCKS, 200
        quadratic = (
            servers**2
            * shocks.shock_cohort_fraction**2
            * shocks.shock_rate_per_month
            * shocks.shock_downtime_minutes**2
        )
        assert quadratic > 0.9 * closed
        assert sample / (closed - quadratic) > 10.0


# ----------------------------------------------------------------------
# Determinism: same bytes per seed, run after run
# ----------------------------------------------------------------------
class TestByteIdenticalAcrossRunsAndWorkers:
    """Repeated runs of one seed give the same bytes (chunks run in
    month order on one thread; there is no worker count since 6.0)."""

    def test_wear_config_with_several_chunks(self):
        assert WEAR.months > 2 * WEAR.month_chunk
        self.check_several_chunks(WEAR, None, ["aggregated"] * 3)

    @pytest.mark.parametrize(
        "config, error_model, expected_paths",
        [
            (CLIPPED, None, ["per-server"] * 2),
            (MIXED_PATHS, HEAVY, ["aggregated", "per-server", "aggregated"]),
        ],
        ids=["per-server", "mixed-paths"],
    )
    def test_per_server_and_mixed_path_chunks(
        self, config, error_model, expected_paths
    ):
        self.check_several_chunks(config, error_model, expected_paths)

    @staticmethod
    def check_several_chunks(config, error_model, expected_paths):
        assert config.months > config.month_chunk
        assert paths(build_simulator(config, error_model)) == expected_paths
        runs = [
            dataclasses.asdict(
                simulate_fleet(
                    PROFILE,
                    designs=DESIGNS,
                    config=config,
                    error_model=error_model,
                    seed=2014,
                )
            )
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]
        assert sum(runs[0]["crashes_by_month"]) > 0
        if config.correlation.shock_rate_per_month:
            assert sum(runs[0]["shock_hits_by_month"]) > 0
        # Design totals and month totals are sums of the same rows.
        assert sum(runs[0]["downtime_by_design"].values()) == pytest.approx(
            sum(runs[0]["downtime_by_month"]), rel=1e-12
        )
        assert sum(runs[0]["crashes_by_design"].values()) == sum(
            runs[0]["crashes_by_month"]
        )


# ----------------------------------------------------------------------
# The clip guard: sound, monotone, a function of the configuration
# ----------------------------------------------------------------------
def exact_poisson_tail_ln(lam, k):
    """``ln P(Poisson(lam) >= k)`` by log-sum-exp of the pmf from ``k``
    until the terms stop mattering (they fall geometrically past
    ``lam``)."""
    terms = []
    for n in range(k, k + 2000):
        terms.append(-lam + n * math.log(lam) - math.lgamma(n + 1))
        if n > lam and terms[-1] < terms[0] - 60.0:
            break
    top = max(terms)
    return top + math.log(sum(math.exp(term - top) for term in terms))


#: Arguments of :func:`clip_ln_bound` around the ``plan_fleet`` fleet's.
GUARD = dict(
    server_months=960_000,
    crash_rates=[0.0, 205.0, 123.0, 1029.0, 443.0],
    recovery_minutes=10.0,
    shock_rate=0.1,
    shock_minutes=30.0,
    repair_minutes=30.0,
)


def aggregated(**overrides):
    return clip_ln_bound(**{**GUARD, **overrides}) < LN_SMALLEST_DOUBLE


class TestClipGuard:
    @settings(max_examples=200, deadline=None)
    @given(lam=st.floats(0.01, 5000.0), ratio=st.floats(1.001, 50.0))
    def test_chernoff_bounds_the_exact_tail(self, lam, ratio):
        k = int(lam * ratio) + 1
        assert _poisson_tail_ln(lam, k) >= exact_poisson_tail_ln(lam, k)
        assert _poisson_tail_ln(lam, k) < 0.0
        # Vacuous at or under the mean, impossible without arrivals.
        assert _poisson_tail_ln(lam, int(lam)) == 0.0
        assert _poisson_tail_ln(0.0, 1) == -math.inf
        assert _poisson_tail_ln(0.0, 0) == 0.0

    def test_plan_fleet_numbers(self):
        """The shock budget is the fewest hits whose overflow tail is
        under the per-term target; the crash budget is the rest of the
        month after the repair."""
        target = LN_SMALLEST_DOUBLE - math.log(2 * GUARD["server_months"])
        hits = next(
            h for h in range(1000) if _poisson_tail_ln(0.1, h + 1) < target
        )
        budget = MINUTES_PER_MONTH - 30.0 - hits * 30.0
        crashes = int(budget // 10.0) + 1
        expected = math.log(2 * GUARD["server_months"]) + max(
            _poisson_tail_ln(0.1, hits + 1),
            _poisson_tail_ln(1029.0, crashes),
        )
        assert clip_ln_bound(**GUARD) == pytest.approx(expected)
        assert expected < LN_SMALLEST_DOUBLE
        assert _poisson_tail_ln(1029.0, crashes) < -2000.0

    @settings(max_examples=300, deadline=None)
    @given(
        crash_rates=st.lists(st.floats(0.0, 6000.0), min_size=1, max_size=5),
        recovery_minutes=st.floats(0.0, 600.0),
        shock_rate=st.floats(0.0, 20.0),
        shock_minutes=st.floats(0.0, 50000.0),
        repair_minutes=st.floats(0.0, 50000.0),
        server_months=st.integers(1, 10**7),
        which=st.sampled_from(
            ["crash_rates", "recovery_minutes", "shock_rate",
             "shock_minutes", "repair_minutes", "server_months"]
        ),
        factor=st.floats(1.0, 10.0),
    )
    def test_raising_anything_never_flips_to_aggregated(
        self, which, factor, **base
    ):
        raised = dict(base)
        if which == "crash_rates":
            raised[which] = [rate * factor for rate in base[which]]
        elif which == "server_months":
            raised[which] = int(base[which] * factor)
        else:
            raised[which] = base[which] * factor
        bound = clip_ln_bound(**base)
        assert bound <= 0.0
        if bound >= LN_SMALLEST_DOUBLE:
            assert clip_ln_bound(**raised) >= LN_SMALLEST_DOUBLE

    def test_either_side_of_the_bound(self):
        """Bisect the worst block's rate for the flip: just under it
        the chunk aggregates, just over it does not, and at the flip
        the crash tail is the per-term target."""
        low, high = 1029.0, 4320.0
        assert aggregated() and not aggregated(
            crash_rates=GUARD["crash_rates"][:3] + [high]
        )
        for _ in range(60):
            middle = (low + high) / 2.0
            rates = GUARD["crash_rates"][:3] + [middle]
            if aggregated(crash_rates=rates):
                low = middle
            else:
                high = middle
        assert 1800.0 < low < 2200.0
        bound = clip_ln_bound(**{**GUARD, "crash_rates": [high]})
        assert bound == pytest.approx(LN_SMALLEST_DOUBLE, abs=1e-6)

    def test_simulator_picks_the_path_the_bound_names(self):
        """Through a layout: the same fleet under two error volumes."""
        for errors, expected in (
            (32000.0, "aggregated"),
            (34000.0, "per-server"),
        ):
            simulator = build_simulator(
                PLAIN, ErrorRateModel(errors_per_server_month=errors)
            )
            assert set(paths(simulator)) == {expected}, errors
            for chunk in simulator.chunks:
                assert chunk.aggregated == (
                    chunk.clip_ln_bound < LN_SMALLEST_DOUBLE
                )

    def test_zero_rates_and_zero_recovery_do_not_divide(self):
        nothing = dict(
            server_months=100, crash_rates=[0.0, 0.0], recovery_minutes=10.0,
            shock_rate=0.0, shock_minutes=30.0, repair_minutes=0.0,
        )
        assert clip_ln_bound(**nothing) == -math.inf
        assert clip_ln_bound(**{**nothing, "crash_rates": []}) == -math.inf
        # Crashes that cost no time cannot reach the clip at any rate.
        free = {**nothing, "crash_rates": [1e9], "recovery_minutes": 0.0}
        assert clip_ln_bound(**free) == -math.inf
        # Free shocks likewise; a repair longer than the month always can.
        assert clip_ln_bound(
            **{**nothing, "shock_rate": 50.0, "shock_minutes": 0.0}
        ) == -math.inf
        assert clip_ln_bound(
            **{**nothing, "repair_minutes": MINUTES_PER_MONTH + 1.0}
        ) == 0.0

    def test_shocks_alone_can_fail_the_guard(self):
        """No crash budget could save these: without the shock term in
        the guard they would aggregate and overrun the month."""
        assert not aggregated(shock_minutes=1.5 * MINUTES_PER_MONTH)
        assert not aggregated(shock_minutes=30000.0, crash_rates=[0.0])
        assert not aggregated(shock_rate=200.0, shock_minutes=300.0)
        # ... and a shock budget that leaves too little for the crashes.
        assert aggregated(shock_minutes=120.0)
        assert not aggregated(shock_minutes=240.0)


# ----------------------------------------------------------------------
# Accounting identities, every month of every drawn fleet
# ----------------------------------------------------------------------
@st.composite
def small_fleets(draw):
    shock_rate = draw(st.sampled_from([0.0, 0.5, 3.0]))
    return FleetConfig(
        servers=draw(st.integers(5, 40)),
        months=draw(st.integers(1, 30)),
        month_chunk=draw(st.sampled_from([1, 7, 16, 256])),
        demand_fraction=draw(st.sampled_from([0.8, 0.985, 1.0])),
        aging=draw(st.sampled_from([AgingConfig.flat(), AgingConfig()])),
        correlation=CorrelationConfig(
            shock_rate_per_month=shock_rate,
            shock_cohort_fraction=draw(st.sampled_from([0.1, 0.9])),
            shock_downtime_minutes=draw(
                st.sampled_from([30.0, 30000.0, 50000.0])
            ),
            bad_batch_fraction=draw(st.sampled_from([0.0, 0.3])),
            bad_batch_multiplier=3.0,
            mode=draw(st.sampled_from(["correlated", "independent"])),
        ),
    )


class TestAccountingIdentities:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(config=small_fleets(), seed=st.integers(0, 2**32))
    def test_every_month_adds_up(self, config, seed):
        result = simulate_fleet(
            PROFILE, designs=DESIGNS, config=config, seed=seed
        )
        for month in range(config.months):
            assert result.errors_by_month[month] >= (
                result.crashes_by_month[month]
                + result.recoveries_by_month[month]
            )
            assert result.incorrect_by_month[month] >= 0.0
            assert 0.0 <= result.availability_by_month[month] <= 1.0
            assert 0.0 <= result.downtime_by_month[month] <= (
                config.servers * MINUTES_PER_MONTH
            )
        assert sum(result.crashes_by_design.values()) == sum(
            result.crashes_by_month
        )
        assert sum(result.downtime_by_design.values()) == pytest.approx(
            sum(result.downtime_by_month)
        )
        for design in result.composition:
            assert 0.0 <= result.machine_availability_of(design) <= 1.0
