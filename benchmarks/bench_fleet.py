#!/usr/bin/env python
"""Fleet-engine throughput and validation → ``BENCH_fleet.json``.

Times the batched NumPy fleet Monte Carlo against the scalar per-event
reference on a datacenter-scale fleet (the paper's five Table 6 designs
deployed side by side), plus the analytic model and the composition
grid behind ``optimize_fleet``. Before any timing race the engine must
pass its correctness gates:

* seeded runs are byte-identical across repeats, and per-design
  downtime sums to the per-month downtime even when shocks outlast the
  month (both are taken after the per-server clip);
* the analytic model's means sit inside the Monte Carlo CI95 on an
  uncorrelated fleet (where routed availability saturates at 1.0) and
  on the optimizer's scenario — shocks at 1.5 % headroom — where it
  does not;
* the per-event reference (``repro.oracles.simulate_fleet``) and the
  vectorized simulator agree statistically on a small fleet.

Every simulated row records which draw path its chunks took
(``aggregated`` block totals, or ``per-server`` when the 43 200-minute
clip can bind), read from the ``fleet`` simulate span.

The ``validation`` row times ``explore``'s Monte Carlo check of a
winner — the engine's one-server case over 1 200 months, the same in
smoke and full runs — and records its months/s, mean, analytic and
percentile availabilities; its repeats must be byte-identical and its
statistics those the per-month ``MonthOutcome`` objects give.

The headline number is ``simulation.speedup_vectorized`` — vectorized
vs (sampled, extrapolated) scalar — which gates CI at 3x. The scalar
reference resolves every error event in a Python loop, so running it at
full fleet scale is infeasible; it is always timed on a proportional
sample and extrapolated per server-month (recorded as
``scalar.mode``).

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke
"""

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import oracles  # noqa: E402
from repro.cluster import AvailabilitySimulator  # noqa: E402
from repro.core.mapping import DesignEvaluator, paper_design_points  # noqa: E402
from repro.core.taxonomy import ErrorOutcome  # noqa: E402
from repro.core.vulnerability import VulnerabilityProfile  # noqa: E402
from repro.fleet import (  # noqa: E402
    AgingConfig,
    CorrelationConfig,
    FleetConfig,
    analytic_matches_simulation,
    analyze_fleet,
    optimize_fleet,
    simulate_fleet,
)
from repro.obs import EventBuffer, Observer  # noqa: E402

#: 6 regions spanning the size/vulnerability spread the paper measures
#: (same synthetic profile as bench_design_space).
REGION_SPECS = {
    # region: (size, crash trials per 1000, incorrect trials per 1000)
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

SEED = 20140623

#: Seeded runs the determinism gate compares.
REPEATS = 3

#: Aging, one shock a month on a 10% cohort, and a bad procurement
#: batch: the wear the pipeline benchmark's plan_fleet workload uses.
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


#: Fleet size, horizon and headroom of the optimizer's scenario.
TRADEOFF = dict(servers=1000, months=36, demand_fraction=0.985)

#: One shock a month on 30 % of the fleet that outlasts the month: every
#: hit server sits at the clip, so the chunks must draw per server.
CLIP_BINDING = CorrelationConfig(
    shock_rate_per_month=1.0,
    shock_cohort_fraction=0.3,
    shock_downtime_minutes=64800.0,
)


def simulate_with_path(profile, designs, config):
    """``(result, path)`` of one vectorized run; ``path`` names the rows
    its chunks drew: ``aggregated``, ``per-server`` or ``mixed``."""
    spans = EventBuffer()
    result = simulate_fleet(
        profile,
        designs=designs,
        config=config,
        seed=SEED,
        observer=Observer(sinks=[spans]),
    )
    attrs = next(e.attrs for e in spans.events if e.name == "fleet")
    if not attrs["per_server_chunks"]:
        return result, "aggregated"
    return result, "mixed" if attrs["aggregated_chunks"] else "per-server"


def build_profile():
    """Deterministic synthetic 6-region profile (1000 trials per cell)."""
    profile = VulnerabilityProfile(app="bench-fleet")
    profile.region_sizes = {
        region: size for region, (size, _, _) in REGION_SPECS.items()
    }
    for region, (_size, crash_trials, incorrect_trials) in REGION_SPECS.items():
        cell = profile.cell(region, "single-bit soft")
        for _ in range(crash_trials):
            cell.record(ErrorOutcome.CRASH, 10, 0, 10, 0.5)
        for _ in range(incorrect_trials):
            cell.record(ErrorOutcome.INCORRECT, 100, 2, 0, 5.0)
        for _ in range(1000 - crash_trials - incorrect_trials):
            cell.record(ErrorOutcome.MASKED_LOGIC, 100, 0, 0, None)
    return profile


def fleet_designs(profile):
    return list(paper_design_points(sorted(profile.region_sizes), RECOVERABLE))


def check_determinism(profile, designs):
    """Seeded runs over several month chunks must be byte-identical
    across repeats."""
    config = FleetConfig(servers=80, months=48, month_chunk=16)
    runs = [
        simulate_fleet(profile, designs=designs, config=config, seed=SEED)
        for _ in range(REPEATS)
    ]
    baseline = runs[0]
    for run in runs[1:]:
        assert run.downtime_by_month == baseline.downtime_by_month
        assert run.errors_by_month == baseline.errors_by_month
        assert run.availability_by_month == baseline.availability_by_month
        assert run.to_dict() == baseline.to_dict(), "summaries diverge"
    return {
        "byte_identical": True,
        "design_downtime_reconciles": design_downtime_reconciles(
            profile, designs
        ),
        "repeats": REPEATS,
        "servers": config.servers,
        "months": config.months,
    }


def design_downtime_reconciles(profile, designs):
    """Per-design and per-month downtime must be the same minutes.

    Shocks longer than a month on 90 % of the fleet put nearly every
    server at the monthly clip; design totals taken before the clip
    come out at twice the month totals.
    """
    config = FleetConfig(
        servers=50,
        months=24,
        month_chunk=16,
        correlation=CorrelationConfig(
            shock_rate_per_month=3.0,
            shock_cohort_fraction=0.9,
            shock_downtime_minutes=30000.0,
        ),
    )
    result = simulate_fleet(profile, designs=designs, config=config, seed=SEED)
    by_design = sum(result.downtime_by_design.values())
    by_month = sum(result.downtime_by_month)
    assert abs(by_design - by_month) <= 1e-9 * by_month, (
        f"design downtime {by_design} vs month downtime {by_month}"
    )
    for name in result.composition:
        availability = result.machine_availability_of(name)
        assert 0.0 <= availability <= 1.0, f"{name}: {availability}"
    return True


def check_analytic(profile, designs):
    """Analytic means must sit inside the Monte Carlo CI95.

    On the plain fleet demand never meets capacity and both fleet
    availabilities read 1.0 — that verdict is vacuous. The ``tradeoff``
    row is the optimizer's scenario, where they do not.
    """
    report = {}
    for name, config in (
        (None, FleetConfig(servers=100, months=240, month_chunk=32)),
        (
            "tradeoff",
            FleetConfig(**{**TRADEOFF, "months": 240}, month_chunk=32, **WEAR),
        ),
    ):
        simulated, path = simulate_with_path(profile, designs, config)
        analytic = analyze_fleet(profile, designs=designs, config=config)
        verdicts = analytic_matches_simulation(analytic, simulated)
        assert all(verdicts.values()), f"analytic outside MC CI95: {verdicts}"
        row = {
            "verdicts": verdicts,
            "path": path,
            "mc_machine_availability": simulated.mean_machine_availability,
            "analytic_machine_availability": analytic.mean_machine_availability,
            "mc_fleet_availability": simulated.mean_fleet_availability,
            "analytic_fleet_availability": analytic.mean_fleet_availability,
            "machine_ci95": list(
                simulated.confidence_interval("machine_availability")
            ),
            "fleet_ci95": list(
                simulated.confidence_interval("fleet_availability")
            ),
        }
        if name is None:
            report.update(row)
        else:
            report[name] = row
    assert report["tradeoff"]["mc_fleet_availability"] < 1.0, (
        "the trade-off scenario saturated: its fleet verdict is vacuous"
    )
    return report


def check_scalar_equivalence(profile, designs):
    """Scalar and vectorized draws differ; their statistics must not."""
    config = FleetConfig(servers=10, months=48, month_chunk=16)
    scalar = oracles.simulate_fleet(
        profile, designs=designs, config=config, seed=SEED
    )
    vectorized = simulate_fleet(
        profile,
        designs=designs,
        config=config,
        seed=SEED,
    )
    divergence = abs(
        scalar.mean_machine_availability
        - vectorized.mean_machine_availability
    )
    assert divergence < 0.003, (
        f"backends diverge: {scalar.mean_machine_availability} vs "
        f"{vectorized.mean_machine_availability}"
    )
    return {
        "scalar_machine_availability": scalar.mean_machine_availability,
        "vectorized_machine_availability": (
            vectorized.mean_machine_availability
        ),
        "max_abs_divergence": divergence,
        "server_months": config.servers * config.months,
    }


#: Timed repeats of a vectorized simulation (tens of milliseconds at
#: full size, so one shot is mostly scheduler noise); the median counts.
VECTORIZED_REPEATS = 5


def timed(call):
    """(median seconds, last result) over :data:`VECTORIZED_REPEATS` calls."""
    seconds = []
    for _ in range(VECTORIZED_REPEATS):
        start = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - start)
    return sorted(seconds)[len(seconds) // 2], result


def timed_simulation(profile, designs, config):
    """(median seconds, result, path) of the vectorized simulation."""
    seconds, (result, path) = timed(
        lambda: simulate_with_path(profile, designs, config)
    )
    return seconds, result, path


def bench_simulation(profile, designs, smoke):
    """Vectorized at fleet scale vs sampled-extrapolated scalar."""
    if smoke:
        full = FleetConfig(servers=300, months=60, month_chunk=32)
        sample = FleetConfig(servers=5, months=12, month_chunk=16)
    else:
        full = FleetConfig(servers=2000, months=120, month_chunk=32)
        sample = FleetConfig(servers=10, months=24, month_chunk=16)

    vectorized_seconds, result, path = timed_simulation(profile, designs, full)
    full_server_months = full.servers * full.months

    # The scalar reference resolves ~2000 error events per server-month
    # in a Python loop; time a composition-proportional sample and
    # extrapolate (the per-server-month work is constant).
    start = time.perf_counter()
    oracles.simulate_fleet(
        profile, designs=designs, config=sample, seed=SEED
    )
    sampled_seconds = time.perf_counter() - start
    sample_server_months = sample.servers * sample.months
    scalar_seconds = sampled_seconds * (
        full_server_months / sample_server_months
    )

    # Feature overhead: the same fleet with aging, shocks, and a bad
    # procurement batch layered on.
    featured = FleetConfig(
        servers=full.servers,
        months=full.months,
        month_chunk=full.month_chunk,
        **WEAR,
    )
    featured_seconds, featured_result, featured_path = timed_simulation(
        profile, designs, featured
    )
    # The same fleet again with the clip binding: the per-server rows.
    clipped = FleetConfig(
        servers=full.servers,
        months=full.months,
        month_chunk=full.month_chunk,
        correlation=CLIP_BINDING,
    )
    clipped_seconds, clipped_result, clipped_path = timed_simulation(
        profile, designs, clipped
    )
    # ru_maxrss is a process high-water mark in KiB: taken here it is
    # the peak through the full-size simulations (the gates before
    # them run fleets a hundredth the size; the optimizer comes after).
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    return {
        "servers": full.servers,
        "months": full.months,
        "server_months": full_server_months,
        "designs": len(designs),
        "scalar": {
            "mode": "sampled-extrapolated",
            "sampled_server_months": sample_server_months,
            "sampled_seconds": sampled_seconds,
            "seconds": scalar_seconds,
        },
        "vectorized": {
            "repeats": VECTORIZED_REPEATS,
            "seconds": vectorized_seconds,
            "path": path,
            "server_months_per_second": (
                full_server_months / vectorized_seconds
            ),
            "mean_fleet_availability": result.mean_fleet_availability,
            "mean_machine_availability": result.mean_machine_availability,
        },
        "peak_rss_mib": peak_rss_mib,
        "correlated_aging": {
            "seconds": featured_seconds,
            "path": featured_path,
            "server_months_per_second": (
                full_server_months / featured_seconds
            ),
            "overhead_vs_plain": featured_seconds / vectorized_seconds,
            "shock_hits": sum(featured_result.shock_hits_by_month),
            "mean_fleet_availability": (
                featured_result.mean_fleet_availability
            ),
        },
        "clip_binding": {
            "seconds": clipped_seconds,
            "path": clipped_path,
            "server_months_per_second": (
                full_server_months / clipped_seconds
            ),
            "shock_hits": sum(clipped_result.shock_hits_by_month),
            "mean_fleet_availability": (
                clipped_result.mean_fleet_availability
            ),
        },
        "speedup_vectorized": scalar_seconds / vectorized_seconds,
    }


def bench_analytic(profile, designs):
    """The analytic model on the pipeline benchmark's fleet: 8000
    servers x 120 months under :data:`WEAR`. It reads per-block totals
    off the age census, so the time does not depend on the 8000."""
    config = FleetConfig(servers=8000, months=120, **WEAR)
    seconds, result = timed(
        lambda: analyze_fleet(profile, designs=designs, config=config)
    )
    return {
        "servers": config.servers,
        "months": config.months,
        "repeats": VECTORIZED_REPEATS,
        "analyze_seconds": seconds,
        "mean_machine_availability": result.mean_machine_availability,
    }


def bench_optimizer(profile, designs):
    """Composition-grid search across the five paper designs.

    The scenario is the pipeline benchmark's: :data:`WEAR` at
    ``demand_fraction=0.985``. At 0.95 without shocks every
    composition's availability saturates at 1.0, the front has one point
    and the cheapest pure fleet wins — no trade-off to search. Smoke
    runs search the same grid (it takes a twentieth of a second), so
    their winner and front size can be held to the committed file's.
    """
    step = 0.05
    config = FleetConfig(**TRADEOFF, **WEAR)
    start = time.perf_counter()
    result = optimize_fleet(
        profile,
        designs=designs,
        config=config,
        availability_target=0.9995,
        step=step,
    )
    seconds = time.perf_counter() - start
    assert result.best is not None, "optimizer found no feasible composition"
    assert len(result.pareto) >= 3, (
        f"scenario exercises no trade-off: {len(result.pareto)} Pareto points"
    )
    assert result.best.mixed and result.mixed_dominates_singles, (
        f"a pure fleet won: {result.best.key}"
    )
    return {
        "step": step,
        "designs": len(designs),
        "compositions_evaluated": result.evaluated,
        "compositions_scored": result.scored,
        "compositions_skipped_at_ceiling": result.skipped_at_ceiling,
        "distinct_blocks": result.distinct_blocks,
        "compositions_per_second": result.evaluated / seconds,
        "seconds": seconds,
        "availability_target": result.availability_target,
        "best": result.best.to_dict(),
        "pareto_size": len(result.pareto),
        "mixed_dominates_singles": result.mixed_dominates_singles,
    }


#: The design whose one-server validation is timed, and its horizon:
#: the pipeline benchmark's (explore's ``simulate_months``), in smoke
#: runs too, so the statistics are comparable between the two modes.
VALIDATED_DESIGN = "Detect&Recover/L"
VALIDATION_MONTHS = 1200


def validation_statistics(summary):
    """What ``explore`` reports of a one-server validation."""
    return {
        "mean_availability": summary.mean_availability,
        "mean_crashes": summary.mean_crashes,
        "percentiles": {
            f"p{p}": summary.availability_percentile(p) for p in (5, 50, 95)
        },
    }


def month_outcome_statistics(months):
    """:func:`validation_statistics` derived from the ``MonthOutcome``
    objects one at a time, the summary's rule spelled out."""
    ordered = sorted(month.availability for month in months)
    count = len(ordered)

    def percentile(p):
        return ordered[min(count - 1, max(0, math.ceil(p / 100 * count) - 1))]

    return {
        "mean_availability": sum(ordered) / count,
        "mean_crashes": sum(month.crashes for month in months) / count,
        "percentiles": {f"p{p}": percentile(p) for p in (5, 50, 95)},
    }


def bench_validation(profile, designs):
    """``explore``'s Monte Carlo check of a winner: the fleet engine's
    one-server case over :data:`VALIDATION_MONTHS`, then the summary's
    mean and percentiles. Gates, untimed: every repeat's statistics are
    byte-identical, and equal the ones the ``MonthOutcome`` objects
    give."""
    design = next(d for d in designs if d.name == VALIDATED_DESIGN)
    evaluator = DesignEvaluator(profile)
    simulator = AvailabilitySimulator(
        profile,
        design.policies,
        error_model=evaluator.error_model,
        params=evaluator.availability_params,
        error_label=evaluator.error_label,
        region_sizes=evaluator.region_sizes,
    )
    seconds, rows = [], []
    for _ in range(VECTORIZED_REPEATS):
        start = time.perf_counter()
        summary = simulator.simulate(VALIDATION_MONTHS, seed=SEED)
        statistics = validation_statistics(summary)
        seconds.append(time.perf_counter() - start)
        rows.append(json.dumps(statistics, sort_keys=True))
    median = sorted(seconds)[len(seconds) // 2]
    analytic = evaluator.evaluate(design)
    distinct = len({month.availability for month in summary.months})
    return {
        "design": design.name,
        "months": VALIDATION_MONTHS,
        "seed": SEED,
        "repeats": VECTORIZED_REPEATS,
        "seconds_per_validation": median,
        "months_per_second": VALIDATION_MONTHS / median,
        **statistics,
        "analytic_availability": analytic.availability,
        "analytic_crashes": analytic.crashes_per_month,
        "distinct_monthly_availabilities": distinct,
        "byte_identical": len(set(rows)) == 1,
        "matches_month_outcomes": (
            json.dumps(month_outcome_statistics(summary.months), sort_keys=True)
            == rows[0]
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller fleet / coarser composition grid for CI "
        "(same JSON schema)",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_fleet.json",
        metavar="PATH", help="where to write the JSON report",
    )
    arguments = parser.parse_args(argv)

    profile = build_profile()
    designs = fleet_designs(profile)

    print("gate: seeded determinism across repeats...")
    determinism = check_determinism(profile, designs)
    print(
        f"  byte-identical over {determinism['servers']} servers x "
        f"{determinism['months']} months ({determinism['repeats']} runs); design "
        "downtime reconciles with month downtime under a binding clip"
    )

    print("gate: analytic model vs Monte Carlo CI95...")
    analytic = check_analytic(profile, designs)
    print(
        f"  machine availability {analytic['mc_machine_availability']:.6f} "
        f"(analytic {analytic['analytic_machine_availability']:.6f}, "
        "inside CI95)"
    )
    tradeoff = analytic["tradeoff"]
    print(
        "  at 1.5% headroom with shocks: fleet availability "
        f"{tradeoff['mc_fleet_availability']:.6f} "
        f"(analytic {tradeoff['analytic_fleet_availability']:.6f}, "
        f"inside CI95; {tradeoff['path']} draws)"
    )

    print("gate: scalar vs vectorized statistics...")
    equivalence = check_scalar_equivalence(profile, designs)
    print(
        f"  max divergence {equivalence['max_abs_divergence']:.5f} over "
        f"{equivalence['server_months']} server-months"
    )

    print("timing: fleet Monte Carlo...")
    simulation = bench_simulation(profile, designs, arguments.smoke)
    print(
        f"  {simulation['servers']} servers x {simulation['months']} months: "
        f"scalar {simulation['scalar']['seconds']:.1f}s "
        f"({simulation['scalar']['mode']}), "
        f"vectorized {simulation['vectorized']['seconds'] * 1e3:.1f}ms "
        f"({simulation['vectorized']['server_months_per_second']:,.0f} "
        "server-months/s)"
    )
    print(
        f"  speedup: {simulation['speedup_vectorized']:.1f}x; "
        "aging+shocks overhead "
        f"{simulation['correlated_aging']['overhead_vs_plain']:.2f}x; "
        f"peak RSS {simulation['peak_rss_mib']:.0f} MiB"
    )
    clip_binding = simulation["clip_binding"]
    print(
        f"  draw paths: plain {simulation['vectorized']['path']}, "
        f"aging+shocks {simulation['correlated_aging']['path']}, "
        f"clip-binding shocks {clip_binding['path']} at "
        f"{clip_binding['server_months_per_second']:,.0f} server-months/s"
    )

    print("timing: analytic model...")
    analyze = bench_analytic(profile, designs)
    print(
        f"  {analyze['servers']} servers x "
        f"{analyze['months']} months in "
        f"{analyze['analyze_seconds'] * 1e3:.2f}ms"
    )

    print("timing: composition optimizer...")
    optimizer = bench_optimizer(profile, designs)
    print(
        f"  {optimizer['compositions_evaluated']} compositions "
        f"({optimizer['compositions_scored']} through the kernel, "
        f"{optimizer['compositions_skipped_at_ceiling']} skipped at the "
        "1.0 ceiling, "
        f"{optimizer['distinct_blocks']} distinct blocks) in "
        f"{optimizer['seconds']:.2f}s "
        f"({optimizer['compositions_per_second']:,.0f}/s); best "
        f"{optimizer['best']['key']} "
        f"(savings {optimizer['best']['cost_savings']:.3f})"
    )

    print("timing: one-server validation...")
    validation = bench_validation(profile, designs)
    print(
        f"  {validation['design']} over {validation['months']} months: "
        f"{validation['seconds_per_validation'] * 1e3:.2f}ms "
        f"({validation['months_per_second']:,.0f} months/s); mean "
        f"availability {validation['mean_availability']:.6f} (analytic "
        f"{validation['analytic_availability']:.6f}); repeats "
        f"byte-identical: {validation['byte_identical']}, equal to the "
        f"MonthOutcome statistics: {validation['matches_month_outcomes']}"
    )

    report = {
        "mode": "smoke" if arguments.smoke else "full",
        "determinism": determinism,
        "analytic": analytic,
        "equivalence": equivalence,
        "simulation": simulation,
        "analyze": analyze,
        "optimizer": optimizer,
        "validation": validation,
    }
    arguments.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {arguments.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
