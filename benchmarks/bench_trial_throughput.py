#!/usr/bin/env python
"""Oracle vs fast path vs pruned-backend trial throughput → ``BENCH_trials.json``.

Runs full characterization campaigns (restart → inject → drive →
classify, Figure 2) for all three paper workloads in three modes:

* ``oracle``  — backend="scalar" under ``oracle_mode()``: every access
  walks the full guard cascade, every restore copies the whole space.
  The ground truth.
* ``fast``    — backend="scalar", fast path enabled (dirty-page
  snapshot restore, fused accessors, batched drivers, pristine-replay
  fusion): every trial executed, at the fast path's cost.
* ``pruned``  — backend="pruned", fast path enabled: the access trace
  pre-classifies whole trial batches and analytically resolves trials
  whose flips land only in never-read, dead-window, or
  SEC-DED-corrected bytes; only trials touching live-read vulnerable
  data execute, and of those only the queries a fault can reach — the
  trace serves the clean runs between them. Timing includes
  ``prepare()`` — the golden replay of the query budget and the trace
  recorded against it — also reported on its own as
  ``golden_trace_seconds``; each
  row's ``pruning`` block carries the query decisions (``fused`` +
  ``live`` = executed trials x queries), which are exact counts.

Each app runs under two protection configs: ``none`` (unprotected) and
``secded`` (every region SEC-DED, so single-bit trials are fully
correctable and pruning approaches 100%). Before any timing is
reported, all three modes' vulnerability profiles are asserted
byte-identical — pruning is an optimization, never a semantics change.

The headline numbers are aggregate trials/second ratios: oracle→fast
(the memory fast path and batched drivers, CI-gated at 2× smoke),
oracle→pruned (CI-gated at 4× smoke) and fast→pruned (CI-gated at 1×
smoke — pruning must never lose to executing — acceptance bar 2.5×
full). The fast→pruned ratio shrinks whenever executed trials get
cheaper, so it is reported beside the absolute trials/s, not alone.

Every row also records ``planning_us_per_trial``: the wall of one
``plan_cells`` call over every cell of the row — the campaign-level
entry point the pruned runner calls, which seeds all the row's
single-bit streams in one MT19937 kernel pass — divided by the trials
planned (best of three calls), at a fixed 2 000 trials per cell
(``--smoke`` included), the protected pipeline sweep's cell size. That
amortizes the per-campaign work (resets, live spans, span tables, the
kernel's fixed cost) as a real campaign amortizes it. ``planning_loop_us_per_trial`` times the
same call with the kernel held off, i.e. the per-trial
``random.Random`` loop that is its oracle; CI gates kernel ≥ 1.5× loop
within the run. Planning is what a decided trial costs, and it must not
depend on how many live spans a cell has: kvstore's heap holds one span
per key (``planning_spans``), websearch's one to three, and CI gates
kvstore at ≤ 2× websearch.

``all_live`` rows time the executed trials of cells where fusion has
nothing to fuse (every graph job reads every CSR byte; a stuck-at in the
websearch stack frame meets every query that pushes a frame) on one
pruned campaign with the replay engine on and off, alternating, best of
several passes: what those trials cost against the unfused loop.

Usage::

    PYTHONPATH=src python benchmarks/bench_trial_throughput.py
    PYTHONPATH=src python benchmarks/bench_trial_throughput.py --smoke

``--smoke`` shrinks the per-cell trial budget for CI; the JSON schema
is the same. Output lands at the repo root as ``BENCH_trials.json``
unless ``--out`` says otherwise.
"""

import argparse
import json
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps.graphmining.workload import GraphMining  # noqa: E402
from repro.apps.kvstore.workload import KVStoreWorkload  # noqa: E402
from repro.apps.websearch.workload import WebSearch  # noqa: E402
from repro.core.campaign import CampaignConfig, CharacterizationCampaign  # noqa: E402
from repro.exec.cells import CampaignCell  # noqa: E402
from repro.injection import SINGLE_BIT_HARD, SINGLE_BIT_SOFT  # noqa: E402
from repro.kernels import planner  # noqa: E402
from repro.memory.fastpath import oracle_mode  # noqa: E402

SPECS = (SINGLE_BIT_SOFT, SINGLE_BIT_HARD)

APPS = {
    "websearch": WebSearch,
    "kvstore": KVStoreWorkload,
    "graphmining": GraphMining,
}

PROTECTIONS = ("none", "secded")

MODES = ("oracle", "fast", "pruned")

#: Trials planned per cell when timing ``plan_cells``: the protected
#: pipeline sweep's cell size.
PLANNING_TRIALS_PER_CELL = 2000
#: Calls timed per planning figure, best taken: one call is ~50 ms with
#: the kernel, short enough for a busy host to double it.
PLANNING_REPEATS = 3


def _profile_json(profile):
    return json.dumps(profile.to_dict(), sort_keys=True)


def _region_codecs(app_factory, protection):
    """``None`` for unprotected; every region mapped to SEC-DED otherwise."""
    if protection == "none":
        return None
    workload = app_factory()
    workload.build()
    return {region.name: "SEC-DED" for region in workload.space.regions}


def _run_campaign(app_factory, config, mode, region_codecs):
    """One full campaign in the given mode; returns timing + profile JSON."""
    with oracle_mode() if mode == "oracle" else nullcontext():
        workload = app_factory()
        workload.build()
        workload.checkpoint()
    campaign = CharacterizationCampaign(
        workload,
        config=config,
        backend="pruned" if mode == "pruned" else "scalar",
        region_codecs=region_codecs,
    )
    region_count = len(workload.space.regions)
    start = time.perf_counter()
    # On a built workload, prepare() replays the query budget and
    # records the golden trace against it; only pruned timing counts it.
    campaign.prepare()
    trace_seconds = time.perf_counter() - start
    if mode != "pruned":
        start = time.perf_counter()
    profile = campaign.run(specs=SPECS)
    elapsed = time.perf_counter() - start
    return {
        "profile_json": _profile_json(profile),
        "seconds": elapsed,
        "golden_trace_seconds": trace_seconds,
        "regions": region_count,
        "memory_stats": workload.space.fast_path_stats(),
        "campaign": campaign,
    }


def _time_planning(campaign):
    """One ``plan_cells`` call over every cell: µs per trial with the
    kernel, µs per trial on the per-trial loop, and the most live spans."""
    workload = campaign.workload
    trials = range(PLANNING_TRIALS_PER_CELL)
    batches = [
        (CampaignCell(name=region.name, spec=spec), trials)
        for region in workload.space.regions
        for spec in SPECS
    ]
    planned = len(batches) * len(trials)

    def per_trial_us():
        best = float("inf")
        for _ in range(PLANNING_REPEATS):
            start = time.perf_counter()
            campaign.plan_cells(batches)
            best = min(best, time.perf_counter() - start)
        return best * 1e6 / planned

    kernel_us = per_trial_us()
    with mock.patch.object(planner, "KERNEL_MIN_TRIALS", planned + 1):
        loop_us = per_trial_us()
    workload.reset()
    spans = max(
        len(workload.sample_ranges(region)) for region in workload.space.regions
    )
    return kernel_us, loop_us, spans


#: (app, region, spec) cells whose executed trials cannot fuse.
ALL_LIVE_CELLS = (
    ("graphmining", "heap", SINGLE_BIT_HARD),
    ("websearch", "stack", SINGLE_BIT_HARD),
)


def bench_all_live(name, region, spec, config, passes):
    """Executed trials of one cell: replay engine on vs the unfused loop."""
    campaign = CharacterizationCampaign(APPS[name](), config=config, backend="pruned")
    campaign.prepare()
    cell = CampaignCell(name=region, spec=spec)
    plan, verdict = campaign.classify_cell_trials(cell, range(config.trials_per_cell))
    executed = [
        (int(plan.trial_indices[local]), plan.flips_for(local))
        for local in range(len(plan))
        if not verdict.decidable[local]
    ]
    engine = campaign._trial_replay
    best = {"fused": float("inf"), "unfused": float("inf")}
    for index in range(2 * passes):
        mode = ("fused", "unfused")[index % 2]
        campaign._trial_replay = engine if mode == "fused" else (lambda: None)
        start = time.perf_counter()
        for trial_index, flips in executed:
            campaign.measure_trial(cell, trial_index, flips)
        best[mode] = min(best[mode], time.perf_counter() - start)
    campaign._trial_replay = engine
    return {
        "app": name,
        "cell": f"{region}|{spec.label}",
        "executed_trials": len(executed),
        # Per pass with the engine on; the unfused passes count live only.
        "fused_queries_per_pass": campaign.take_decisions()["fused"] // passes,
        "fused_seconds": best["fused"],
        "unfused_seconds": best["unfused"],
        "ratio": best["fused"] / best["unfused"],
    }


def bench_app(name, app_factory, config, protection):
    codecs = _region_codecs(app_factory, protection)
    runs = {
        mode: _run_campaign(app_factory, config, mode, codecs)
        for mode in MODES
    }
    # Correctness gate before any throughput claim: every mode must
    # reproduce the oracle's vulnerability profile byte for byte.
    for mode in MODES[1:]:
        assert runs[mode]["profile_json"] == runs["oracle"]["profile_json"], (
            f"{name}/{protection}: {mode} profile diverges from the oracle"
        )
    cells = len(SPECS) * runs["oracle"]["regions"]
    trials = config.trials_per_cell * cells
    stats = runs["fast"]["memory_stats"]
    checked = stats["checked_accesses"]
    fast_accesses = stats["fast_accesses"]
    pruning = runs["pruned"]["campaign"].pruning_stats
    # Query decisions are counts, not timings: a second pruned campaign
    # must tally exactly the same.
    again = _run_campaign(app_factory, config, "pruned", codecs)
    decisions_repeat = again["campaign"].pruning_stats.to_dict() == pruning.to_dict()
    planning_us, planning_loop_us, planning_spans = _time_planning(
        runs["pruned"]["campaign"]
    )
    row = {
        "app": name,
        "protection": protection,
        "trials": trials,
        # min(queries per trial, the app's trace length).
        "query_budget": runs["pruned"]["campaign"].golden_trace().query_count,
        "golden_trace_seconds": runs["pruned"]["golden_trace_seconds"],
        "planning_us_per_trial": planning_us,
        "planning_loop_us_per_trial": planning_loop_us,
        "planning_spans": planning_spans,
        "profiles_identical": True,
        "pruning": pruning.to_dict(),
        "decisions_repeat_exactly": decisions_repeat,
        "pruning_rate": pruning.pruning_rate,
        "fastpath": {
            "fast_accesses": fast_accesses,
            "checked_accesses": checked,
            "hit_rate": (
                fast_accesses / (fast_accesses + checked)
                if fast_accesses + checked
                else 0.0
            ),
            "restores_incremental": stats["restores_incremental"],
            "restores_full": stats["restores_full"],
            "restore_bytes_copied": stats["restore_bytes_copied"],
            "restore_bytes_saved": stats["restore_bytes_saved"],
        },
    }
    for mode in MODES:
        row[f"{mode}_seconds"] = runs[mode]["seconds"]
        row[f"{mode}_trials_per_sec"] = trials / runs[mode]["seconds"]
    row["speedup"] = runs["oracle"]["seconds"] / runs["fast"]["seconds"]
    row["pruned_vs_fast"] = runs["fast"]["seconds"] / runs["pruned"]["seconds"]
    row["pruned_vs_oracle"] = (
        runs["oracle"]["seconds"] / runs["pruned"]["seconds"]
    )
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller trial budget for CI (same JSON schema)",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_trials.json",
        metavar="PATH", help="where to write the JSON report",
    )
    parser.add_argument("--seed", type=int, default=29)
    arguments = parser.parse_args(argv)

    config = CampaignConfig(
        trials_per_cell=12 if arguments.smoke else 24,
        queries_per_trial=20 if arguments.smoke else 40,
        seed=arguments.seed,
    )

    rows = []
    totals = {mode: 0.0 for mode in MODES}
    total_trials = 0
    for name, app_factory in APPS.items():
        for protection in PROTECTIONS:
            row = bench_app(name, app_factory, config, protection)
            rows.append(row)
            for mode in MODES:
                totals[mode] += row[f"{mode}_seconds"]
            total_trials += row["trials"]
            stats = row["pruning"]
            budget = stats["pruned"] + stats["executed"] + stats["fallback"]
            print(
                f"{name:<12} {protection:<7} "
                f"fast {row['speedup']:>5.1f}x  "
                f"pruned/fast {row['pruned_vs_fast']:>5.1f}x  "
                f"pruned {stats['pruned']}/{budget} "
                f"({row['pruning_rate']:.0%})  "
                f"planning {row['planning_us_per_trial']:.1f} us/trial "
                f"(loop {row['planning_loop_us_per_trial']:.1f}) "
                f"over {row['planning_spans']} spans"
            )

    all_live = [
        bench_all_live(name, region, spec, config, 5 if arguments.smoke else 25)
        for name, region, spec in ALL_LIVE_CELLS
    ]
    for row in all_live:
        print(
            f"{row['app']:<12} {row['cell']:<22} {row['executed_trials']} all-live "
            f"trials: engine on / unfused loop = {row['ratio']:.3f}"
        )

    report = {
        "mode": "smoke" if arguments.smoke else "full",
        "all_live": all_live,
        "trials_per_cell": config.trials_per_cell,
        "queries_per_trial": config.queries_per_trial,
        "seed": arguments.seed,
        "specs": [spec.label for spec in SPECS],
        "protections": list(PROTECTIONS),
        "apps": rows,
        "total_trials": total_trials,
        "oracle_trials_per_sec": total_trials / totals["oracle"],
        "fast_trials_per_sec": total_trials / totals["fast"],
        "pruned_trials_per_sec": total_trials / totals["pruned"],
        "aggregate_speedup": totals["oracle"] / totals["fast"],
        "pruned_vs_fast": totals["fast"] / totals["pruned"],
        "pruned_vs_oracle": totals["oracle"] / totals["pruned"],
        "profiles_identical": all(row["profiles_identical"] for row in rows),
        # Same-run ratio: the per-trial loop's planning cost over the
        # kernel's, summed over every row.
        "planning_kernel_vs_loop": (
            sum(row["planning_loop_us_per_trial"] for row in rows)
            / sum(row["planning_us_per_trial"] for row in rows)
        ),
    }
    arguments.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {arguments.out}")
    print(
        f"aggregate oracle->fast {report['aggregate_speedup']:.2f}x  "
        f"fast->pruned {report['pruned_vs_fast']:.2f}x  "
        f"oracle->pruned {report['pruned_vs_oracle']:.2f}x  "
        f"({report['oracle_trials_per_sec']:.1f} -> "
        f"{report['fast_trials_per_sec']:.1f} -> "
        f"{report['pruned_trials_per_sec']:.1f} trials/s); "
        f"planning kernel vs loop {report['planning_kernel_vs_loop']:.2f}x"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
