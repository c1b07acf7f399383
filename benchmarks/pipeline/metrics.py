"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root repeats these lists (the
self-tests compare the two). Later changes cite metrics and workloads by
these names.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

APPS = ("websearch", "kvstore", "graphmining")
CODECS = ("none", "parity", "sec-ded", "dec-ted", "chipkill", "raim", "mirroring")

#: (name, unit, better, bound). ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
#: 0.25 is what the sandbox resolves (README, "Noise"), not a wish; the
#: resident set of plan_fleet reads 158 or 169 MiB for whole sets of runs
#: depending on whether NumPy's large arrays got huge pages.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
)

#: Absolute change below which ``compare.py`` gives no verdict.
FLOORS: Dict[str, float] = {"setup_s": 0.05, "peak_rss_mb": 4.0}


def _per_layer() -> List[Tuple[str, str, str]]:
    rows: List[Tuple[str, str, str]] = [
        ("memory.restore_us", "us", "lower"),
        ("memory.snapshot_ms", "ms", "lower"),
        ("memory.restore_bytes_per_trial", "B", "lower"),
        ("memory.scalar_access_ns", "ns", "lower"),
        ("memory.array_read_mb_per_s", "MB/s", "higher"),
        ("memory.fastpath_hit_rate", "ratio", "higher"),
        ("injection.inject_us", "us", "lower"),
        ("injection.inject_planned_us", "us", "lower"),
    ]
    for app in APPS:
        rows += [
            (f"apps.{app}.build_s", "s", "lower"),
            (f"apps.{app}.golden_queries_per_s", "1/s", "higher"),
            (f"apps.{app}.trials_per_s", "1/s", "higher"),
            (f"apps.{app}.executed_share", "ratio", "lower"),
        ]
    rows += [
        ("exec.pruned_share", "ratio", "higher"),
        ("exec.fallback_share", "ratio", "lower"),
        ("exec.golden_trace_s", "s", "lower"),
        ("exec.classify_trials_per_s", "1/s", "higher"),
        ("exec.parallel_speedup_w2", "ratio", "higher"),
        ("core.prepare_s", "s", "lower"),
        ("core.run_s", "s", "lower"),
        ("core.evaluate_designs_per_s", "1/s", "higher"),
        ("core.span.trial_s", "s", "lower"),
        ("core.span.injection_s", "s", "lower"),
        ("core.span.consume_s", "s", "lower"),
        ("core.span.verify_s", "s", "lower"),
        ("core.table6_availability_err_pp", "pp", "lower"),
    ]
    for codec in CODECS:
        rows += [
            (f"kernels.{codec}.encode_mwords_per_s", "Mwords/s", "higher"),
            (f"kernels.{codec}.decode_mwords_per_s", "Mwords/s", "higher"),
        ]
    rows += [
        ("kernels.plan_trials_per_s", "1/s", "higher"),
        ("hrm.write_kwords_per_s", "kwords/s", "higher"),
        ("hrm.read_kwords_per_s", "kwords/s", "higher"),
        ("hrm.scrub_kwords_per_s", "kwords/s", "higher"),
        ("explore.search_s", "s", "lower"),
        ("explore.validate_s", "s", "lower"),
        ("explore.designs_evaluated", "count", "lower"),
        ("explore.designs_per_s", "1/s", "higher"),
        ("fleet.simulate_s", "s", "lower"),
        ("fleet.server_months_per_s", "1/s", "higher"),
        ("fleet.analyze_s", "s", "lower"),
        ("fleet.optimize_s", "s", "lower"),
        ("fleet.compositions_per_s", "1/s", "higher"),
        ("fleet.pareto_size", "count", "higher"),
        ("cluster.sim_months_per_s", "1/s", "higher"),
        ("serve.startup_s", "s", "lower"),
        ("serve.tick_p50_ms", "ms", "lower"),
        ("serve.tick_p99_ms", "ms", "lower"),
        ("serve.slow_tick_share", "ratio", "lower"),
        ("serve.ledger_events", "count", "lower"),
        ("serve.ledger_bytes", "B", "lower"),
        ("serve.ok_share", "ratio", "higher"),
        ("serve.replay_events_per_s", "1/s", "higher"),
        ("obs.overhead_pct", "%", "lower"),
        ("obs.spans_emitted", "count", "lower"),
        ("obs.metrics_render_ms", "ms", "lower"),
    ]
    return rows


#: (name, unit, better); the layer is the part of the name before the
#: first dot and is a module name under ``src/repro/``.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(_per_layer())

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
