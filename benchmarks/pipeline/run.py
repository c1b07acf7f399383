#!/usr/bin/env python3
"""The pipeline benchmark: five workloads over the paper's one flow.

One workload, as the driver of ``BENCHMARK.json`` runs it::

    python3 benchmarks/pipeline/run.py --workload campaign_protected \\
        --seed 29 --seconds 15 --trace 0

measures for ``--seconds`` seconds in this process and prints one JSON
object as the last line: ``--trace 0`` gives the end-to-end metrics
(program observer off), ``--trace 1`` the per-layer metrics (every other
repeat runs with the program's Observer on, then the layer probes run).

Everything, as a person runs it::

    python3 benchmarks/pipeline/run.py [--seed N] [--out DIR] [--smoke]

runs the five workloads one after another, each mode in a fresh child
process, prints every metric by name with its unit, median, quartiles
and n, writes ``DIR/result.json`` and exits non-zero if any output
check failed. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

PIPELINE_DIR = Path(__file__).resolve().parent
if str(PIPELINE_DIR) not in sys.path:
    sys.path.insert(0, str(PIPELINE_DIR))

import harness  # noqa: E402
from metrics import END_TO_END_UNITS, PER_LAYER, PER_LAYER_UNITS  # noqa: E402

#: ``run_seconds`` of BENCHMARK.json; sized so that a run with its
#: warm-up, checks and probes ends within 30 s on the 2-core sandbox.
DEFAULT_SECONDS = 15
DEFAULT_SEED = 29
MIN_REPEATS = 3
SMOKE_REPEATS = 2


def program_span_self_times(events) -> Dict[str, float]:
    """Self seconds of the program's own spans, folded by span name.

    A span's self time is its duration minus its children's; an event's
    parent path ends in ``name`` or ``name:key``.
    """
    own: Dict[str, float] = {}
    for event in events:
        if event.duration_seconds is None:
            continue
        own[event.name] = own.get(event.name, 0.0) + event.duration_seconds
        if event.parent:
            parent = event.parent.rsplit("/", 1)[-1].split(":", 1)[0]
            own[parent] = own.get(parent, 0.0) - event.duration_seconds
    return own


def measure(workload, seed: int, seconds: float, trace: bool, smoke: bool, out_dir: Path) -> dict:
    """Warm up, repeat setup + body for ``seconds``, check, and report."""
    from repro import api

    started = time.perf_counter()
    tracer = harness.Tracer(workload.name)
    results: List[dict] = []
    traced: Dict[int, dict] = {}

    def one_repeat(index: int) -> None:
        tracer.repeat = index
        # In a traced run the odd repeats carry the program's Observer,
        # so its overhead is read against the even ones beside them.
        observed = trace and index % 2 == 1
        observer = api.NULL_OBSERVER
        if observed:
            from repro.obs.sinks import EventBuffer

            buffer = EventBuffer()
            observer = api.Observer(sinks=[buffer], metrics=api.MetricsRegistry())
        with tracer.span("setup"):
            inputs = workload.setup(seed, tracer, observer)
        gc.collect()
        spin = harness.calibration_spin_s()
        with tracer.span("body"):
            result = workload.body(inputs, tracer, observer)
        spin = (spin + harness.calibration_spin_s()) / 2.0
        result["repeat"] = index
        result["spin_s"] = spin
        results.append(result)
        if observed:
            render = time.perf_counter()
            observer.metrics.render_prometheus()
            traced[index] = {
                "events": buffer.events,
                "render_ms": (time.perf_counter() - render) * 1e3,
            }

    one_repeat(-1)  # warm-up: imports, kernel tables, allocator growth
    results.clear()
    harness.timed_repeats(
        one_repeat, 0.0 if smoke else seconds, SMOKE_REPEATS if smoke else MIN_REPEATS
    )
    rss = harness.peak_rss_mb()

    checks = [
        ("digest_identical_across_repeats", len({r["digest"] for r in results}) == 1, "")
    ]
    checks += workload.checks(seed, results, thorough=not trace)
    failed = [name for name, ok, _ in checks if not ok]
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "repeats": len(results),
        "result_digest": results[0]["digest"],
        "table6_availability_err_pp": results[0].get("table6_availability_err_pp"),
        "checks": [{"name": n, "ok": ok, "detail": detail} for n, ok, detail in checks],
        "attempted": sum(r["ops"] for r in results) + len(checks),
        "failed": len(failed),
        "correct": not failed,
        "calibration_spin_ms": [r["spin_s"] * 1e3 for r in results],
    }

    if not trace:
        # Calibrated seconds: wall seconds over the host's slowdown beside them.
        slow = [r["spin_s"] / harness.REFERENCE_SPIN_S for r in results]
        setup = [tracer.seconds("setup", r["repeat"]) for r in results]
        rates = [r["ops"] / r["seconds"] for r in results]
        report["end_to_end"] = {
            "ops_per_s": harness.summarize([rate * s for rate, s in zip(rates, slow)]),
            "setup_s": harness.summarize([t / s for t, s in zip(setup, slow)]),
            "peak_rss_mb": harness.summarize([rss]),
        }
        report["end_to_end_wall_clock"] = {
            "ops_per_s": harness.summarize(rates),
            "setup_s": harness.summarize(setup),
        }
    else:
        found = harness.Probes(scale=1.0 / 8 if smoke else 1.0)
        report.update(per_layer_report(workload, seed, tracer, results, traced, found))
        spans_path = out_dir / f"{workload.name}.spans.json"
        spans_path.write_text(json.dumps(tracer.spans) + "\n")
        report["spans_file"] = spans_path.name
    report["wall_s"] = time.perf_counter() - started
    return report


def per_layer_report(workload, seed, tracer, results, traced, found) -> dict:
    """Fold the traced repeats and the probes into the per-layer table."""
    samples: Dict[str, List[float]] = {}
    plain_walls, traced_walls = [], []
    for result in results:
        index = result["repeat"]
        wall = tracer.seconds("body", index)
        if index not in traced:
            plain_walls.append(wall)
            continue
        traced_walls.append(wall)
        values = workload.layer_values(result, tracer, index)
        own = program_span_self_times(traced[index]["events"])
        for name in ("trial", "injection", "consume", "verify"):
            if name in own:
                values[f"core.span.{name}_s"] = own[name]
        values["obs.spans_emitted"] = len(traced[index]["events"])
        values["obs.metrics_render_ms"] = traced[index]["render_ms"]
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    measured: Dict[str, Optional[float]] = {
        name: statistics.median(values) for name, values in samples.items()
    }
    if plain_walls and traced_walls:
        plain = statistics.median(plain_walls)
        measured["obs.overhead_pct"] = 100.0 * (statistics.median(traced_walls) - plain) / plain

    workload.probe(seed, found)
    measured.update(found.values)

    # Self times of the benchmark's own spans: the top-level spans of a
    # repeat are "setup" and "body"; their trees must account for the wall.
    own = harness.self_time_by_name(tracer.spans)
    covered = sum(own.values())
    wall = sum(
        span["end"] - span["start"] for span in tracer.spans if span["parent"] is None
    )
    return {
        # 0.0 = this workload does not exercise the layer; None = probe failed.
        "per_layer": {name: measured.get(name, 0.0) for name, _, _ in PER_LAYER},
        "probe_errors": found.errors,
        "span_self_time_s": own,
        "span_coverage": covered / wall if wall else 1.0,
    }


def last_line(report: dict) -> str:
    """The one JSON object the driver reads."""
    if report["trace"]:
        metrics = {
            name: {"value": float(value or 0.0), "unit": PER_LAYER_UNITS[name]}
            for name, value in report["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": report["end_to_end"][name]["median"], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


def run_one(arguments) -> int:
    """Driver mode: one workload, measured in this process."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes feed set/dict iteration order; pin them so that two
        # runs walk the same orders. Same process id, nothing left behind.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    from workloads import make_workloads

    out_dir = arguments.out
    out_dir.mkdir(parents=True, exist_ok=True)
    workloads = make_workloads(out_dir, smoke=arguments.smoke)
    if arguments.workload not in workloads:
        print(f"unknown workload {arguments.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2
    report = measure(
        workloads[arguments.workload],
        arguments.seed,
        arguments.seconds,
        bool(arguments.trace),
        arguments.smoke,
        out_dir,
    )
    (out_dir / f"{report['workload']}.trace{report['trace']}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    for check in report["checks"]:
        if not check["ok"]:
            print(f"CHECK FAILED {check['name']}: {check['detail']}", file=sys.stderr)
    for name, reason in report.get("probe_errors", {}).items():
        print(f"probe {name}: {reason}", file=sys.stderr)
    print(last_line(report))
    return 0 if report["correct"] else 1


def print_report(result: dict) -> None:
    for name, entry in result["workloads"].items():
        print(f"\n== {name} ==  digest {entry['result_digest'][:16]}  "
              f"repeats {entry['repeats']}  failed {entry['failed']}/{entry['attempted']}")
        for metric, unit in END_TO_END_UNITS.items():
            stats = entry["end_to_end"][metric]
            print(f"  {metric:<14} {stats['median']:>14.4f} {unit:<4} "
                  f"[q1 {stats['q1']:.4f}, q3 {stats['q3']:.4f}, n {stats['n']}]")
        if entry.get("table6_availability_err_pp") is not None:
            print(f"  table6_availability_err_pp {entry['table6_availability_err_pp']:.4f} pp")
        for check in entry["checks"]:
            print(f"  check {check['name']}: {'ok' if check['ok'] else 'FAILED'} {check['detail']}")
        print(f"  layers (span coverage {entry['span_coverage']:.3f}; 0 = not exercised):")
        for metric, value in entry["per_layer"].items():
            if value is None:
                print(f"    {metric:<40} null  ({entry['probe_errors'].get(metric, '')})")
            elif value:
                print(f"    {metric:<40} {value:>16.4f} {PER_LAYER_UNITS[metric]}")


def run_all(arguments) -> int:
    """Every workload, each mode in a fresh single-threaded child process."""
    from workloads import make_workloads, resolved_backends

    started = time.perf_counter()
    os.environ["PYTHONHASHSEED"] = "0"  # for every child, and for the environment block
    out_dir = arguments.out
    out_dir.mkdir(parents=True, exist_ok=True)
    names = list(make_workloads(out_dir))
    result = {
        "environment": harness.environment(arguments.seed, resolved_backends()),
        "seconds": arguments.seconds,
        "smoke": arguments.smoke,
        "workloads": {},
    }
    status = 0
    for name in names:
        entry: dict = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(arguments.seed),
                "--seconds", str(arguments.seconds), "--trace", str(trace),
                "--out", str(out_dir),
            ] + (["--smoke"] if arguments.smoke else [])
            done = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=180)
            status = status or done.returncode
            report_path = out_dir / f"{name}.trace{trace}.json"
            if not report_path.exists():
                print(f"{name} --trace {trace}: no report (exit {done.returncode})", file=sys.stderr)
                return done.returncode or 1
            report = json.loads(report_path.read_text())
            if trace == 0:
                entry.update(report)
            else:
                for key in ("per_layer", "probe_errors", "span_self_time_s", "span_coverage", "spans_file"):
                    entry[key] = report[key]
                entry["checks"] += [
                    {**check, "name": f"traced:{check['name']}"} for check in report["checks"]
                ]
                entry["failed"] += report["failed"]
                entry["attempted"] += report["attempted"]
                entry["correct"] = entry["correct"] and report["correct"]
                entry["traced_result_digest"] = report["result_digest"]
                entry["calibration_spin_ms"] += report["calibration_spin_ms"]
        result["workloads"][name] = entry
    result["environment"]["total_wall_s"] = time.perf_counter() - started
    (out_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print_report(result)
    print(f"\nwrote {out_dir / 'result.json'} in {result['environment']['total_wall_s']:.1f} s")
    return status


def main(argv=None) -> int:
    if not (harness.REPO_ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {harness.REPO_ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 3
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--out", type=Path, default=PIPELINE_DIR / "out",
                        help="directory for reports, span files and ledgers")
    parser.add_argument("--smoke", action="store_true",
                        help="1 warm-up + 2 repeats of bodies divided by 8")
    arguments = parser.parse_args(argv)
    return run_one(arguments) if arguments.workload else run_all(arguments)


if __name__ == "__main__":
    sys.exit(main())
