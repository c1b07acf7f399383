"""Command-line interface: ``python -m repro <command>``.

Thin orchestration over the library for the common reproduction tasks:

* ``characterize`` — run an injection campaign on one of the built-in
  workloads and print its vulnerability profile (optionally streaming a
  structured JSONL trace via ``--trace-out`` and metric dumps via
  ``--metrics-out`` / ``--prom-out``);
* ``design`` — evaluate the paper's five Table 6 design points (and
  optionally search for the cheapest design meeting ``--target``)
  against a fresh characterization;
* ``explore`` — design-space exploration: rank the top-k designs
  meeting an availability target (exact branch-and-bound) and
  optionally Monte Carlo-validate the winner;
* ``fleet`` — simulate a heterogeneous fleet of HRM servers (Monte
  Carlo + analytic cross-check) and optionally search fractional
  design compositions for the cheapest mix meeting an availability
  target;
* ``recoverability`` — print the Table 5 analysis for a workload;
* ``ecc`` — regenerate Table 1 from the codec implementations;
* ``report`` — render a saved ``--trace-out`` JSONL trace or a serve
  ledger (auto-detected by the first event's kind);
* ``top`` — refreshing terminal dashboard over a live ``repro serve
  --http-port`` endpoint or a finished ledger file.

Global ``--log-level`` (before the subcommand) configures the
package-level ``repro`` logger; the library itself only installs a
``NullHandler``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import functools
import json
import logging
import sys
from pathlib import Path
from typing import List, Optional

from repro.apps import GraphMining, KVStoreWorkload, WebSearch
from repro.core.campaign import BACKENDS, CampaignConfig, CharacterizationCampaign
from repro.core.mapping import (
    DesignEvaluator,
    consumer_pc,
    detect_and_recover,
    detect_and_recover_less_tested,
    less_tested,
    paper_design_points,
    typical_server,
)
from repro.core.recoverability import (
    analyze_recoverability,
    overall_recoverability,
)
from repro.ecc import UnknownTechniqueError, available_techniques, make_codec
from repro.explore import explore
from repro.fleet import (
    AgingConfig,
    CorrelationConfig,
    FleetConfig,
    analyze_fleet,
    analytic_matches_simulation,
    optimize_fleet,
    simulate_fleet,
)
from repro.injection import MULTI_BIT_HARD, SINGLE_BIT_HARD, SINGLE_BIT_SOFT
from repro.obs import (
    SPAN_FLEET,
    EventBuffer,
    JsonlSink,
    MetricsRegistry,
    Observer,
    ObservabilityServer,
    SloConfig,
    load_events,
    parse_burn_windows,
    render_fleet_draw_path,
    render_run_summary,
    render_serve_report,
    render_trace_report,
    summarize_trace,
)
from repro.serve import POLICY_NAMES, ServeConfig, run_serve
from repro.serve.multiplexer import serve_session

LOG_LEVELS = ("debug", "info", "warning", "error")


def _worker_count(value: str) -> int:
    from repro.exec.workers import resolve_workers

    try:
        resolved = resolve_workers(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return resolved if resolved is not None else 1


def _region_codec(value: str):
    name, sep, codec = value.partition("=")
    if not sep or not name or not codec:
        raise argparse.ArgumentTypeError(
            f"expected REGION=CODEC (e.g. heap=SEC-DED), got {value!r}"
        )
    from repro.core.campaign import _parse_technique

    try:
        technique = _parse_technique(codec)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return name, technique.value


def _top_k(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(f"--top-k must be >= 1, got {count}")
    return count


def _month_count(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"--simulate-months must be >= 0, got {count}"
        )
    return count


def _tick_count(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"--duration must be >= 1 tick, got {count}"
        )
    return count


def _error_rate(value: str) -> float:
    rate = float(value)
    if not 0 <= rate < float("inf"):
        raise argparse.ArgumentTypeError(
            f"--error-rate must be a finite rate >= 0, got {value}"
        )
    return rate


def _serve_scale(value: str) -> float:
    scale = float(value)
    if not 0 < scale < float("inf"):
        raise argparse.ArgumentTypeError(
            f"--scale must be a finite number > 0, got {value}"
        )
    return scale


def _port(value: str) -> int:
    port = int(value)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"--http-port must be in 0..65535, got {port}"
        )
    return port


def _server_count(value: str) -> int:
    count = int(value)
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"--servers must be >= 1, got {count}"
        )
    return count


def _parse_spec(value: str, keys: dict, flag: str) -> dict:
    """Parse a 'key=value,key=value' flag into typed kwargs."""
    kwargs = {}
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key = key.strip()
        if not sep or key not in keys:
            raise argparse.ArgumentTypeError(
                f"{flag}: expected key=value with keys "
                f"{sorted(keys)}, got {part!r}"
            )
        name, cast = keys[key]
        try:
            kwargs[name] = cast(raw.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{flag}: bad value for {key!r}: {raw!r}"
            )
    return kwargs


def _correlation_spec(value: str) -> CorrelationConfig:
    """'off' or comma-separated key=value (rate, cohort, downtime,
    bad-batch, bad-multiplier, mode)."""
    if value == "off":
        return CorrelationConfig.disabled()
    keys = {
        "rate": ("shock_rate_per_month", float),
        "cohort": ("shock_cohort_fraction", float),
        "downtime": ("shock_downtime_minutes", float),
        "bad-batch": ("bad_batch_fraction", float),
        "bad-multiplier": ("bad_batch_multiplier", float),
        "mode": ("mode", str),
    }
    kwargs = _parse_spec(value, keys, "--correlation")
    try:
        return CorrelationConfig(**kwargs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--correlation: {exc}")


def _aging_spec(value: str) -> AgingConfig:
    """'flat', 'bathtub', or key=value (infant, tau, onset, slope)."""
    if value == "flat":
        return AgingConfig.flat()
    if value == "bathtub":
        return AgingConfig()
    keys = {
        "infant": ("infant_multiplier", float),
        "tau": ("infant_tau_months", float),
        "onset": ("wearout_onset_months", float),
        "slope": ("wearout_slope_per_month", float),
    }
    kwargs = _parse_spec(value, keys, "--aging")
    try:
        return AgingConfig(**kwargs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--aging: {exc}")


def _out_path(value: str) -> Path:
    """Validate an output file path eagerly (fail fast, not after a run)."""
    path = Path(value)
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"{value!r} is a directory")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"output directory {str(path.parent)!r} does not exist"
        )
    return path


def _in_path(value: str) -> Path:
    """Validate an input file path."""
    path = Path(value)
    if not path.is_file():
        raise argparse.ArgumentTypeError(f"no such file: {value!r}")
    return path


def _websearch_factory(scale: float):
    return functools.partial(
        WebSearch,
        vocabulary_size=int(600 * scale),
        doc_count=int(400 * scale),
        query_count=int(200 * scale),
    )


def _memcached_factory(scale: float):
    return functools.partial(
        KVStoreWorkload, key_count=int(1000 * scale), op_count=int(300 * scale)
    )


def _graphlab_factory(scale: float):
    return functools.partial(
        GraphMining, vertex_count=int(300 * scale), edges_per_vertex=8
    )


#: app name -> (scale -> picklable zero-argument workload factory). The
#: factories are ``functools.partial`` objects so ``--workers`` can ship
#: them to spawned worker processes on any platform.
WORKLOADS = {
    "websearch": _websearch_factory,
    "memcached": _memcached_factory,
    "graphlab": _graphlab_factory,
}

SPECS = {
    "soft": SINGLE_BIT_SOFT,
    "hard": SINGLE_BIT_HARD,
    "multi": MULTI_BIT_HARD,
}

#: short key -> Table 6 design factory (regions, recoverable_fractions).
FLEET_DESIGNS = {
    "typical": lambda regions, fractions: typical_server(regions),
    "consumer": lambda regions, fractions: consumer_pc(regions),
    "recover": detect_and_recover,
    "less-tested": lambda regions, fractions: less_tested(regions),
    "recover-l": detect_and_recover_less_tested,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heterogeneous-Reliability Memory reproduction toolkit",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default=None,
        help="configure the package-level 'repro' logger (stderr)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    characterize = sub.add_parser(
        "characterize", help="run an injection campaign on a workload"
    )
    characterize.add_argument("--app", choices=sorted(WORKLOADS), default="websearch")
    characterize.add_argument("--trials", type=int, default=40)
    characterize.add_argument("--queries", type=int, default=120)
    characterize.add_argument("--scale", type=float, default=1.0)
    characterize.add_argument(
        "--errors", nargs="+", choices=sorted(SPECS), default=["soft", "hard"]
    )
    characterize.add_argument("--seed", type=int, default=99)
    characterize.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for the campaign, or 'auto'/0 for the "
        "usable CPU count (result is identical for any worker count)",
    )
    characterize.add_argument(
        "--backend", choices=BACKENDS, default="pruned",
        help="trial execution engine; 'pruned' plans injections in "
        "batches, resolves footprint-decidable trials from one golden "
        "trace and executes only what a fault can reach; 'scalar' is "
        "the serial trial-by-trial oracle (bit-identical profile)",
    )
    characterize.add_argument(
        "--region-codec", type=_region_codec, action="append", default=None,
        metavar="REGION=CODEC", dest="region_codecs",
        help="protect a region with a hardware codec (e.g. heap=SEC-DED); "
        "repeatable; corrected single-bit trials are tracked virtually "
        "instead of corrupting memory",
    )
    characterize.add_argument(
        "--json", action="store_true", help="emit the profile as JSON"
    )
    characterize.add_argument(
        "--metrics", action="store_true",
        help="print campaign throughput (trials/sec, per-worker timing) "
        "to stderr",
    )
    characterize.add_argument(
        "--trace-out", type=_out_path, default=None, metavar="PATH",
        help="write a structured JSONL event trace (spans: campaign/cell/"
        "trial/injection/consume/verify; render with 'repro report')",
    )
    characterize.add_argument(
        "--metrics-out", type=_out_path, default=None, metavar="PATH",
        help="write the instrument registry (trials, throughput, "
        "per-worker timing) as JSON",
    )
    characterize.add_argument(
        "--prom-out", type=_out_path, default=None, metavar="PATH",
        help="write the metrics registry as Prometheus text exposition",
    )

    design = sub.add_parser(
        "design", help="evaluate Table 6 design points (and optimize)"
    )
    design.add_argument("--app", choices=sorted(WORKLOADS), default="websearch")
    design.add_argument("--trials", type=int, default=40)
    design.add_argument("--scale", type=float, default=1.0)
    design.add_argument("--target", type=float, default=None,
                        help="also search for the cheapest design meeting "
                        "this availability target")
    design.add_argument("--seed", type=int, default=99)
    design.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for the characterization phase",
    )

    explore_cmd = sub.add_parser(
        "explore", help="batch design-space exploration (top-k + simulation)"
    )
    explore_cmd.add_argument("--app", choices=sorted(WORKLOADS), default="websearch")
    explore_cmd.add_argument("--trials", type=int, default=40)
    explore_cmd.add_argument("--scale", type=float, default=1.0)
    explore_cmd.add_argument("--seed", type=int, default=99)
    explore_cmd.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for the characterization phase",
    )
    explore_cmd.add_argument(
        "--target", type=float, default=0.999,
        help="minimum single-server availability (default 0.999)",
    )
    explore_cmd.add_argument(
        "--max-incorrect", type=float, default=None, metavar="PER_MILLION",
        help="optional incorrectness budget (errors per million queries)",
    )
    explore_cmd.add_argument(
        "--top-k", type=_top_k, default=5, metavar="K",
        help="number of best feasible designs to rank (default 5); "
        "branch-and-bound finds them without enumerating the space, so "
        "'feasible' is a lower bound",
    )
    explore_cmd.add_argument(
        "--simulate-months", type=_month_count, default=0, metavar="N",
        help="Monte Carlo-validate the winner over N server-months",
    )
    explore_cmd.add_argument(
        "--sim-seed", type=int, default=0,
        help="seed for the validation simulation",
    )
    explore_cmd.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )
    explore_cmd.add_argument(
        "--trace-out", type=_out_path, default=None, metavar="PATH",
        help="write explore/explore_phase spans as a JSONL trace",
    )
    explore_cmd.add_argument(
        "--metrics-out", type=_out_path, default=None, metavar="PATH",
        help="write the exploration instrument registry as JSON",
    )
    explore_cmd.add_argument(
        "--prom-out", type=_out_path, default=None, metavar="PATH",
        help="write the metrics registry as Prometheus text exposition",
    )

    fleet = sub.add_parser(
        "fleet",
        help="simulate a heterogeneous fleet (MC + analytic cross-check)",
    )
    fleet.add_argument("--app", choices=sorted(WORKLOADS), default="websearch")
    fleet.add_argument("--trials", type=int, default=40)
    fleet.add_argument("--scale", type=float, default=1.0)
    fleet.add_argument("--seed", type=int, default=99)
    fleet.add_argument(
        "--workers", type=_worker_count, default=1,
        help="worker processes for the characterization phase",
    )
    fleet.add_argument(
        "--servers", type=_server_count, default=1000,
        help="fleet size (default 1000)",
    )
    fleet.add_argument(
        "--months", type=_tick_count, default=60, metavar="N",
        help="simulation horizon in months (default 60)",
    )
    fleet.add_argument(
        "--demand", type=float, default=0.8, metavar="FRACTION",
        help="traffic demand as a fraction of fleet capacity "
        "(the rest is failover headroom; default 0.8)",
    )
    fleet.add_argument(
        "--designs", nargs="+", choices=sorted(FLEET_DESIGNS),
        default=sorted(FLEET_DESIGNS), metavar="NAME",
        help="Table 6 designs deployed (uniform composition): "
        f"{', '.join(sorted(FLEET_DESIGNS))}",
    )
    fleet.add_argument(
        "--correlation", type=_correlation_spec,
        default=CorrelationConfig.disabled(), metavar="SPEC",
        help="correlated-failure structure: 'off' or key=value pairs "
        "(rate, cohort, downtime, bad-batch, bad-multiplier, mode), "
        "e.g. 'rate=1.0,cohort=0.2,downtime=30'",
    )
    fleet.add_argument(
        "--aging", type=_aging_spec, default=AgingConfig.flat(),
        metavar="SPEC",
        help="DRAM aging curve: 'flat', 'bathtub', or key=value pairs "
        "(infant, tau, onset, slope)",
    )
    fleet.add_argument(
        "--sim-seed", type=int, default=0,
        help="root seed for the fleet simulation (results are "
        "byte-identical across runs)",
    )
    fleet.add_argument(
        "--target", type=float, default=None, metavar="FRACTION",
        help="also search fractional compositions for the cheapest "
        "fleet meeting this availability target",
    )
    fleet.add_argument(
        "--step", type=float, default=0.1,
        help="composition search granularity (default 0.1)",
    )
    fleet.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )
    fleet.add_argument(
        "--trace-out", type=_out_path, default=None, metavar="PATH",
        help="write fleet/fleet_phase spans as a JSONL trace",
    )
    fleet.add_argument(
        "--metrics-out", type=_out_path, default=None, metavar="PATH",
        help="write the fleet instrument registry as JSON",
    )
    fleet.add_argument(
        "--prom-out", type=_out_path, default=None, metavar="PATH",
        help="write the metrics registry as Prometheus text exposition",
    )

    serve = sub.add_parser(
        "serve",
        help="serve the three workloads live on HRM with online errors",
    )
    serve.add_argument(
        "--duration", type=_tick_count, default=60, metavar="TICKS",
        help="virtual-time ticks to serve (default 60)",
    )
    serve.add_argument(
        "--error-rate", type=_error_rate, default=0.5, metavar="RATE",
        help="expected fault footprints per tick (default 0.5)",
    )
    serve.add_argument(
        "--policy", choices=POLICY_NAMES, default=None,
        help="force one Table 2 response for every region (default: "
        "choose per region by recoverability class)",
    )
    serve.add_argument(
        "--ledger-out", type=_out_path, default=None, metavar="PATH",
        help="append every fault/policy/response event to this JSONL "
        "ledger (availability is recomputed from it on shutdown)",
    )
    serve.add_argument("--seed", type=int, default=2014)
    serve.add_argument("--scale", type=_serve_scale, default=0.5)
    serve.add_argument(
        "--json", action="store_true", help="emit the session summary as JSON"
    )
    serve.add_argument(
        "--trace-out", type=_out_path, default=None, metavar="PATH",
        help="write the serve span as a JSONL trace",
    )
    serve.add_argument(
        "--metrics-out", type=_out_path, default=None, metavar="PATH",
        help="write the ServeInstruments registry as JSON",
    )
    serve.add_argument(
        "--prom-out", type=_out_path, default=None, metavar="PATH",
        help="write the metrics registry as Prometheus text exposition",
    )
    serve.add_argument(
        "--http-port", type=_port, default=None, metavar="PORT",
        help="host the live telemetry plane on this port (0 = ephemeral): "
        "/metrics, /healthz, /readyz, /status, /slo, /ledger/tail",
    )
    serve.add_argument(
        "--http-host", default="127.0.0.1", metavar="HOST",
        help="bind address for --http-port (default 127.0.0.1)",
    )
    serve.add_argument(
        "--http-linger", type=float, default=0.0, metavar="SECONDS",
        help="keep the telemetry endpoints up this long after the session "
        "finishes (POST /quitz ends the linger early)",
    )
    serve.add_argument(
        "--slo-target", type=float, default=None, metavar="FRACTION",
        help="per-tenant availability SLO target in (0, 1) "
        "(default 0.99); burn rates are computed against 1 - target",
    )
    serve.add_argument(
        "--burn-windows", type=parse_burn_windows, default=None,
        metavar="SPEC",
        help="burn-rate alert rules as name:short:long:threshold "
        "comma-separated (default 'fast:2:8:6,slow:8:32:2')",
    )

    recover = sub.add_parser(
        "recoverability", help="Table 5 recoverability analysis"
    )
    recover.add_argument("--app", choices=sorted(WORKLOADS), default="websearch")
    recover.add_argument("--queries", type=int, default=200)
    recover.add_argument("--scale", type=float, default=1.0)

    ecc = sub.add_parser("ecc", help="regenerate Table 1 from the codecs")
    ecc.add_argument(
        "--ecc", metavar="NAME", default=None,
        help="show only this technique's Table 1 row "
        "(exact name, e.g. 'SEC-DED')",
    )

    report = sub.add_parser(
        "report",
        help="render a saved JSONL trace or serve ledger (auto-detected)",
    )
    report.add_argument(
        "trace", type=_in_path,
        help="path to a JSONL trace or serve ledger",
    )
    report.add_argument(
        "--json", action="store_true",
        help="emit the summary as JSON instead of a table",
    )

    top = sub.add_parser(
        "top",
        help="terminal dashboard over a live serve endpoint or a ledger",
    )
    top.add_argument(
        "target",
        help="base URL of a 'repro serve --http-port' session "
        "(e.g. http://127.0.0.1:9100) or a ledger JSONL path",
    )
    top.add_argument(
        "--refresh", type=float, default=1.0, metavar="SECONDS",
        help="seconds between frames when tailing a live endpoint",
    )
    top.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="render at most N frames, then exit",
    )
    top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    top.add_argument(
        "--no-clear", action="store_true",
        help="do not clear the screen between frames",
    )
    return parser


def _make_workload(arguments):
    """Return (workload instance, picklable factory) for the chosen app."""
    factory = WORKLOADS[arguments.app](arguments.scale)
    return factory(), factory


def _build_observer(arguments, summary: bool = False) -> Observer:
    """Assemble sinks + metrics registry from the telemetry flags.

    ``summary`` asks for a registry without a metrics file (the
    ``characterize --metrics`` table reads it).
    """
    sinks = []
    if arguments.trace_out is not None:
        sinks.append(JsonlSink(arguments.trace_out))
    registry = None
    if summary or arguments.metrics_out is not None or arguments.prom_out is not None:
        registry = MetricsRegistry()
    return Observer(sinks=sinks, metrics=registry)


def _write_metrics(arguments, observer: Observer) -> None:
    """Honour ``--metrics-out`` / ``--prom-out`` after the run."""
    if arguments.metrics_out is not None:
        payload = {"instruments": observer.metrics.to_dict()}
        arguments.metrics_out.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    if arguments.prom_out is not None:
        arguments.prom_out.write_text(observer.metrics.render_prometheus())


def _characterize_hard_errors(arguments):
    """The profile the planning subcommands run on.

    Characterizes the chosen app's single-bit hard errors, then measures
    how much of each region is recoverable; returns ``(profile,
    recoverable fraction by region)``.
    """
    workload, factory = _make_workload(arguments)
    campaign = CharacterizationCampaign(
        workload,
        config=CampaignConfig(
            trials_per_cell=arguments.trials,
            queries_per_trial=120,
            seed=arguments.seed,
        ),
    )
    print(f"characterizing {workload.name} (hard errors)...", file=sys.stderr)
    campaign.prepare()
    profile = campaign.run(
        specs=(SINGLE_BIT_HARD,),
        workers=arguments.workers,
        workload_factory=factory,
    )
    recovery = analyze_recoverability(workload, queries=150)
    return profile, {
        name: entry.best_fraction for name, entry in recovery.items()
    }


def _cmd_characterize(arguments) -> int:
    if arguments.backend == "scalar" and arguments.workers > 1:
        print(
            "repro characterize: --backend scalar is single-threaded; "
            "drop --workers or use --backend pruned",
            file=sys.stderr,
        )
        return 2
    workload, factory = _make_workload(arguments)
    observer = _build_observer(arguments, summary=arguments.metrics)
    campaign = CharacterizationCampaign(
        workload,
        config=CampaignConfig(
            trials_per_cell=arguments.trials,
            queries_per_trial=arguments.queries,
            seed=arguments.seed,
        ),
        observer=observer,
        backend=arguments.backend,
        region_codecs=(
            dict(arguments.region_codecs) if arguments.region_codecs else None
        ),
    )
    workers = arguments.workers
    suffix = f" ({workers} workers)" if workers > 1 else ""
    print(f"characterizing {workload.name}{suffix}...", file=sys.stderr)
    campaign.prepare()
    try:
        profile = campaign.run(
            specs=tuple(SPECS[name] for name in arguments.errors),
            workers=workers,
            workload_factory=factory,
        )
    finally:
        observer.close()
    if arguments.metrics:
        print(render_run_summary(observer.instruments), file=sys.stderr)
    _write_metrics(arguments, observer)
    if arguments.json:
        print(json.dumps(profile.to_dict(), indent=2))
        return 0
    print(f"{'region':<9} {'error type':<16} {'crash':>7} {'incorrect':>10} {'masked':>8}")
    for (region, label), cell in sorted(profile.cells.items()):
        print(
            f"{region:<9} {label:<16} {cell.crashes / cell.trials:>6.1%} "
            f"{cell.incorrect_trials / cell.trials:>9.1%} "
            f"{cell.masked_trials / cell.trials:>7.1%}"
        )
    return 0


def _cmd_design(arguments) -> int:
    profile, fractions = _characterize_hard_errors(arguments)
    evaluator = DesignEvaluator(profile, error_label="single-bit hard")
    print(f"{'design':<18} {'mem save':>9} {'srv save':>9} "
          f"{'crashes/mo':>11} {'avail':>10}")
    for design in paper_design_points(profile.regions(), fractions):
        metrics = evaluator.evaluate(design)
        print(
            f"{design.name:<18} {metrics.memory_cost_savings:>8.1%} "
            f"{metrics.server_cost_savings:>8.1%} "
            f"{metrics.crashes_per_month:>10.1f} "
            f"{metrics.availability:>9.4%}"
        )
    if arguments.target is not None:
        result = explore(
            profile,
            availability_target=arguments.target,
            error_label=evaluator.error_label,
            recoverable_fractions=fractions,
            top_k=1,
        )
        if result.found:
            best = result.best
            print(
                f"\nbest design for >={arguments.target:.2%}: {best.design.name} "
                f"(server savings {best.server_cost_savings:.1%}, "
                f"availability {best.availability:.4%})"
            )
        else:
            print(f"\nno design meets {arguments.target:.2%}")
            return 1
    return 0


def _cmd_explore(arguments) -> int:
    profile, fractions = _characterize_hard_errors(arguments)
    observer = _build_observer(arguments)
    try:
        result = explore(
            profile,
            availability_target=arguments.target,
            error_label="single-bit hard",
            recoverable_fractions=fractions,
            max_incorrect_per_million=arguments.max_incorrect,
            top_k=arguments.top_k,
            simulate_months=arguments.simulate_months,
            simulation_seed=arguments.sim_seed,
            observer=observer,
        )
    finally:
        observer.close()
    _write_metrics(arguments, observer)
    if arguments.json:
        payload = {
            "backend": result.backend,
            "target": arguments.target,
            "total_designs": result.total_designs,
            "evaluated": result.evaluated,
            "pruned": result.pruned,
            "feasible_count": result.feasible_count,
            "feasible_count_exact": result.feasible_count_exact,
            "top": [
                {
                    "design": metrics.design.name,
                    "memory_cost_savings": metrics.memory_cost_savings,
                    "server_cost_savings": metrics.server_cost_savings,
                    "crashes_per_month": metrics.crashes_per_month,
                    "availability": metrics.availability,
                    "incorrect_per_million": metrics.incorrect_per_million_queries,
                }
                for metrics in result.feasible
            ],
        }
        if result.simulation is not None:
            payload["simulation"] = result.simulation.to_dict()
        print(json.dumps(payload, indent=2))
        return 0 if result.found else 1
    if not result.found:
        print(
            f"no design meets {arguments.target:.2%} "
            f"({result.evaluated} evaluated, {result.pruned} pruned "
            f"of {result.total_designs})"
        )
        return 1
    at_least = "" if result.feasible_count_exact else ">"
    print(
        f"backend={result.backend}  space={result.total_designs}  "
        f"evaluated={result.evaluated}  pruned={result.pruned}  "
        f"feasible{at_least}={result.feasible_count}"
    )
    print(f"{'#':>2} {'design':<34} {'srv save':>9} {'avail':>10} {'inc/M':>8}")
    for rank, metrics in enumerate(result.feasible, start=1):
        print(
            f"{rank:>2} {metrics.design.name:<34} "
            f"{metrics.server_cost_savings:>8.1%} "
            f"{metrics.availability:>9.4%} "
            f"{metrics.incorrect_per_million_queries:>8.2f}"
        )
    if result.simulation is not None:
        sim = result.simulation
        print(
            f"\nsimulated {sim.months} months (seed {sim.seed}): "
            f"mean availability {sim.mean_availability:.4%} "
            f"(analytic {sim.analytic_availability:.4%}), "
            f"p5 {sim.percentiles['p5']:.4%} / p95 {sim.percentiles['p95']:.4%}"
        )
    return 0


def _cmd_fleet(arguments) -> int:
    profile, fractions = _characterize_hard_errors(arguments)
    regions = sorted(profile.region_sizes)
    designs = [
        FLEET_DESIGNS[key](regions, fractions) for key in arguments.designs
    ]
    config = FleetConfig(
        servers=arguments.servers,
        months=arguments.months,
        demand_fraction=arguments.demand,
        aging=arguments.aging,
        correlation=arguments.correlation,
    )
    observer = _build_observer(arguments)
    # The simulate span says which draw path the chunks took and why.
    spans = EventBuffer()
    observer.sinks.append(spans)
    try:
        simulated = simulate_fleet(
            profile,
            designs=designs,
            config=config,
            seed=arguments.sim_seed,
            observer=observer,
            error_label="single-bit hard",
        )
        analytic = analyze_fleet(
            profile,
            designs=designs,
            config=config,
            observer=observer,
            error_label="single-bit hard",
        )
        optimization = None
        if arguments.target is not None:
            optimization = optimize_fleet(
                profile,
                designs=designs,
                config=config,
                availability_target=arguments.target,
                step=arguments.step,
                observer=observer,
                error_label="single-bit hard",
            )
    finally:
        observer.close()
    _write_metrics(arguments, observer)
    verdicts = analytic_matches_simulation(analytic, simulated)
    agreement = all(verdicts.values())
    simulate_span = next(e for e in spans.events if e.name == SPAN_FLEET)
    draw_path = {
        name: simulate_span.attrs[name]
        for name in (
            "aggregated_chunks", "per_server_chunks", "clip_log10_bound"
        )
    }
    if arguments.json:
        payload = {
            "simulation": simulated.to_dict(),
            "simulation_draw_path": draw_path,
            "analytic": analytic.to_dict(),
            "analytic_within_ci": verdicts,
        }
        if optimization is not None:
            payload["optimization"] = optimization.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if optimization is None or optimization.best else 1
    print(
        f"backend={simulated.backend}  servers={simulated.servers}  "
        f"months={simulated.months}  demand={simulated.demand_fraction:g}"
    )
    print(
        f"fleet availability  {simulated.mean_fleet_availability:>9.4%} "
        f"(analytic {analytic.mean_fleet_availability:.4%})"
    )
    print(
        f"machine availability{simulated.mean_machine_availability:>9.4%} "
        f"(analytic {analytic.mean_machine_availability:.4%}, "
        f"within CI95: {'yes' if agreement else 'NO'})"
    )
    print(
        f"p99 fleet downtime  {simulated.downtime_percentile(99):>10.0f} "
        "minutes/month"
    )
    print(f"draw path           {render_fleet_draw_path(draw_path)}")
    print(f"\n{'design':<18} {'servers':>8} {'machine avail':>14}")
    for name, count in sorted(simulated.composition.items()):
        print(
            f"{name:<18} {count:>8} "
            f"{simulated.machine_availability_of(name):>13.4%}"
        )
    if optimization is not None:
        if optimization.best is None:
            print(
                f"\nno composition meets {arguments.target:.2%} "
                f"({optimization.evaluated} evaluated)"
            )
            return 1
        best = optimization.best
        print(
            f"\nbest composition for >={arguments.target:.2%}: {best.key} "
            f"(cost savings {best.cost_savings:.1%}, "
            f"availability {best.fleet_availability:.4%}; "
            f"{optimization.evaluated} evaluated, "
            f"mixed beats singles: "
            f"{'yes' if optimization.mixed_dominates_singles else 'no'})"
        )
    return 0


def _serve_slo_config(arguments) -> Optional["SloConfig"]:
    """Build the SLO config from --slo-target / --burn-windows."""
    if arguments.slo_target is None and arguments.burn_windows is None:
        return None
    kwargs = {}
    if arguments.slo_target is not None:
        kwargs["target"] = arguments.slo_target
    if arguments.burn_windows is not None:
        kwargs["windows"] = arguments.burn_windows
    return SloConfig(**kwargs)


async def _serve_with_http(arguments, config, observer, slo_config):
    """Run a serve session hosting the live telemetry plane.

    The server outlives the session by ``--http-linger`` seconds so
    scrapers can collect the final state; ``POST /quitz`` ends the
    linger early (CI uses it to get a clean, artifact-complete exit).
    """
    server = ObservabilityServer(
        observer.metrics if observer.metrics is not None else MetricsRegistry(),
        host=arguments.http_host,
        port=arguments.http_port,
    )
    await server.start()
    print(f"telemetry: {server.url}", file=sys.stderr)
    try:
        result = await serve_session(
            config,
            ledger_path=arguments.ledger_out,
            observer=observer,
            registry=server.registry,
            scale=arguments.scale,
            slo_config=slo_config,
            server=server,
        )
        if arguments.http_linger > 0:
            try:
                await asyncio.wait_for(
                    server.quit_event.wait(), timeout=arguments.http_linger
                )
            except asyncio.TimeoutError:
                pass
    finally:
        await server.stop()
    return result


def _cmd_serve(arguments) -> int:
    observer = _build_observer(arguments)
    config = ServeConfig(
        duration_ticks=arguments.duration,
        error_rate=arguments.error_rate,
        policy=arguments.policy,
        seed=arguments.seed,
    )
    slo_config = _serve_slo_config(arguments)
    print(
        f"serving {arguments.duration} ticks at error rate "
        f"{arguments.error_rate:g}/tick "
        f"(policy: {arguments.policy or 'auto'})...",
        file=sys.stderr,
    )
    try:
        if arguments.http_port is not None:
            result = asyncio.run(
                _serve_with_http(arguments, config, observer, slo_config)
            )
        else:
            result = run_serve(
                config,
                ledger_path=arguments.ledger_out,
                observer=observer,
                registry=observer.metrics,
                scale=arguments.scale,
                slo_config=slo_config,
            )
    finally:
        observer.close()
    _write_metrics(arguments, observer)
    replay = result.replay
    if not replay.complete:
        # The table below is defined by the replay; a session that ran
        # to its end and does not replay whole has lost events.
        print(
            f"repro serve: the ledger replays incomplete ({replay.ticks} of "
            f"{arguments.duration} ticks): no serve_stop at the last tick, "
            "or a tenant's requests event is missing",
            file=sys.stderr,
        )
        return 1
    if arguments.json:
        print(json.dumps(replay.to_dict(), indent=2, sort_keys=True))
        return 0
    print(
        f"{'tenant':<12} {'avail':>9} {'ok':>7} {'bad':>5} {'fail':>5} "
        f"{'shed':>5} {'down':>5} {'responses':>10}"
    )
    for name in sorted(replay.tenants):
        summary = replay.tenants[name]
        requests = summary.requests
        print(
            f"{name:<12} {summary.availability:>8.2%} {requests['ok']:>7} "
            f"{requests['incorrect']:>5} {requests['failed']:>5} "
            f"{requests['shed']:>5} {requests['down']:>5} "
            f"{sum(summary.responses.values()):>10}"
        )
    if arguments.ledger_out is not None:
        print(
            f"ledger: {arguments.ledger_out} "
            f"({len(result.events)} events)",
            file=sys.stderr,
        )
    return 0


def _cmd_recoverability(arguments) -> int:
    workload, _factory = _make_workload(arguments)
    workload.build()
    workload.checkpoint()
    reports = analyze_recoverability(workload, queries=arguments.queries)
    print(f"{'region':<9} {'implicit':>9} {'explicit':>9}")
    for region, entry in reports.items():
        print(
            f"{region:<9} {entry.implicit_fraction:>8.1%} "
            f"{entry.explicit_fraction:>8.1%}"
        )
    overall = overall_recoverability(reports)
    print(
        f"{'overall':<9} {overall.implicit_fraction:>8.1%} "
        f"{overall.explicit_fraction:>8.1%}"
    )
    return 0


def _is_serve_ledger(path: Path) -> bool:
    """Detect a serve ledger by its first event's kind."""
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                first = json.loads(line)
            except ValueError:
                return False
            return isinstance(first, dict) and first.get("kind") == "serve_start"
    return False


def _cmd_report(arguments) -> int:
    from repro.serve import load_ledger, replay_ledger

    serve = _is_serve_ledger(arguments.trace)
    try:
        if serve:
            replay = replay_ledger(load_ledger(arguments.trace))
        else:
            events = load_events(arguments.trace)
    except ValueError as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 2
    if serve:
        if arguments.json:
            print(json.dumps(replay.to_dict(), indent=2, sort_keys=True))
            return 0
        print(render_serve_report(replay))
        return 0
    summary = summarize_trace(events)
    if arguments.json:
        print(json.dumps(dataclasses.asdict(summary), indent=2, sort_keys=True))
        return 0
    print(render_trace_report(summary))
    return 0


def _cmd_top(arguments) -> int:
    from repro.obs.top import run_top

    return run_top(
        arguments.target,
        refresh=arguments.refresh,
        frames=arguments.frames,
        once=arguments.once,
        clear=not arguments.no_clear,
    )


def _cmd_ecc(arguments) -> int:
    names = available_techniques()
    if arguments.ecc is not None:
        try:
            make_codec(arguments.ecc)
        except UnknownTechniqueError as exc:
            print(f"repro ecc: {exc}", file=sys.stderr)
            return 2
        names = [arguments.ecc]
    print(f"{'technique':<11} {'capability':<28} {'+capacity':>10} {'logic':>6}")
    for name in names:
        codec = make_codec(name)
        print(
            f"{name:<11} {codec.capability:<28} "
            f"{codec.added_capacity:>9.1%} {codec.added_logic:>6}"
        )
    return 0


def _configure_logging(level_name: Optional[str]) -> None:
    """Wire the package-level ``repro`` logger to stderr (CLI only)."""
    if level_name is None:
        return
    level = getattr(logging, level_name.upper())
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package_logger = logging.getLogger("repro")
    package_logger.addHandler(handler)
    package_logger.setLevel(level)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = _build_parser().parse_args(argv)
    _configure_logging(arguments.log_level)
    handlers = {
        "characterize": _cmd_characterize,
        "design": _cmd_design,
        "explore": _cmd_explore,
        "fleet": _cmd_fleet,
        "serve": _cmd_serve,
        "recoverability": _cmd_recoverability,
        "ecc": _cmd_ecc,
        "report": _cmd_report,
        "top": _cmd_top,
    }
    return handlers[arguments.command](arguments)


if __name__ == "__main__":
    sys.exit(main())
