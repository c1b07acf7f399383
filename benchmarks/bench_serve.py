#!/usr/bin/env python
"""Serve throughput + determinism → ``BENCH_serve.json``.

Times the same seeded ``repro serve`` session on two planes —
``scalar``, the per-request loop (``ServeTenant.serve_requests``) on
fast-path memory, where a bench-local patch leaves every tenant's
serving entry without a trace to fuse from, and ``batched``, the
span-fused entry ``ServeTenant.serve`` as it ships — at a high offered
load (so serving work, not per-tick coordination, dominates), once at a
moderate error rate and once (``faulty``) at one fault footprint per
tick, where resident faults keep part of every quantum live. Reported
numbers, per session and plane:

* sustained requests/second and ticks/second over the session, from
  the median of :data:`REPEATS` (3) timed runs per plane, the planes
  alternating which runs first; ``wall_seconds`` is that median and
  ``wall_seconds_range`` the fastest and slowest run;
* a determinism check — the ledgers of a plane's runs must be
  byte-identical (recorded, and a hard failure here);
* a replay audit — availability recomputed from the ledger alone must
  equal the live instruments;
* each tenant's decision counts (fused / live, and why live; the
  ``scalar`` plane counts every request live);
* per tenant, ``epochs`` (trace wraps), and the ``flushes`` and
  ``bytes_flushed`` of its Par+R mirror — the bytes copied after the
  build-time mirror, which alone copies the whole region;
* per tenant, ``heap_copies``: how many times its heap allocator copied
  bookkeeping that a restore adopted (``HeapAllocator.materialized``,
  build included). A checkpoint reset or a fused run's end adopts the
  recorded state; only a malloc or free after it copies, so the batched
  plane, which executes few key-value requests live, copies at most as
  often as the scalar plane (an exact count, gated in CI for kvstore);
* per tenant, ``checkpoint_restores``: the checkpoint restores its space
  made from tick 0 on (``fast_path_stats()``; the build and the trace
  recording at session start come before). The scalar loop restores at
  every wrap and restart. The batched plane leaves a tenant's memory
  owed across quanta and restores only when a settle pays a wrap, at a
  restart, or at a wrap while a fault is guarded and no epoch record
  of the state it installs is kept — never more often than the scalar
  loop (an exact count, gated in CI);
* per tenant, what explains the batched restores: ``settles`` (memory
  the plane left owed and something then read), ``restarts``,
  ``guarded_wraps`` (wraps restored while a byte was guarded, which the
  plane owes only to a kept record), and from the ledger ``faults_routed`` (fault
  events that injected a byte: one per footprint and region of the
  tenant) and ``touched_ticks`` (ticks with such a fault or a policy
  response). Exact and gated in CI: restores <= settles + restarts +
  guarded wraps, and settles <= touched ticks + 1 (the session end);
* ``arrivals``: what the coordinator's arrival phase
  (``ServePartition.tick_arrivals``) drew and routed over the session —
  ``footprints``, their ``footprint_bytes``, the ``unmapped_bytes`` and
  ``retired_bytes`` among them (summed from each tick's
  ``ArrivalBatch``) — and its wall ``seconds``. Arrivals do not depend
  on the plane, so the counts agree across planes (exact, gated
  in CI);
* per batched tenant, ``record_counts``: ``epochs_recorded`` (epochs
  served from the wrap that installed a fault state some query meets
  to the trace end, kept as an epoch record) and ``guarded_epochs_owed``
  (later wraps installing a recorded state, owed to the record instead
  of restored), with ``restores`` (the checkpoint restores above) next
  to ``touch_bound`` = ``faults_routed + restarts + 1``. CI fails unless
  websearch owes a guarded wrap in the faulty session.

Across planes, the scalar and batched ledgers must be byte-identical
(asserted before any timing is reported — a speedup over a divergent
execution would be meaningless), and the batched plane may execute live
only requests whose recorded footprint meets a blocked byte, plus fatal
tails (an exact count, no timing). Also exact and untimed: ``epochs``
and ``flushes`` agree across planes, ``bytes_flushed`` is 0 — every
serve flush follows a checkpoint restore, so it has nothing to copy —
and so do the arrival counts.
The headline number is ``speedup``
(batched req/s over scalar req/s at the moderate rate, both medians),
which gates CI at 2x in ``--smoke`` mode; the committed full run
targets 5x.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke
"""

import argparse
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.memory.trace import DECISIONS  # noqa: E402
from repro.serve import (  # noqa: E402
    ServeConfig,
    default_tenants,
    load_ledger,
    replay_ledger,
    run_serve,
)
from repro.serve.ledger import EVENT_FAULT, EVENT_POLICY, EVENT_RESPONSE  # noqa: E402
from repro.serve.partition import ServePartition  # noqa: E402
from repro.serve.policies import ACTION_RESTART  # noqa: E402
from repro.serve.tenants import ServeTenant  # noqa: E402

SMOKE_GATE_SPEEDUP = 2.0
FULL_TARGET_SPEEDUP = 5.0
#: Report labels: the scalar loop, and the fused entry as it ships.
PLANES = ("scalar", "batched")
#: Timed runs per plane (odd, so the median is one of them).
REPEATS = 3
#: The arrival counts, which must agree across planes.
ARRIVAL_COUNTS = ("footprints", "footprint_bytes", "unmapped_bytes", "retired_bytes")

FULL = dict(duration_ticks=400, error_rate=0.25, seed=20140622)
#: Long enough that in the faulty session a fault websearch's queries
#: read stays resident across real wraps (the first arrives near tick
#: 60), so its recorded live stretches replay.
SMOKE = dict(duration_ticks=120, error_rate=0.25, seed=20140622)
FAULTY_ERROR_RATE = 1.0
SCALE = {"full": 0.5, "smoke": 0.3}
LOAD = {"full": 16.0, "smoke": 16.0}


def restores(tenant) -> int:
    """Checkpoint restores the tenant's space has made so far."""
    stats = tenant.space.fast_path_stats()
    return stats["restores_full"] + stats["restores_incremental"]


def metered_arrivals(arrivals: dict):
    """Patch ``ServePartition.tick_arrivals`` to sum into ``arrivals``
    what each tick's batch holds, and the phase's wall seconds."""
    tick_arrivals = ServePartition.tick_arrivals

    def metered(partition, rng, error_rate):
        started = time.perf_counter()
        batch = tick_arrivals(partition, rng, error_rate)
        arrivals["seconds"] += time.perf_counter() - started
        routed = sum(fault.injected + fault.corrected for fault in batch.routed)
        arrivals["footprints"] += batch.footprints
        arrivals["footprint_bytes"] += (
            routed + batch.unmapped_bytes + batch.retired_bytes
        )
        arrivals["unmapped_bytes"] += batch.unmapped_bytes
        arrivals["retired_bytes"] += batch.retired_bytes
        return batch

    return mock.patch.object(ServePartition, "tick_arrivals", metered)


def scalar_loop():
    """Patch ``ServeTenant.record_trace`` to record nothing: with no trace
    to fuse from, the serving entry sends every request to the scalar
    loop and counts it live — the ``scalar`` plane, on fast-path memory."""
    return mock.patch.object(ServeTenant, "record_trace", lambda tenant: None)


def counted_restores(settles: Counter, guarded_wraps: Counter):
    """Patch ``ServeTenant`` to count, per tenant, the settles that paid
    something owed and the epoch wraps taken while a byte is guarded."""
    settle, epoch_reset = ServeTenant.settle, ServeTenant._epoch_reset

    def counted_settle(tenant):
        if tenant.owes:
            settles[tenant.name] += 1
        settle(tenant)

    def counted_epoch_reset(tenant):
        if tenant.workload.space.tracked_addresses():
            guarded_wraps[tenant.name] += 1
        epoch_reset(tenant)

    return mock.patch.multiple(
        ServeTenant, settle=counted_settle, _epoch_reset=counted_epoch_reset
    )


def ledger_touches(events, names) -> dict:
    """Per tenant in ``names``, from the ledger: ``faults_routed`` (fault
    events that injected a byte: one per footprint and region of the
    tenant), ``restarts``, and ``touched_ticks`` (ticks with such a fault
    or a policy response, the only things between two quanta that reach
    a tenant's memory)."""
    faults, restarts, touched = Counter(), Counter(), defaultdict(set)
    for event in events:
        injected = event.kind == EVENT_FAULT and event.attrs["injected"]
        if injected:
            faults[event.tenant] += 1
        if injected or event.kind == EVENT_POLICY:
            touched[event.tenant].add(event.tick)
        if event.kind == EVENT_RESPONSE and event.attrs.get("action") == ACTION_RESTART:
            restarts[event.tenant] += 1
    return {
        name: {
            "faults_routed": faults[name],
            "restarts": restarts[name],
            "touched_ticks": len(touched[name]),
        }
        for name in names
    }


def run_session(base: dict, plane: str, ledger: Path, scale: float, load: float):
    """One seeded session under ``plane``; tenants are built fresh.

    Returns the result, the wall time, the tenants, per tenant the
    checkpoint restores made from tick 0 on and what explains them, and
    the arrival phase's counts and seconds.
    """
    config = ServeConfig(**base)
    tenants = default_tenants(scale=scale, load=load)
    by_name = {tenant.name: tenant for tenant in tenants}
    at_tick_0 = {}

    async def note_restores(tenant: str, tick: int) -> None:
        if tick == 0:
            at_tick_0[tenant] = restores(by_name[tenant])

    arrivals = dict.fromkeys(ARRIVAL_COUNTS, 0)
    arrivals["seconds"] = 0.0
    settles, guarded_wraps = Counter(), Counter()
    serving = scalar_loop() if plane == "scalar" else nullcontext()
    start = time.perf_counter()
    with metered_arrivals(arrivals), counted_restores(
        settles, guarded_wraps
    ), serving:
        result = run_serve(
            config, tenants=tenants, ledger_path=ledger, stagger=note_restores
        )
    elapsed = time.perf_counter() - start
    touches = ledger_touches(result.events, by_name)
    served = {
        name: {
            "checkpoint_restores": restores(tenant) - at_tick_0[name],
            "settles": settles[name],
            "guarded_wraps": guarded_wraps[name],
            **touches[name],
        }
        for name, tenant in by_name.items()
    }
    arrivals["seconds"] = round(arrivals["seconds"], 4)
    return result, elapsed, tenants, served, arrivals


def par_r_counts(tenant) -> dict:
    """A tenant's wraps and what its Par+R mirrors cost after the build."""
    mirrors = [
        backing
        for backing in (
            tenant.backing_for(region.name) for region in tenant.space.regions
        )
        if backing is not None and backing.writable
    ]
    return {
        "epochs": tenant.epochs,
        "flushes": sum(m.stats.flushes for m in mirrors),
        # The build-time mirror is the one full copy: the file is new.
        "bytes_flushed": sum(
            m.stats.bytes_flushed - m.region.size for m in mirrors
        ),
    }


def heap_copies(tenant) -> int:
    """Copies the tenant's heap allocator made of adopted bookkeeping."""
    # Every workload keeps its HeapAllocator here; there is no public handle.
    return tenant.workload._allocator.materialized


def bench_run(base: dict, plane: str, ledger: Path, scale: float, load: float):
    """One run of ``plane`` with its replay audit: ``(untimed report,
    wall seconds)``."""
    result, elapsed, tenants, restore_causes, arrivals = run_session(
        base, plane, ledger, scale, load
    )
    replay = replay_ledger(load_ledger(ledger))
    audit_exact = all(
        summary.availability == result.instruments.availability_of(name)
        for name, summary in replay.tenants.items()
    )

    decisions = {tenant.name: dict(tenant.decisions) for tenant in tenants}
    records = {}
    if plane == "batched":
        records["record_counts"] = {}
        for tenant in tenants:
            causes = restore_causes[tenant.name]
            records["record_counts"][tenant.name] = {
                "epochs_recorded": tenant.replay.epochs_recorded,
                "guarded_epochs_owed": tenant.replay.guarded_epochs_owed,
                "restores": causes["checkpoint_restores"],
                "touch_bound": causes["faults_routed"] + causes["restarts"] + 1,
            }
    report = {
        **records,
        "par_r": {tenant.name: par_r_counts(tenant) for tenant in tenants},
        "heap_copies": {tenant.name: heap_copies(tenant) for tenant in tenants},
        "checkpoint_restores": {
            name: counts["checkpoint_restores"] for name, counts in restore_causes.items()
        },
        "restore_causes": restore_causes,
        "arrivals": arrivals,
        "decisions": decisions,
        "decisions_total": {
            decision: sum(tally[decision] for tally in decisions.values())
            for decision in DECISIONS
        },
        "requests_total": result.total_requests(),
        "ledger_events": len(result.events),
        "availability": result.availability(),
        "replay_audit": {"exact": audit_exact},
    }
    return report, elapsed


def median(values):
    """The middle of an odd number of samples."""
    return sorted(values)[len(values) // 2]


def timed_plane(base: dict, runs: list, ledgers: list) -> dict:
    """One plane's report from its :data:`REPEATS` runs: the untimed
    leaves of the first, the median wall time and its min-max, and
    whether every run wrote the same ledger."""
    report, _ = runs[0]
    seconds = [elapsed for _, elapsed in runs]
    middle = median(seconds)
    first = ledgers[0].read_bytes()
    report["arrivals"]["seconds"] = round(
        median([run["arrivals"]["seconds"] for run, _ in runs]), 4
    )
    return {
        **report,
        "wall_seconds": round(middle, 4),
        "wall_seconds_range": [round(min(seconds), 4), round(max(seconds), 4)],
        "ticks_per_sec": round(base["duration_ticks"] / middle, 2),
        "requests_per_sec": round(report["requests_total"] / middle, 2),
        "determinism": {
            "byte_identical": all(
                ledger.read_bytes() == first for ledger in ledgers[1:]
            )
        },
    }


def bench_session(
    base: dict, ledger_stem: Path, keep_ledger: bool, scale: float, load: float
):
    """Both planes over one seeded session, with the cross-plane checks.

    Each plane runs :data:`REPEATS` times, the planes alternating which
    goes first. The (identical) ledger stays at ``ledger_stem`` when
    ``keep_ledger``.
    """
    ledgers = {
        plane: [
            ledger_stem.with_suffix(f".{plane}.{repeat}.jsonl")
            for repeat in range(REPEATS)
        ]
        for plane in PLANES
    }
    runs = {plane: [] for plane in PLANES}
    for repeat in range(REPEATS):
        for plane in PLANES if repeat % 2 == 0 else PLANES[::-1]:
            runs[plane].append(
                bench_run(base, plane, ledgers[plane][repeat], scale, load)
            )
    planes = {}
    for plane in PLANES:
        planes[plane] = timed_plane(base, runs[plane], ledgers[plane])
        report = planes[plane]
        tally = report["decisions_total"]
        low, high = report["wall_seconds_range"]
        print(
            f"  {plane:8s} {report['requests_total']} requests in "
            f"{report['wall_seconds']:.2f}s (median; {low:.2f}-{high:.2f}s) "
            f"-> {report['requests_per_sec']} "
            f"req/s, fused={tally['fused']} live={tally['live']} "
            f"heap_copies={report['heap_copies']} "
            f"checkpoint_restores={report['checkpoint_restores']} "
            f"settles={ {n: c['settles'] for n, c in report['restore_causes'].items()} } "
            f"record_counts={report.get('record_counts', '-')} "
            f"arrivals={report['arrivals']} "
            f"byte_identical={report['determinism']['byte_identical']} "
            f"replay_audit={report['replay_audit']['exact']}"
        )

    # The speedup is only meaningful over identical executions: the two
    # planes must have written byte-identical ledgers.
    ledger_identical = (
        ledgers["scalar"][0].read_bytes() == ledgers["batched"][0].read_bytes()
    )
    kept = ledgers["scalar"][0]
    for path in ledgers["scalar"][1:] + ledgers["batched"]:
        path.unlink()
    if keep_ledger:
        kept.rename(ledger_stem)
    else:
        kept.unlink()
    tally = planes["batched"]["decisions_total"]
    return {
        "error_rate": base["error_rate"],
        "planes": planes,
        "cross_plane": {"ledger_identical": ledger_identical},
        "speedup": round(
            planes["batched"]["requests_per_sec"]
            / planes["scalar"]["requests_per_sec"],
            2,
        ),
        "determinism": {
            "byte_identical": all(
                planes[p]["determinism"]["byte_identical"] for p in PLANES
            )
        },
        "replay_audit": {
            "exact": all(planes[p]["replay_audit"]["exact"] for p in PLANES)
        },
        # Exact, untimed: nothing ran live for a reason other than its
        # own footprint meeting a blocked byte or a fatal request ahead.
        "live_only_where_reached": tally["live"]
        <= tally["blocked"] + tally["diverged"] + tally["fatal_tail"],
        # Exact, untimed: the planes wrap and flush alike, and a flush
        # that follows a restore copies nothing.
        "epoch_boundaries_agree": all(
            planes["scalar"]["par_r"][name][key] == counts[key]
            for name, counts in planes["batched"]["par_r"].items()
            for key in ("epochs", "flushes")
        ),
        "serve_flushes_copy_nothing": all(
            counts["bytes_flushed"] == 0
            for plane in PLANES
            for counts in planes[plane]["par_r"].values()
        ),
        # Exact, untimed: at most one restore a quantum plus restarts
        # never exceeds one per wrap plus restarts.
        "restores_at_most_scalar": all(
            count <= planes["scalar"]["checkpoint_restores"][name]
            for name, count in planes["batched"]["checkpoint_restores"].items()
        ),
        # Exact, untimed: every batched restore is a settle, a restart
        # or a wrap taken while a byte is guarded — a clean tenant's
        # wraps are owed — and every settle follows a tick in which a
        # fault or a policy reached the tenant, or the session's end.
        "restores_explained": all(
            counts["checkpoint_restores"]
            <= counts["settles"] + counts["restarts"] + counts["guarded_wraps"]
            and counts["settles"] <= counts["touched_ticks"] + 1
            for counts in planes["batched"]["restore_causes"].values()
        ),
        # Exact, untimed: arrivals do not depend on the plane.
        "arrivals_agree": all(
            planes["scalar"]["arrivals"][key] == planes["batched"]["arrivals"][key]
            for key in ARRIVAL_COUNTS
        ),
    }


def session_failures(label: str, session: dict):
    """Names of the hard (untimed) gates a session report fails."""
    checks = (
        ("scalar and batched ledgers diverge",
         session["cross_plane"]["ledger_identical"]),
        ("a plane is not seed-deterministic",
         session["determinism"]["byte_identical"]),
        ("replay audit broken", session["replay_audit"]["exact"]),
        ("batched plane ran requests live that no fault reaches",
         session["live_only_where_reached"]),
        ("epochs or flushes differ across planes",
         session["epoch_boundaries_agree"]),
        ("a serve flush copied bytes", session["serve_flushes_copy_nothing"]),
        ("batched plane restored a checkpoint more often than scalar",
         session["restores_at_most_scalar"]),
        ("a batched restore or settle that no fault, repair, restart or "
         "guarded wrap explains", session["restores_explained"]),
        ("arrival counts differ across planes", session["arrivals_agree"]),
    )
    return [f"{label}: {text}" for text, ok in checks if not ok]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short session with the CI speedup gate",
    )
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_serve.json",
        help="report path (default: BENCH_serve.json at the repo root)",
    )
    parser.add_argument(
        "--ledger-out", type=Path, default=REPO_ROOT / "serve_ledger.jsonl",
        help="ledger path of the moderate-rate session's timed run",
    )
    arguments = parser.parse_args()

    mode = "smoke" if arguments.smoke else "full"
    base = SMOKE if arguments.smoke else FULL
    scale = SCALE[mode]
    load = LOAD[mode]

    sessions = {}
    rates = {"moderate": base["error_rate"], "faulty": FAULTY_ERROR_RATE}
    for label, rate in rates.items():
        print(
            f"serve bench ({mode}, {label}): {base['duration_ticks']} ticks @ "
            f"error rate {rate}/tick, seed {base['seed']}, "
            f"load x{load:g}, planes {', '.join(PLANES)}"
        )
        sessions[label] = bench_session(
            dict(base, error_rate=rate),
            arguments.ledger_out,
            label == "moderate",
            scale,
            load,
        )
        print(
            f"  cross-plane ledgers identical: "
            f"{sessions[label]['cross_plane']['ledger_identical']}; "
            f"speedup (batched/scalar): {sessions[label]['speedup']}x"
        )

    report = dict(sessions["moderate"])
    del report["error_rate"]
    report.update(
        mode=mode,
        config={
            "duration_ticks": base["duration_ticks"],
            "error_rate": base["error_rate"],
            "seed": base["seed"],
            "scale": scale,
            "load": load,
        },
        faulty=sessions["faulty"],
    )
    arguments.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"  report -> {arguments.out}")

    failures = [
        failure
        for label, session in sessions.items()
        for failure in session_failures(label, session)
    ]
    speedup = report["speedup"]
    if arguments.smoke and speedup < SMOKE_GATE_SPEEDUP:
        failures.append(
            f"{speedup}x below the {SMOKE_GATE_SPEEDUP}x smoke gate"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
