"""``repro top``: a refreshing terminal dashboard for the serving layer.

Renders the same per-tenant snapshot the ``/status`` endpoint serves —
tenant table with availability, latency quantiles, backlog and
admission state, an availability sparkline, SLO burn-rate gauges, and
the most recent policy actions — against either source:

* a **live endpoint** (``repro top http://127.0.0.1:9100``): scrapes
  ``/status`` and ``/slo`` each frame;
* a **ledger file** (``repro top serve_ledger.jsonl``): replays the
  ledger offline and builds ``/status`` with the live session's own
  builder (``repro.serve.ledger.LedgerReplay.status``), so every key
  the ledger determines reads as the live endpoint's final snapshot;
  only the live-only keys (latency, backlog, retirement budget) are
  absent. A ledger whose last line is cut mid-write renders as
  running; a malformed one is a one-line error (exit 2).

Rendering is a pure function of the snapshot dicts (``render_top``), so
tests exercise it without a terminal. This module imports
:mod:`repro.serve` for the offline replay path and is therefore *not*
re-exported from :mod:`repro.obs` (which the serve layer imports).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import List, Optional, Tuple

from repro.obs.slo import slo_from_ledger
from repro.serve.ledger import load_ledger, replay_ledger

__all__ = [
    "fetch_live",
    "render_top",
    "run_top",
    "snapshot_from_ledger",
    "sparkline",
]

#: Eight-level block characters for the availability sparkline.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"
_GAUGE_WIDTH = 12


def sparkline(values: List[float], width: int = 16) -> str:
    """Render ``values`` in [0, 1] as a block-character sparkline.

    The most recent ``width`` values are kept; an empty history renders
    as an empty string.
    """
    tail = values[-width:]
    out = []
    for value in tail:
        clamped = min(1.0, max(0.0, value))
        out.append(_SPARK_BLOCKS[int(clamped * (len(_SPARK_BLOCKS) - 1))])
    return "".join(out)


def _burn_gauge(burn: float, threshold: float) -> str:
    """A fixed-width bar of burn rate against its alert threshold."""
    if threshold <= 0:
        return " " * _GAUGE_WIDTH
    filled = int(min(1.0, burn / threshold) * _GAUGE_WIDTH)
    return "#" * filled + "-" * (_GAUGE_WIDTH - filled)


# ----------------------------------------------------------------------
# Data sources
# ----------------------------------------------------------------------
def fetch_live(base_url: str, timeout: float = 5.0) -> Tuple[dict, dict]:
    """Scrape ``/status`` and ``/slo`` from a live endpoint."""
    base = base_url.rstrip("/")

    def get(path: str) -> dict:
        with urllib.request.urlopen(base + path, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))

    return get("/status"), get("/slo")


def snapshot_from_ledger(path: Path) -> Tuple[dict, dict]:
    """Synthesize (/status, /slo)-shaped payloads from a ledger file.

    Replays the ledger and its SLO state offline and builds ``/status``
    with the live session's builder (``LedgerReplay.status``), adding
    only what the stop event records: per-tenant epochs and resident
    faults, and the retired capacity fraction. Latency quantiles, backlog
    depths and the retirement budget never reach the ledger, so those
    keys are absent. ``complete`` is the replay's: a truncated ledger,
    or one still being written, renders as running.

    Raises:
        ValueError: on a malformed ledger (see ``load_ledger``).
    """
    events = load_ledger(path)
    replay = replay_ledger(events)
    engine = slo_from_ledger(events).engine
    status = replay.status(replay.ticks, engine)
    stop = replay.stop_attrs
    for key in ("epochs", "resident_faults"):
        for name, value in stop.get(key, {}).items():
            status["tenants"][name][key] = value
    if "retired_capacity_fraction" in stop:
        status["retirement"] = {
            "retired_capacity_fraction": stop["retired_capacity_fraction"]
        }
    return status, engine.to_dict()


# ----------------------------------------------------------------------
# Rendering (pure)
# ----------------------------------------------------------------------
def render_top(status: dict, slo: Optional[dict], source: str) -> str:
    """Render one dashboard frame from snapshot payloads."""
    lines: List[str] = []
    tick = status.get("tick", 0)
    duration = status.get("duration_ticks", 0)
    state = "complete" if status.get("complete") else "running"
    lines.append(
        f"repro top — {source}  "
        f"[tick {tick}/{duration}, {state}]  "
        f"seed={status.get('seed')}  "
        f"error_rate={status.get('error_rate')}  "
        f"policy={status.get('policy')}"
    )
    retirement = status.get("retirement", {})
    if retirement:
        parts = []
        if "retired_pages" in retirement:
            parts.append(
                f"retired pages {retirement['retired_pages']}"
                f"/{retirement.get('max_retired_pages', '?')}"
            )
        fraction = retirement.get("retired_capacity_fraction")
        if fraction is not None:
            parts.append(f"capacity retired {fraction:.4%}")
        lines.append("retirement: " + ", ".join(parts))
    lines.append("")

    tenants = status.get("tenants", {})
    lines.append(
        f"{'tenant':<12} {'avail':>8} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'backlog':>7} {'flags':<10} {'offered':>8}  trend"
    )
    for name in sorted(tenants):
        tenant = tenants[name]
        latency = tenant.get("latency") or {}
        p50 = latency.get("p50")
        p99 = latency.get("p99")
        flags = []
        if tenant.get("down"):
            flags.append("DOWN")
        if tenant.get("shedding"):
            flags.append("SHED")
        if tenant.get("slo_firing"):
            flags.append("SLO!")
        spark = sparkline(tenant.get("availability_spark", []))
        lines.append(
            f"{name:<12} {tenant.get('availability', 1.0):>7.2%} "
            f"{_ms(p50):>8} {_ms(p99):>8} "
            f"{tenant.get('backlog', 0):>7} "
            f"{'+'.join(flags) or '-':<10} "
            f"{tenant.get('offered', 0):>8}  {spark}"
        )
    lines.append("")

    if slo:
        target = slo.get("target")
        lines.append(
            f"SLO target {target:.2%}  (burn = bad fraction / error budget)"
            if isinstance(target, float)
            else "SLO"
        )
        slo_tenants = slo.get("tenants", {})
        for name in sorted(slo_tenants):
            for rule_name in sorted(slo_tenants[name]):
                rule = slo_tenants[name][rule_name]
                burn_short = float(rule.get("burn_short", 0.0))
                threshold = float(rule.get("threshold", 1.0))
                gauge = _burn_gauge(burn_short, threshold)
                marker = "FIRING" if rule.get("state") == "firing" else "ok"
                lines.append(
                    f"  {name:<12} {rule_name:<6} [{gauge}] "
                    f"short {burn_short:>6.2f} "
                    f"long {float(rule.get('burn_long', 0.0)):>6.2f} "
                    f"/ {threshold:g}  {marker}"
                )
        lines.append("")

    recent = status.get("recent_actions", [])
    if recent:
        lines.append("recent actions:")
        for action in recent[-8:]:
            lines.append(
                f"  tick {action.get('tick'):>4}  "
                f"{action.get('tenant', ''):<12} {action.get('action', '')}"
            )
    return "\n".join(lines) + "\n"


def _ms(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    return f"{seconds * 1e3:.2f}"


# ----------------------------------------------------------------------
# Driver loop
# ----------------------------------------------------------------------
def run_top(
    target: str,
    refresh: float = 1.0,
    frames: Optional[int] = None,
    once: bool = False,
    clear: bool = True,
    out=None,
) -> int:
    """Drive the dashboard until interrupted (or for ``frames`` frames).

    ``target`` is an ``http(s)://`` base URL or a ledger-file path.
    Returns a process exit code; a ledger source always renders exactly
    one frame (the replay is final).
    """
    import sys

    stream = out if out is not None else sys.stdout
    is_url = target.startswith(("http://", "https://"))
    if not is_url:
        path = Path(target)
        if not path.is_file():
            print(f"repro top: no such file: {target}", file=sys.stderr)
            return 2
        try:
            status, slo = snapshot_from_ledger(path)
        except ValueError as exc:
            print(f"repro top: {exc}", file=sys.stderr)
            return 2
        stream.write(render_top(status, slo, source=str(path)))
        if not status["complete"]:
            print(
                f"repro top: {target}: ledger is incomplete (truncated, or "
                f"its session is still running): totals cover "
                f"{status['tick']} of {status['duration_ticks']} ticks",
                file=sys.stderr,
            )
        return 0

    rendered = 0
    while True:
        try:
            status, slo = fetch_live(target)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"repro top: {target}: {exc}", file=sys.stderr)
            return 1
        frame = render_top(status, slo, source=target)
        if clear:
            stream.write("\x1b[2J\x1b[H")
        stream.write(frame)
        if hasattr(stream, "flush"):
            stream.flush()
        rendered += 1
        if once or (frames is not None and rendered >= frames):
            return 0
        if status.get("complete"):
            return 0
        time.sleep(refresh)
