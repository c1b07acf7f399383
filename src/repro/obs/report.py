"""Render saved traces and end-of-run summaries for humans.

Three consumers:

* ``repro report trace.jsonl`` — loads a JSONL trace written via
  ``--trace-out`` and renders the campaign: per-cell outcome table,
  totals, worker utilization, and injection-latency summary.
* ``repro report serve_ledger.jsonl`` — renders a replayed serve ledger
  (per-tenant availability, responses, SLO alert history) via
  :func:`render_serve_report`. Duck-typed over the replay object so
  this module stays independent of :mod:`repro.serve`.
* The ``characterize --metrics`` end-of-run summary table, read from
  the campaign instruments' registry series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.events import (
    KIND_SPAN,
    POINT_PROGRESS,
    SPAN_CAMPAIGN,
    SPAN_CELL,
    SPAN_FLEET,
    SPAN_INJECTION,
    SPAN_TRIAL,
    TraceEvent,
)
from repro.obs.instruments import CampaignInstruments
from repro.utils.stats import safe_div

__all__ = [
    "CellSummary",
    "TraceSummary",
    "summarize_trace",
    "render_trace_report",
    "render_fleet_draw_path",
    "render_run_summary",
    "render_serve_report",
]

#: Outcome values counted as masked (mirrors ErrorOutcome.is_masked;
#: kept as strings because traces are read back without the enum).
_MASKED_OUTCOMES = frozenset(
    {"masked_overwrite", "masked_never_accessed", "masked_logic"}
)


@dataclass
class CellSummary:
    """Per-(cell × error type) outcome tally recovered from a trace."""

    cell: str
    trials: int = 0
    outcome_counts: Dict[str, int] = field(default_factory=dict)

    def count(self, outcome: str) -> None:
        """Tally one trial outcome."""
        self.trials += 1
        self.outcome_counts[outcome] = self.outcome_counts.get(outcome, 0) + 1

    @property
    def crash_fraction(self) -> float:
        """Fraction of trials ending in a crash."""
        return safe_div(self.outcome_counts.get("crash", 0), self.trials)

    @property
    def incorrect_fraction(self) -> float:
        """Fraction of trials with incorrect (non-crash) behaviour."""
        return safe_div(self.outcome_counts.get("incorrect", 0), self.trials)

    @property
    def masked_fraction(self) -> float:
        """Fraction of trials in which the error was tolerated."""
        masked = sum(
            count
            for outcome, count in self.outcome_counts.items()
            if outcome in _MASKED_OUTCOMES
        )
        return safe_div(masked, self.trials)


@dataclass
class TraceSummary:
    """Everything ``repro report`` prints, recovered from raw events."""

    app: str = "?"
    events: int = 0
    trials: int = 0
    cells: Dict[str, CellSummary] = field(default_factory=dict)
    outcome_totals: Dict[str, int] = field(default_factory=dict)
    worker_pids: List[int] = field(default_factory=list)
    campaign_seconds: Optional[float] = None
    injection_count: int = 0
    injection_seconds_total: float = 0.0
    worker_busy_seconds: Dict[int, float] = field(default_factory=dict)
    #: Pruned backend: how the queries of executed trials were served
    #: (fused / live / blocked / ...), summed over the cell spans.
    query_decisions: Dict[str, int] = field(default_factory=dict)
    #: Attributes of every ``fleet`` simulate span: which rows its chunks
    #: drew (block totals or servers) and the clip guard behind it.
    fleet_simulations: List[Dict[str, object]] = field(default_factory=list)
    #: Attributes of every ``fleet`` optimize span: grid size, rows that
    #: went through the shortfall kernel, distinct blocks tabulated.
    fleet_optimizations: List[Dict[str, object]] = field(default_factory=list)

    @property
    def mean_injection_seconds(self) -> float:
        """Average injection latency across the trace."""
        return safe_div(self.injection_seconds_total, self.injection_count)


def summarize_trace(events: List[TraceEvent]) -> TraceSummary:
    """Aggregate a flat event list into a :class:`TraceSummary`."""
    summary = TraceSummary()
    pids = set()
    for event in events:
        summary.events += 1
        if event.kind == KIND_SPAN and event.name == SPAN_TRIAL:
            summary.trials += 1
            pids.add(event.pid)
            cell_key = str(event.attrs.get("cell", "?"))
            cell = summary.cells.get(cell_key)
            if cell is None:
                cell = summary.cells[cell_key] = CellSummary(cell=cell_key)
            outcome = str(event.attrs.get("outcome", "unknown"))
            cell.count(outcome)
            summary.outcome_totals[outcome] = (
                summary.outcome_totals.get(outcome, 0) + 1
            )
        elif event.kind == KIND_SPAN and event.name == SPAN_INJECTION:
            summary.injection_count += 1
            summary.injection_seconds_total += event.duration_seconds or 0.0
        elif event.kind == KIND_SPAN and event.name == SPAN_CELL:
            for decision, count in event.attrs.get("decisions", {}).items():
                summary.query_decisions[decision] = (
                    summary.query_decisions.get(decision, 0) + int(count)
                )
        elif event.kind == KIND_SPAN and event.name == SPAN_CAMPAIGN:
            summary.app = str(event.attrs.get("app", summary.app))
            summary.campaign_seconds = event.duration_seconds
        elif (
            event.kind == KIND_SPAN
            and event.name == SPAN_FLEET
            and "aggregated_chunks" in event.attrs
        ):
            summary.fleet_simulations.append(
                dict(event.attrs, seconds=event.duration_seconds)
            )
        elif (
            event.kind == KIND_SPAN
            and event.name == SPAN_FLEET
            and "scored" in event.attrs
        ):
            summary.fleet_optimizations.append(dict(event.attrs))
        elif event.name == POINT_PROGRESS:
            pid = int(event.attrs.get("worker_pid", event.pid))
            summary.worker_busy_seconds[pid] = summary.worker_busy_seconds.get(
                pid, 0.0
            ) + float(event.attrs.get("shard_seconds", 0.0))
    summary.worker_pids = sorted(pids)
    return summary


def render_trace_report(summary: TraceSummary) -> str:
    """Human-readable report of one saved trace."""
    lines = [
        f"campaign: {summary.app}",
        f"events: {summary.events}  trial spans: {summary.trials}  "
        f"workers: {len(summary.worker_pids) or 1}",
    ]
    if summary.campaign_seconds is not None:
        lines.append(f"campaign wall time: {summary.campaign_seconds:.2f}s")
    if summary.injection_count:
        lines.append(
            f"injections: {summary.injection_count} "
            f"(mean latency {summary.mean_injection_seconds * 1e6:.1f}us)"
        )
    lines.append("")
    lines.append(
        f"{'cell':<32} {'trials':>6} {'crash':>7} {'incorrect':>10} {'masked':>8}"
    )
    for key in sorted(summary.cells):
        cell = summary.cells[key]
        lines.append(
            f"{key:<32} {cell.trials:>6} {cell.crash_fraction:>6.1%} "
            f"{cell.incorrect_fraction:>9.1%} {cell.masked_fraction:>7.1%}"
        )
    if summary.outcome_totals:
        lines.append("")
        lines.append("outcome taxonomy totals:")
        for outcome in sorted(summary.outcome_totals):
            lines.append(f"  {outcome:<24} {summary.outcome_totals[outcome]}")
    if any(summary.query_decisions.values()):
        lines.append("")
        lines.append("queries of executed trials (pruned backend):")
        for decision, count in summary.query_decisions.items():
            lines.append(f"  {decision:<24} {count}")
    if summary.fleet_simulations:
        lines.append("")
        lines.append("fleet simulations (chunks by draw path):")
        for run in summary.fleet_simulations:
            lines.append(
                f"  {run['servers']} servers x {run['months']} months "
                f"({run['backend']}): {render_fleet_draw_path(run)}"
            )
    if summary.fleet_optimizations:
        lines.append("")
        for run in summary.fleet_optimizations:
            lines.append(
                f"fleet optimizer: scored {run['scored']} of "
                f"{run['evaluated']} compositions "
                f"({run['distinct_blocks']} distinct blocks)"
            )
    if summary.worker_busy_seconds:
        lines.append("")
        lines.append("worker busy time:")
        for pid in sorted(summary.worker_busy_seconds):
            lines.append(
                f"  worker {pid}: {summary.worker_busy_seconds[pid]:.2f}s"
            )
    return "\n".join(lines)


def render_fleet_draw_path(attrs) -> str:
    """Which rows a fleet simulation's chunks drew and the clip guard
    behind it, from the attributes of its ``fleet`` simulate span."""
    bound = attrs["clip_log10_bound"]
    return (
        f"{attrs['aggregated_chunks']} aggregated + "
        f"{attrs['per_server_chunks']} per-server chunks, P(clip binds) <= "
        + ("0" if bound is None else f"10^{bound:.1f}")
    )


def render_serve_report(replay) -> str:
    """Human-readable report of one replayed serve ledger.

    ``replay`` is duck-typed (``repro.serve.ledger.LedgerReplay``):
    ``ticks``, ``config``, ``tenants`` (name → summary with
    ``availability`` / ``requests`` / ``responses`` / ``slo_fraction``),
    ``slo_alerts`` and ``complete``.
    """
    config = getattr(replay, "config", {})
    partial = "" if getattr(replay, "complete", True) else "INCOMPLETE LEDGER, "
    lines = [
        f"serve session: {partial}{replay.ticks} ticks, "
        f"seed {config.get('seed', '?')}, "
        f"error rate {config.get('error_rate', '?')}/tick, "
        f"policy {config.get('policy', 'auto')}",
        "",
        f"{'tenant':<12} {'avail':>8} {'slo':>7} {'ok':>7} {'bad':>5} "
        f"{'fail':>5} {'shed':>5} {'down':>5} {'responses':>10}",
    ]
    for name in sorted(replay.tenants):
        summary = replay.tenants[name]
        requests = summary.requests
        lines.append(
            f"{name:<12} {summary.availability:>7.2%} "
            f"{summary.slo_fraction:>6.1%} {requests['ok']:>7} "
            f"{requests['incorrect']:>5} {requests['failed']:>5} "
            f"{requests['shed']:>5} {requests['down']:>5} "
            f"{sum(summary.responses.values()):>10}"
        )
    alerts = getattr(replay, "slo_alerts", [])
    lines.append("")
    lines.append(f"slo alert transitions: {len(alerts)}")
    for alert in alerts:
        lines.append(
            f"  tick {alert.get('tick'):>4}  "
            f"{alert.get('tenant', ''):<12} "
            f"{alert.get('rule', '?'):<6} -> {alert.get('state', '?'):<8} "
            f"(burn short {float(alert.get('burn_short', 0.0)):.2f} / "
            f"long {float(alert.get('burn_long', 0.0)):.2f}, "
            f"threshold {float(alert.get('threshold', 0.0)):g})"
        )
    return "\n".join(lines)


def render_run_summary(instruments: CampaignInstruments) -> str:
    """End-of-run summary table of a campaign's registry series.

    Totals come from the ``campaign_*`` gauges, per-worker rows from the
    ``worker_*{pid}`` series; idle is the final elapsed time minus the
    worker's busy time.
    """
    elapsed = instruments.elapsed.labels().value
    done = int(instruments.trials_done.labels().value)
    pids = sorted(
        (key[0] for key, _ in instruments.worker_shards.children()), key=int
    )
    lines = [
        f"{done}/{int(instruments.trials_budget.labels().value)} trials in "
        f"{elapsed:.1f}s "
        f"({safe_div(done, elapsed):.1f} trials/sec, "
        f"{len(pids)} workers)"
    ]
    for pid in pids:
        shards = int(instruments.worker_shards.labels(pid=pid).value)
        trials = int(instruments.worker_trials.labels(pid=pid).value)
        busy = instruments.worker_busy.labels(pid=pid).value
        lines.append(
            f"  worker {pid}: {shards} shards, {trials} trials, "
            f"{busy:.1f}s busy, {max(0.0, elapsed - busy):.1f}s idle"
        )
    return "\n".join(lines)
