"""Structured telemetry events emitted by the observability layer.

Every quantity the campaign engine can report — span completions,
progress ticks, monitor sessions — is normalized into one flat,
picklable :class:`TraceEvent`. Flat events (rather than nested span
trees) are what lets parallel workers relay their telemetry to the
parent through the existing multiprocessing result pipe and lets the
JSONL sink stay append-only; hierarchy is recovered from the ``path`` /
``parent`` fields (see :mod:`repro.obs.report`).

Span paths are *deterministic*: they are derived from the campaign
grid identity (cell name, error label, trial index), never from wall
time, pids, or scheduling — so a serial run and an 8-worker run of the
same campaign produce the same set of span paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

#: Event kinds (the ``event`` column of the schema table in DESIGN.md).
KIND_SPAN = "span"
KIND_POINT = "point"

#: Span names, outermost first. ``campaign`` wraps the whole grid,
#: ``cell`` one (region × error type), ``trial`` one injection trial,
#: and ``injection`` / ``consume`` / ``verify`` the trial's three
#: phases (Algorithm 1a inject, client replay, outcome classification).
SPAN_CAMPAIGN = "campaign"
SPAN_CELL = "cell"
SPAN_TRIAL = "trial"
SPAN_INJECTION = "injection"
SPAN_CONSUME = "consume"
SPAN_VERIFY = "verify"
#: Span name for one :func:`~repro.monitoring.monitor` session.
SPAN_MONITOR = "monitor"
#: Span wrapping one design-space exploration (``repro.explore``), and
#: its phases (``matrix`` build, ``search``, ``simulate``).
SPAN_EXPLORE = "explore"
SPAN_EXPLORE_PHASE = "explore_phase"
#: Span wrapping one long-lived serve session (``repro serve``).
SPAN_SERVE = "serve"
#: Span wrapping one fleet simulation/optimization (``repro fleet``),
#: and its phases (``layout`` / ``grid`` build, ``simulate``, ``search``).
SPAN_FLEET = "fleet"
SPAN_FLEET_PHASE = "fleet_phase"
#: Point event emitted after every completed shard of campaign work.
POINT_PROGRESS = "progress"


@dataclass(frozen=True)
class TraceEvent:
    """One telemetry event (a completed span or an instantaneous point).

    Attributes:
        kind: ``"span"`` or ``"point"``.
        name: The span/point name (e.g. ``"trial"``).
        path: Deterministic hierarchical identity, e.g.
            ``"campaign/cell:heap|single-bit soft/trial:17"``.
        parent: Path of the enclosing span (``""`` at the root).
        ts: Wall-clock timestamp (``time.time()``) at emission.
        duration_seconds: Span duration; ``None`` for points.
        pid: Process that executed the work (worker pid in parallel runs).
        attrs: Name-specific payload (see the schema table in DESIGN.md).
    """

    kind: str
    name: str
    path: str
    parent: str
    ts: float
    duration_seconds: Optional[float]
    pid: int
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable form (one JSONL line per event)."""
        return {
            "event": self.kind,
            "name": self.name,
            "path": self.path,
            "parent": self.parent,
            "ts": self.ts,
            "duration_seconds": self.duration_seconds,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        """Inverse of :meth:`to_dict` (used by ``repro report``)."""
        return cls(
            kind=data["event"],
            name=data["name"],
            path=data["path"],
            parent=data["parent"],
            ts=data["ts"],
            duration_seconds=data["duration_seconds"],
            pid=data["pid"],
            attrs=dict(data.get("attrs", {})),
        )
