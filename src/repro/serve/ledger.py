"""Append-only event ledger for the HRM serving layer.

Every fault arrival, policy decision, software response, request batch,
and admission transition of a serve session lands here as one JSONL
line, in a canonical deterministic order (tick, then tenant name, then
per-tenant emission order). Events carry *virtual* time only — the tick
index and a per-session sequence number, never wall clock, pids, or
scheduler state — so a seeded session produces a byte-identical ledger
regardless of asyncio task interleaving.

The ledger is the system of record: per-tenant availability and SLO
numbers are *defined* as what :class:`LedgerReplay` folds from the
event stream. The fold is incremental (:meth:`LedgerReplay.add` takes
one event): a live session folds each event as it appends it,
:func:`replay_ledger` folds a file's events, and both build ``/status``
from it (:meth:`LedgerReplay.status`). The live
:class:`~repro.obs.instruments.ServeInstruments` gauges keep their own
count, an independent view that must agree exactly (enforced by
``tests/integration/test_serve_ledger.py``).
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Deque, Dict, List, Optional, Union

__all__ = [
    "LEDGER_VERSION",
    "EVENT_START",
    "EVENT_FAULT",
    "EVENT_POLICY",
    "EVENT_RESPONSE",
    "EVENT_REQUESTS",
    "EVENT_ADMISSION",
    "EVENT_SLO",
    "EVENT_STOP",
    "DISPOSITIONS",
    "LedgerEvent",
    "LedgerWriter",
    "TenantLedgerSummary",
    "LedgerReplay",
    "load_ledger",
    "replay_ledger",
]

#: Schema version stamped into the ``start`` event. Version 2 added the
#: ``slo`` config echo on ``serve_start`` and the ``slo_alert`` event.
LEDGER_VERSION = 2

#: Event kinds, in the order they can appear within one tick.
EVENT_START = "serve_start"
EVENT_FAULT = "fault"
EVENT_POLICY = "policy"
EVENT_RESPONSE = "response"
EVENT_REQUESTS = "requests"
EVENT_ADMISSION = "admission"
EVENT_SLO = "slo_alert"
EVENT_STOP = "serve_stop"

#: Request dispositions tracked per tenant. ``ok``/``incorrect``/
#: ``failed`` mirror the campaign client driver; ``shed`` is admission
#: control refusing the request; ``down`` is a request arriving during
#: restart downtime.
DISPOSITIONS = ("ok", "incorrect", "failed", "shed", "down")

# Software responses a fold keeps for ``/status``'s ``recent_actions``.
_RECENT_ACTIONS = 12

# The encoder json.dumps would build for these arguments on every call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class LedgerEvent:
    """One ledger line.

    Attributes:
        seq: Session-wide sequence number (0-based, gap-free).
        tick: Virtual time at emission (-1 for the start event).
        kind: One of the ``EVENT_*`` names.
        tenant: Owning tenant name (``""`` for session-level events).
        attrs: Kind-specific payload (JSON-serializable, sorted keys).
    """

    seq: int
    tick: int
    kind: str
    tenant: str
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        """Canonical single-line JSON form (sorted keys, no whitespace)."""
        return _ENCODER.encode(
            {
                "seq": self.seq,
                "tick": self.tick,
                "kind": self.kind,
                "tenant": self.tenant,
                "attrs": self.attrs,
            }
        )

    @classmethod
    def from_dict(cls, data: dict) -> "LedgerEvent":
        """Inverse of :meth:`to_json` (after ``json.loads``)."""
        return cls(
            seq=data["seq"],
            tick=data["tick"],
            kind=data["kind"],
            tenant=data["tenant"],
            attrs=dict(data.get("attrs", {})),
        )


class LedgerWriter:
    """Appends events with gap-free sequence numbers.

    Writes to ``path`` when given one (opened eagerly so unwritable
    paths fail before the session starts) and always retains the events
    in memory, so callers can audit a session without re-reading the
    file.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._file: Optional[IO[str]] = (
            self.path.open("w", encoding="utf-8") if self.path else None
        )
        self.events: List[LedgerEvent] = []

    def append(
        self, tick: int, kind: str, tenant: str = "", attrs: Optional[dict] = None
    ) -> LedgerEvent:
        """Append one event; assigns the next sequence number."""
        event = LedgerEvent(
            seq=len(self.events),
            tick=tick,
            kind=kind,
            tenant=tenant,
            attrs=dict(attrs or {}),
        )
        self.events.append(event)
        if self._file is not None:
            self._file.write(event.to_json() + "\n")
        return event

    def close(self) -> None:
        """Flush and close the backing file (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_ledger(path: Union[str, Path]) -> List[LedgerEvent]:
    """Read a JSONL ledger back into events.

    A last line with no terminating newline is a write in progress (the
    writer ends every event with one): it is dropped, so the prefix
    replays as an incomplete ledger.

    Raises:
        ValueError: on malformed lines or sequence-number gaps (a gap
            means the ledger was truncated or tampered with — the
            append-only audit property no longer holds).
    """
    events: List[LedgerEvent] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                events.append(LedgerEvent.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed ledger event: {exc}"
                ) from exc
    for position, event in enumerate(events):
        if event.seq != position:
            raise ValueError(
                f"{path}: sequence gap at position {position} "
                f"(event seq {event.seq}) — ledger is not append-complete"
            )
    return events


@dataclass
class TenantLedgerSummary:
    """Per-tenant accounting recomputed purely from ledger events."""

    requests: Dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in DISPOSITIONS}
    )
    faults: Dict[str, int] = field(default_factory=dict)
    responses: Dict[str, int] = field(default_factory=dict)
    restarts: int = 0
    pages_retired: int = 0
    down_ticks: int = 0
    shed_ticks: int = 0
    #: Admission state after the tenant's last ``admission`` event.
    shedding: bool = False
    #: First tick after the last restart's downtime (a ``response``
    #: event's ``downtime_ticks`` past its tick).
    down_until: int = 0

    @property
    def offered(self) -> int:
        """Requests that arrived at the tenant (every disposition)."""
        return sum(self.requests.values())

    @property
    def availability(self) -> float:
        """Fraction of offered requests answered correctly.

        Every non-``ok`` disposition counts against availability: wrong
        answers, failures, shed load, and downtime all mean the service
        did not do its job for that request.
        """
        offered = self.offered
        if offered == 0:
            return 1.0
        return self.requests["ok"] / offered

    @property
    def slo_fraction(self) -> float:
        """Fraction of ticks with no failed/shed/down requests."""
        if not self._ticks_seen:
            return 1.0
        return self._ticks_ok / self._ticks_seen

    # Internal tick bookkeeping (set by LedgerReplay.add).
    _ticks_seen: int = 0
    _ticks_ok: int = 0

    def to_dict(self) -> dict:
        """JSON-serializable summary (used by the stop event and CLI)."""
        return {
            "requests": dict(self.requests),
            "offered": self.offered,
            "availability": self.availability,
            "slo_fraction": self.slo_fraction,
            "faults": dict(self.faults),
            "responses": dict(self.responses),
            "restarts": self.restarts,
            "pages_retired": self.pages_retired,
            "down_ticks": self.down_ticks,
            "shed_ticks": self.shed_ticks,
        }


@dataclass
class LedgerReplay:
    """Incremental fold of a ledger: per-tenant summaries + session facts.

    :meth:`start` opens the fold on the ``serve_start`` event and
    :meth:`add` folds each later event in ledger order. The live session
    folds every event as it appends it, and :func:`replay_ledger` folds
    a finished event list: both are this one loop, so the numbers a
    session reports are the numbers its ledger replays to.
    """

    tenants: Dict[str, TenantLedgerSummary]
    config: Dict[str, object]
    ticks: int = 0
    stop_attrs: Dict[str, object] = field(default_factory=dict)
    #: Recorded SLO alert transitions ({"tick", "tenant", **attrs}), in
    #: ledger order. ``repro.obs.slo.audit_slo`` checks these against an
    #: offline recomputation from the ``requests`` events.
    slo_alerts: List[dict] = field(default_factory=list)
    #: The last twelve software responses ({"tick", "tenant",
    #: "action"}), oldest first.
    recent_actions: Deque[dict] = field(
        default_factory=lambda: deque(maxlen=_RECENT_ACTIONS), repr=False
    )
    _stop_tick: Optional[int] = field(default=None, repr=False)
    _gap_free: bool = field(default=True, repr=False)

    @classmethod
    def start(cls, event: LedgerEvent) -> "LedgerReplay":
        """Open a fold on ``serve_start`` (anything else: ValueError)."""
        if event.kind != EVENT_START:
            raise ValueError("ledger must begin with a serve_start event")
        config = dict(event.attrs)
        return cls(
            tenants={
                str(name): TenantLedgerSummary()
                for name in config.get("tenants", [])
            },
            config=config,
        )

    @property
    def complete(self) -> bool:
        """Whether the fold holds a whole session.

        A ``serve_stop`` at the tick the start event announced as
        ``duration_ticks``, and one ``requests`` event per tenant for
        every tick before it. False for a truncated file and for a
        session still running — both replay legally, to the numbers of
        the ticks they hold.
        """
        stop_tick = self._stop_tick
        return (
            stop_tick is not None
            and stop_tick == self.config.get("duration_ticks")
            and self._gap_free
            and all(s._ticks_seen == stop_tick for s in self.tenants.values())
        )

    def add(self, event: LedgerEvent) -> None:
        """Fold one event (every event after ``serve_start``, in order)."""
        summary = self.tenants.get(event.tenant)
        attrs = event.attrs
        if event.kind == EVENT_REQUESTS and summary is not None:
            # One per tenant per tick, so the n-th carries tick n.
            self._gap_free = (
                self._gap_free and event.tick == summary._ticks_seen
            )
            tick_bad = 0
            for name in DISPOSITIONS:
                count = int(attrs.get(name, 0))
                summary.requests[name] += count
                if name != "ok" and name != "incorrect":
                    tick_bad += count
            summary._ticks_seen += 1
            if tick_bad == 0:
                summary._ticks_ok += 1
            if int(attrs.get("down", 0)):
                summary.down_ticks += 1
            if int(attrs.get("shed", 0)):
                summary.shed_ticks += 1
        elif event.kind == EVENT_FAULT and summary is not None:
            kind = str(attrs.get("kind", "?"))
            summary.faults[kind] = summary.faults.get(kind, 0) + 1
        elif event.kind == EVENT_RESPONSE and summary is not None:
            action = str(attrs.get("action", "?"))
            summary.responses[action] = summary.responses.get(action, 0) + 1
            if action == "restart-rank":
                summary.restarts += 1
            summary.pages_retired += len(attrs.get("pages_retired", ()))
            downtime = int(attrs.get("downtime_ticks", 0))
            if downtime:
                summary.down_until = event.tick + downtime
            self.recent_actions.append(
                {"tick": event.tick, "tenant": event.tenant, "action": action}
            )
        elif event.kind == EVENT_ADMISSION and summary is not None:
            summary.shedding = bool(attrs.get("shedding", False))
        elif event.kind == EVENT_SLO:
            self.slo_alerts.append(
                {"tick": event.tick, "tenant": event.tenant, **attrs}
            )
        elif event.kind == EVENT_STOP:
            self.ticks = self._stop_tick = event.tick
            self.stop_attrs = dict(attrs)
        self.ticks = max(self.ticks, event.tick)

    def status(self, tick: int, slo) -> dict:
        """The ``/status`` payload as far as the ledger determines it.

        The one builder of the live endpoint and ``repro top <ledger>``;
        ``slo`` is the live or replayed ``repro.obs.slo.SloEngine``.
        Callers add what the ledger cannot say (see DESIGN.md, "One
        ``/status`` builder").
        """
        return {
            "tick": tick,
            "duration_ticks": self.config.get("duration_ticks", self.ticks),
            "complete": self.complete,
            "seed": self.config.get("seed"),
            "error_rate": self.config.get("error_rate"),
            "policy": self.config.get("policy", "auto"),
            "tenants": {
                name: {
                    "availability": summary.availability,
                    "requests": dict(summary.requests),
                    "offered": summary.offered,
                    "shedding": summary.shedding,
                    "down": tick < summary.down_until,
                    "responses": dict(summary.responses),
                    "faults": dict(summary.faults),
                    "availability_spark": slo.availability_history(name),
                    "slo_firing": slo.firing(name),
                }
                for name, summary in self.tenants.items()
            },
            "recent_actions": list(self.recent_actions),
        }

    def to_dict(self) -> dict:
        """JSON-serializable replay result."""
        return {
            "ticks": self.ticks,
            "complete": self.complete,
            "config": dict(self.config),
            "tenants": {
                name: summary.to_dict() for name, summary in self.tenants.items()
            },
            "slo_alerts": [dict(alert) for alert in self.slo_alerts],
        }


def replay_ledger(events: List[LedgerEvent]) -> LedgerReplay:
    """Recompute all per-tenant availability numbers from events alone.

    This is the auditable definition of the serving layer's SLO math:
    no live state is consulted, so anyone holding the ledger file can
    verify (or recompute) every number the session reported.

    Raises:
        ValueError: if the ledger does not start with ``serve_start``.
    """
    if not events:
        raise ValueError("ledger must begin with a serve_start event")
    replay = LedgerReplay.start(events[0])
    for event in events[1:]:
        replay.add(event)
    return replay
