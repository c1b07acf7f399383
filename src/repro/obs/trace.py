"""Hierarchical tracing spans with a context-manager API.

:class:`Observer` is the single object threaded through the
injection/campaign/worker stack. It owns the configured sinks and the
optional metrics registry, tracks the current span stack, and emits
:class:`~repro.obs.events.TraceEvent` records when spans close::

    observer = Observer(sinks=[JsonlSink("trace.jsonl")])
    with observer.span(SPAN_TRIAL, key="17", attrs={"cell": "heap"}) as sp:
        ...  # do the work
        sp.set(outcome="crash")

Zero cost when disabled
-----------------------
``NULL_OBSERVER`` (no sinks, no metrics) is the default everywhere. Its
``span()`` returns a shared no-op context manager and ``point()``
returns immediately — no :class:`TraceEvent` (or any other per-call
object) is allocated on the hot path, so an untraced campaign pays only
a method call per would-be span.

Determinism
-----------
Span *paths* are derived purely from campaign-grid identity (see
:mod:`repro.obs.events`); tracing never draws from any RNG stream and
never reorders work, so a traced run's vulnerability profile is
byte-identical to an untraced run's. Wall times and pids are recorded
as observational attributes only.

Worker relay
------------
Parallel workers trace into an in-memory buffer rooted at their cell's
path (``root_path``); the buffered events ride back to the parent
inside :class:`~repro.exec.parallel.ShardResult` and are replayed into
the parent observer's sinks in canonical campaign order, so serial and
parallel runs produce equivalent traces (same span paths and counts).
"""

from __future__ import annotations

import os
import time
from typing import Iterable, List, Optional, Sequence

from repro.obs.events import KIND_POINT, KIND_SPAN, TraceEvent
from repro.obs.instruments import CampaignInstruments
from repro.obs.metrics import MetricsRegistry

__all__ = ["Observer", "Span", "NULL_OBSERVER"]


class _NoopSpan:
    """Shared do-nothing span returned by disabled observers."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs) -> None:
        """Ignore attributes (observer is disabled)."""


_NOOP_SPAN = _NoopSpan()


class Span:
    """One live span; emits a ``span`` event when the ``with`` block exits."""

    __slots__ = (
        "_observer", "name", "key", "attrs", "path", "parent",
        "_start_wall", "_start_perf",
    )

    def __init__(
        self,
        observer: "Observer",
        name: str,
        key: Optional[str],
        attrs: Optional[dict],
    ) -> None:
        self._observer = observer
        self.name = name
        self.key = key
        self.attrs = dict(attrs) if attrs else {}

    def set(self, **attrs) -> None:
        """Attach (or overwrite) outcome attributes before the span closes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        observer = self._observer
        self.parent = observer.current_path()
        base = f"{self.parent}/{self.name}" if self.parent else self.name
        self.path = f"{base}:{self.key}" if self.key is not None else base
        observer._stack.append(self.path)
        self._start_wall = time.time()
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start_perf
        observer = self._observer
        observer._stack.pop()
        if exc_type is not None:
            # Record the failure mode but let the exception propagate.
            self.attrs.setdefault("error", exc_type.__name__)
        observer.emit(
            TraceEvent(
                kind=KIND_SPAN,
                name=self.name,
                path=self.path,
                parent=self.parent,
                ts=self._start_wall,
                duration_seconds=duration,
                pid=os.getpid(),
                attrs=self.attrs,
            )
        )
        return False


class Observer:
    """Sinks + metrics + the current span stack (single-threaded)."""

    def __init__(
        self,
        sinks: Optional[Sequence] = None,
        metrics: Optional[MetricsRegistry] = None,
        root_path: str = "",
    ) -> None:
        self.sinks: List = list(sinks) if sinks else []
        self.metrics = metrics
        self.root_path = root_path
        self._stack: List[str] = []
        self._instruments: Optional[CampaignInstruments] = (
            CampaignInstruments(metrics) if metrics is not None else None
        )

    @property
    def enabled(self) -> bool:
        """Whether any sink or metrics registry is configured."""
        return bool(self.sinks) or self.metrics is not None

    @property
    def instruments(self) -> Optional[CampaignInstruments]:
        """The campaign instruments, when a metrics registry is attached.

        Exposed for directly-recorded aggregates (e.g. memory fast-path
        deltas folded at cell boundaries) that do not flow through the
        event stream.
        """
        return self._instruments

    def current_path(self) -> str:
        """Path of the innermost open span (or the relay root path)."""
        return self._stack[-1] if self._stack else self.root_path

    def span(
        self, name: str, key: Optional[str] = None, attrs: Optional[dict] = None
    ):
        """Open a child span of the current span (no-op when disabled)."""
        if not self.enabled:
            return _NOOP_SPAN
        return Span(self, name, key, attrs)

    def point(self, name: str, attrs: Optional[dict] = None) -> None:
        """Emit an instantaneous event under the current span."""
        if not self.enabled:
            return
        parent = self.current_path()
        path = f"{parent}/{name}" if parent else name
        self.emit(
            TraceEvent(
                kind=KIND_POINT,
                name=name,
                path=path,
                parent=parent,
                ts=time.time(),
                duration_seconds=None,
                pid=os.getpid(),
                attrs=dict(attrs) if attrs else {},
            )
        )

    def emit(self, event: TraceEvent) -> None:
        """Deliver one event to every sink and the metrics instruments."""
        self.replay((event,))

    def replay(self, events: Iterable[TraceEvent]) -> None:
        """Re-emit buffered events (parallel merge / planned cells).

        Sinks receive the events one by one in order, but the metrics
        instruments fold the whole batch at once
        (:meth:`CampaignInstruments.update_batch`) — one registry touch
        per aggregate instead of per trial, which is what keeps
        instrument overhead off the planned-cell hot path. The registry
        end-state is identical to emitting the events one by one.
        """
        events = list(events)
        for event in events:
            for sink in self.sinks:
                sink.write(event)
        if self._instruments is not None:
            self._instruments.update_batch(events)

    def close(self) -> None:
        """Close every sink that supports it."""
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


#: The default, disabled observer: safe to share (it never mutates).
NULL_OBSERVER = Observer()
