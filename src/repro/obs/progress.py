"""Progress and throughput metrics for characterization campaigns.

The campaign engine (serial and parallel) accepts a ``progress``
callback invoked after every completed shard with a
:class:`ProgressEvent`. :class:`CampaignMetrics` is a ready-made hook
that aggregates the events into campaign-level throughput (trials
completed, trials/sec) and a per-worker timing breakdown — the
simulation-side analogue of watching the paper's 40-server cluster chew
through its two-month injection schedule.

Since the observability layer landed, both are thin consumers of the
same shard-completion signal that feeds the structured event stream:
:func:`emit_progress` fans one completed shard out to the legacy
callback *and*, as a ``progress`` point event, to an
:class:`~repro.obs.trace.Observer` (trace sinks + metrics registry).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.events import POINT_PROGRESS
from repro.utils.stats import safe_div

__all__ = [
    "ProgressEvent",
    "WorkerTiming",
    "CampaignMetrics",
    "ProgressClock",
    "emit_progress",
]


@dataclass(frozen=True)
class ProgressEvent:
    """One completed shard of campaign work."""

    trials_done: int
    trials_total: int
    elapsed_seconds: float
    worker_pid: int
    shard_trials: int
    shard_seconds: float
    cell_name: str
    error_label: str

    @property
    def trials_per_second(self) -> float:
        """Campaign-level throughput so far."""
        return safe_div(self.trials_done, self.elapsed_seconds)

    @property
    def fraction_done(self) -> float:
        """Completed fraction of the trial budget, in [0, 1]."""
        return safe_div(self.trials_done, self.trials_total, default=1.0)

    def to_dict(self) -> dict:
        """Plain-dict form (the ``progress`` point-event payload)."""
        return {
            "trials_done": self.trials_done,
            "trials_total": self.trials_total,
            "elapsed_seconds": self.elapsed_seconds,
            "worker_pid": self.worker_pid,
            "shard_trials": self.shard_trials,
            "shard_seconds": self.shard_seconds,
            "cell_name": self.cell_name,
            "error_label": self.error_label,
        }


@dataclass
class WorkerTiming:
    """Per-worker accounting of shards, trials, and busy time."""

    shards: int = 0
    trials: int = 0
    busy_seconds: float = 0.0


@dataclass
class CampaignMetrics:
    """A progress hook that aggregates :class:`ProgressEvent` streams.

    Usable directly as the ``progress=`` argument of
    :meth:`repro.core.campaign.CharacterizationCampaign.run`::

        metrics = CampaignMetrics()
        campaign.run(workers=4, progress=metrics)
        print(metrics.trials_per_second, metrics.per_worker)
    """

    trials_total: int = 0
    trials_done: int = 0
    elapsed_seconds: float = 0.0
    per_worker: Dict[int, WorkerTiming] = field(default_factory=dict)
    events: List[ProgressEvent] = field(default_factory=list)

    def __call__(self, event: ProgressEvent) -> None:
        """Fold one shard-completion event into the aggregate."""
        self.trials_total = event.trials_total
        self.trials_done = event.trials_done
        self.elapsed_seconds = event.elapsed_seconds
        timing = self.per_worker.setdefault(event.worker_pid, WorkerTiming())
        timing.shards += 1
        timing.trials += event.shard_trials
        timing.busy_seconds += event.shard_seconds
        self.events.append(event)

    @property
    def trials_per_second(self) -> float:
        """Aggregate campaign throughput."""
        return safe_div(self.trials_done, self.elapsed_seconds)

    @property
    def worker_count(self) -> int:
        """Distinct workers that completed at least one shard."""
        return len(self.per_worker)

    def snapshot(self) -> dict:
        """Plain-dict summary (for logging / JSON reports)."""
        return {
            "trials_total": self.trials_total,
            "trials_done": self.trials_done,
            "elapsed_seconds": self.elapsed_seconds,
            "trials_per_second": self.trials_per_second,
            "workers": {
                str(pid): {
                    "shards": timing.shards,
                    "trials": timing.trials,
                    "busy_seconds": timing.busy_seconds,
                }
                for pid, timing in sorted(self.per_worker.items())
            },
        }

    def to_dict(self) -> dict:
        """Alias of :meth:`snapshot` (the ``--metrics-out`` payload)."""
        return self.snapshot()


class ProgressClock:
    """Monotonic stopwatch shared by the serial and parallel engines."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self._start


def emit_progress(
    progress: Optional[object],
    clock: ProgressClock,
    trials_done: int,
    trials_total: int,
    worker_pid: int,
    shard_trials: int,
    shard_seconds: float,
    cell_name: str,
    error_label: str,
    observer: Optional[object] = None,
) -> None:
    """Fan one completed shard out to the progress hook and observer.

    Hook errors propagate. ``observer`` receives the same payload as a
    ``progress`` point event (no-op for disabled observers).
    """
    observing = observer is not None and observer.enabled
    if progress is None and not observing:
        return
    event = ProgressEvent(
        trials_done=trials_done,
        trials_total=trials_total,
        elapsed_seconds=clock.elapsed(),
        worker_pid=worker_pid,
        shard_trials=shard_trials,
        shard_seconds=shard_seconds,
        cell_name=cell_name,
        error_label=error_label,
    )
    if progress is not None:
        progress(event)
    if observing:
        observer.point(POINT_PROGRESS, attrs=event.to_dict())
