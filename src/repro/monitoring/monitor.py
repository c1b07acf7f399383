"""Access monitoring as views of one recorded replay (paper Algorithm 1b).

The paper attaches a debugger watchpoint to each sampled address and
logs ``(load-or-store, time)`` on every access. The production recorder,
:func:`repro.memory.trace.record_access_trace`, already logs every
access of a fault-free replay as an ordered byte span.
:func:`record_monitored` records it on the space's checked path, where
every logged access is exactly one clock tick, so event ``k`` happened
at logical time ``start + 1 + k`` (:func:`event_times`). Two analyses
read event times from that one log:

* :func:`monitor` — per sampled byte, the ``(time, is_store)`` stream of
  the events whose span covers it (safe ratios, Figure 5b);
* :func:`page_writes` — per page, the count and the first and last time
  of the stores that touch it (explicit recoverability, Table 5).

The masking estimate (:func:`repro.core.lightweight.estimate_masking`)
needs no event times, only ``trace.first_access``, so it records on the
space's own path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.apps.base import Workload
from repro.core.safe_ratio import AccessEvent
from repro.memory.regions import PAGE_SIZE
from repro.memory.trace import AccessTrace, record_access_trace
from repro.obs.events import SPAN_MONITOR
from repro.obs.trace import NULL_OBSERVER, Observer

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1


@dataclass
class MonitoringResult:
    """Event streams of the sampled bytes over one monitored replay."""

    start_time: int
    end_time: int
    traces: Dict[int, List[AccessEvent]] = field(default_factory=dict)
    region_of_addr: Dict[int, str] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        """Logical time covered by the session."""
        return self.end_time - self.start_time

    def addresses_in_region(self, region_name: str) -> List[int]:
        """Sampled addresses belonging to ``region_name``."""
        return [
            addr
            for addr, name in self.region_of_addr.items()
            if name == region_name
        ]

    def traces_for_region(self, region_name: str) -> Dict[int, List[AccessEvent]]:
        """Event streams restricted to one region's sampled addresses."""
        return {
            addr: self.traces[addr]
            for addr in self.addresses_in_region(region_name)
        }


def record_monitored(workload: Workload, queries: int) -> AccessTrace:
    """Record the first ``queries`` trace entries (at most the workload's
    query count) on the checked path (see above).

    The space returns to its own access path afterwards.

    Raises:
        RuntimeError: if the replay moved the clock other than one tick
            per logged access, which :func:`event_times` relies on.
    """
    space = workload.space
    fast = space.fast_path_enabled
    space.set_fast_path(False)
    try:
        trace = record_access_trace(workload, min(queries, workload.query_count))
    finally:
        space.set_fast_path(fast)
    if int(trace.clock[-1]) != trace.event_lo.size:
        raise RuntimeError(
            f"{trace.event_lo.size} accesses logged over {int(trace.clock[-1])} "
            "clock ticks; the monitored replay must tick once per access"
        )
    return trace


def event_times(trace: AccessTrace) -> np.ndarray:
    """Logical time of every event of a :func:`record_monitored` trace."""
    return np.arange(trace.end_time - trace.event_lo.size + 1, trace.end_time + 1)


def _expand(starts: np.ndarray, stops: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every value of the ranges ``[starts[i], stops[i])``, in range order,
    with the index ``i`` of the range it came from."""
    counts = stops - starts
    owner = np.repeat(np.arange(starts.size), counts)
    return owner, np.arange(owner.size) + (starts - np.cumsum(counts) + counts)[owner]


def monitor(
    workload: Workload,
    addresses: Sequence[int],
    queries: int,
    observer: Observer = NULL_OBSERVER,
) -> MonitoringResult:
    """Event streams of ``addresses`` over one :func:`record_monitored`
    replay of ``queries`` trace entries."""
    with observer.span(SPAN_MONITOR) as span:
        trace = record_monitored(workload, queries)
        watched = np.unique(np.asarray(addresses, dtype=np.int64))
        event, key = _expand(
            np.searchsorted(watched, trace.event_lo),
            np.searchsorted(watched, trace.event_hi),
        )
        order = np.argsort(key, kind="stable")
        event, key = event[order], key[order]
        times = event_times(trace)[event].tolist()
        stores = trace.event_write[event].tolist()
        bounds = np.searchsorted(key, np.arange(watched.size + 1)).tolist()
        result = MonitoringResult(
            start_time=trace.end_time - trace.event_lo.size, end_time=trace.end_time
        )
        for addr in dict.fromkeys(addresses):
            at = int(np.searchsorted(watched, addr))
            result.traces[addr] = [
                AccessEvent(addr, stores[k], times[k])
                for k in range(bounds[at], bounds[at + 1])
            ]
            region = workload.space.region_at(addr)
            result.region_of_addr[addr] = region.name if region else "?"
        span.set(
            watched=int(watched.size), events=int(event.size), duration_units=result.duration
        )
    return result


def page_writes(trace: AccessTrace) -> Dict[int, Dict[str, int]]:
    """``{page: {count, first_write, last_write}}`` over the stores of a
    :func:`record_monitored` trace; a store spanning pages counts on each."""
    stores = trace.event_write
    event, pages = _expand(
        trace.event_lo[stores] >> _PAGE_SHIFT,
        ((trace.event_hi[stores] - 1) >> _PAGE_SHIFT) + 1,
    )
    # Stable by page: each page's stores stay in time order.
    order = np.argsort(pages, kind="stable")
    pages, times = pages[order], event_times(trace)[stores][event][order]
    unique, first, count = np.unique(pages, return_index=True, return_counts=True)
    return {
        page: {"count": n, "first_write": first_write, "last_write": last_write}
        for page, n, first_write, last_write in zip(
            unique.tolist(),
            count.tolist(),
            times[first].tolist(),
            times[first + count - 1].tolist(),
        )
    }
