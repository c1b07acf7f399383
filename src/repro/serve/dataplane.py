"""Serve data planes: scalar request loop vs fused trace replay.

The scalar plane is the original `ServeTenant.serve_requests` loop: one
Python-level `execute` per request, every access walking the memory
model. The batched plane exploits the same insight as the offline
fast path (delaying error reporting, arXiv:1810.06472): a fault matters
only to the accesses that reach it. It records one
:class:`~repro.memory.trace.AccessTrace` per tenant at construction —
the trace the campaign's pruned backend records, over the tenant's
whole query trace — and hands it to the shared fusion core,
:class:`~repro.memory.trace.TraceReplay`, which serves request runs
without executing them: every request ``ok``, the recorded write image
scattered into memory, the exact recorded clock/counter deltas charged,
the recorded progress state restored.

Admission to a fused run requires proof, not hope (the induction is in
:mod:`repro.memory.trace`): Python-side progress equals the recorded
state at this cursor (memory comparison cannot see a heap ``free``); the
request is not *blocked* — one rule: a tracked byte blocks every query
whose recorded footprint touches it, a stuck-at overlay that is silent
on the current stored byte included; and it is not *diverged* — none of its
*exposed reads* (recorded bytes whose first access inside the request
is a load) holds a byte that differs from the rolling golden image.
Diverged bytes the request stores to first do not matter: the fused run
heals them.

A quantum is cut into maximal clean runs around the blocked requests:
each clean run is fused, each maximal blocked stretch executes through
the tenant's live scalar loop, and the proofs are taken again before
the next run. This module keeps the tenant mechanics around that core:
the epoch wrap, ``needs_restart`` (a fatal request fails the rest of the
quantum exactly as the scalar loop does), latency sinks and
``decisions``. A fused request is only admitted in a state where scalar
execution would provably produce the golden response, advance the same
cursor, and wrap the same epoch — which is why seeded sessions write
byte-identical ledgers under either plane.

A clean quantum is one step (DESIGN.md, "Epoch boundaries"): at most
one checkpoint restore, at most one write-image scatter, and accounting.

* *Whole epochs.* From a pristine state at cursor 0 (no tracked byte,
  golden progress, memory at the checkpoint) ``N`` whole epochs charge
  ``N`` times the trace's counters in one call and close with one wrap.
  The plane serves them without touching memory, so once one real reset
  has run — the wrap just before them in this quantum, or else the first
  epoch's own — each other closing reset would restore exactly what is
  there and is its accounting alone
  (:meth:`~repro.serve.tenants.ServeTenant.fused_epochs`). The clock is
  not charged: every reset sets it to the checkpoint's.
* *No scatter before a wrap.* A fused run that reaches the trace end
  while the quantum still has requests only charges its counters
  (:meth:`~repro.memory.trace.TraceReplay.charge_run`). Proof: the loop
  wraps next, before any other step. The wrap restores every page
  dirtied since the checkpoint, which covers every byte the run's write
  image or heal would have set, and the reset hook replaces the
  progress state the run would have adopted. It re-injects the
  resident faults with their recorded stuck values, so it reads no
  stored bit. It stamps fault-log times from the clock it has just
  reset. It flushes only pages dirtied since the restore, and there are
  none. So no stored byte, image byte or progress state the run skipped
  is ever read. A run that ends the quantum on the trace end still
  scatters: faults arrive and policies run at the tick boundary, before
  the wrap, and ``apply_fault`` reads the stored bit.
* *Memoized plans.* :class:`~repro.memory.trace.TraceReplay` keeps each
  ``(start, end)`` run's write image, pages and counter deltas, so a
  fused run costs two indexed stores and one ``charge_recorded``.

Both planes count, per tenant, how each request was served
(:data:`DECISIONS`); the counts are deterministic for a seed and never
reach the ledger.
"""

from __future__ import annotations

import difflib
import time
from typing import Dict, Sequence, Tuple

from repro.memory.trace import (
    DECISIONS,
    TraceReplay,
    record_access_trace,
    tally_reasons,
)
from repro.serve.tenants import ServeCounts, ServeTenant

__all__ = [
    "DATA_PLANES",
    "DECISIONS",
    "UnknownDataPlaneError",
    "make_data_plane",
    "ScalarDataPlane",
    "BatchedDataPlane",
]

#: Valid ``--data-plane`` names: ``auto`` is :class:`BatchedDataPlane`
#: (which serves a tenant whose space is off the memory fast path
#: through the scalar loop), ``scalar`` the oracle it is pinned to.
DATA_PLANES: Tuple[str, ...] = ("auto", "scalar")


class UnknownDataPlaneError(ValueError):
    """Raised for a data-plane name outside :data:`DATA_PLANES`."""

    def __init__(self, name: object) -> None:
        message = (
            f"unknown serve data plane {name!r}; "
            f"valid planes: {', '.join(DATA_PLANES)}"
        )
        close = difflib.get_close_matches(
            str(name), DATA_PLANES, n=1, cutoff=0.5
        )
        if close:
            message += f" (did you mean {close[0]!r}?)"
        super().__init__(message)
        self.name = name


def make_data_plane(name: str, tenants: Sequence[ServeTenant]):
    """Build the requested data plane over ``tenants``.

    Tenants must be built and pristine (at their checkpoint, as
    ``serve_session`` leaves them before the first tick) — the batched
    plane records its golden traces here.
    """
    if name not in DATA_PLANES:
        raise UnknownDataPlaneError(name)
    if name == "scalar":
        return ScalarDataPlane(tenants)
    return BatchedDataPlane(tenants)


def _new_decisions(tenants: Sequence[ServeTenant]) -> Dict[str, Dict[str, int]]:
    return {tenant.name: dict.fromkeys(DECISIONS, 0) for tenant in tenants}


class ScalarDataPlane:
    """The original per-request Python loop, unchanged."""

    name = "scalar"

    def __init__(self, tenants: Sequence[ServeTenant]) -> None:
        self.decisions = _new_decisions(tenants)

    def serve_requests(self, tenant: ServeTenant, count: int) -> ServeCounts:
        """Delegate straight to the tenant's scalar loop."""
        self.decisions[tenant.name]["live"] += max(count, 0)
        return tenant.serve_requests(count)


class BatchedDataPlane:
    """Fused trace replay, live only where a fault can reach."""

    name = "batched"

    def __init__(self, tenants: Sequence[ServeTenant]) -> None:
        self.decisions = _new_decisions(tenants)
        self._replays: Dict[str, TraceReplay] = {}
        # Tenant generation each replay's golden image is rolled from.
        self._generations: Dict[str, int] = {}
        for tenant in tenants:
            workload = tenant.workload
            # Without the fast path there is no dirty-page tracking to
            # confine the divergence check: that tenant serves scalar.
            if workload.space.fast_path_enabled:
                trace = record_access_trace(
                    workload, workload.query_count, golden=tenant.golden_responses
                )
                self._replays[tenant.name] = TraceReplay(trace, workload)
                self._generations[tenant.name] = tenant.generation

    # ------------------------------------------------------------------
    def serve_requests(self, tenant: ServeTenant, count: int) -> ServeCounts:
        """Serve a quantum: fused clean runs around live blocked stretches."""
        replay = self._replays.get(tenant.name)
        tally = self.decisions[tenant.name]
        if replay is None or count <= 0:
            tally["live"] += max(count, 0)
            return tenant.serve_requests(count)
        trace = replay.trace
        counts = ServeCounts()
        remaining = count
        fused = 0
        timed = tenant.latency_sink is not None
        while remaining:
            # The one reset of a clean quantum: nothing runs between it
            # and the checks below.
            wrapped = tenant.cursor >= trace.query_count
            if wrapped:
                tenant.wrap_epoch()
            if self._generations[tenant.name] != tenant.generation:
                # A restart or epoch wrap restored the checkpoint.
                replay.rewind()
                self._generations[tenant.name] = tenant.generation
            started = time.perf_counter() if timed else 0.0
            cursor = tenant.cursor
            if cursor == 0 and remaining > trace.query_count and replay.pristine():
                # Whole epochs whose closing wrap also falls inside the
                # quantum: the scalar loop wraps only when a request follows.
                epochs = (remaining - 1) // trace.query_count
                clean = epochs * trace.query_count
                replay.charge_epochs(epochs)
                if not wrapped:
                    # Faults, repairs or a restart may have touched the
                    # tenant since its last reset: the first epoch
                    # closes with a real one.
                    tenant.fused_advance(trace.query_count)
                    tenant.wrap_epoch()
                    epochs -= 1
                tenant.fused_epochs(epochs)
                fused += clean
                remaining -= clean
                if timed:
                    self._report_latency(
                        tenant, time.perf_counter() - started, clean
                    )
                continue
            clean, reasons = replay.next_runs(
                cursor, min(remaining, trace.query_count - cursor)
            )
            if clean:
                if cursor + clean == trace.query_count and clean < remaining:
                    # The wrap comes next, in this quantum, and restores
                    # every byte and the progress the run would set.
                    replay.charge_run(cursor, clean)
                else:
                    replay.apply_run(cursor, clean)
                tenant.fused_advance(clean)
                fused += clean
                remaining -= clean
                if timed:
                    self._report_latency(
                        tenant, time.perf_counter() - started, clean
                    )
            if not reasons.size:
                continue
            cursor = tenant.cursor
            remaining -= reasons.size
            live = tenant.serve_requests(reasons.size)
            replay.progress_dirty = True
            for key, value in live.items():
                counts[key] += value
            served = tenant.cursor - cursor
            if served < reasons.size:
                # A fatal request (it leaves the cursor on itself) took
                # the process down: whatever the quantum still held fails
                # unexecuted, as in the scalar loop. ``needs_restart`` may
                # be left over from an earlier quantum, so it cannot tell.
                executed = served + 1
                counts["failed"] += remaining
                tally["fatal_tail"] += reasons.size - executed + remaining
                reasons = reasons[:executed]
                remaining = 0
            tally_reasons(tally, reasons)
        counts["ok"] += fused
        tally["fused"] += fused
        tally["live"] += count - fused
        return counts

    @staticmethod
    def _report_latency(tenant: ServeTenant, elapsed: float, run: int) -> None:
        """Bill one fused run's wall time evenly to its requests."""
        tenant.latency_sink([elapsed / run] * run)
