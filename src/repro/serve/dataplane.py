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

A clean stretch of quanta costs its accounting (DESIGN.md, "Epoch
boundaries"):

* *Owed memory.* Once the proofs hold for the rest of the trace (no
  query meets a guarded byte, nothing diverged, golden progress:
  :meth:`~repro.memory.trace.TraceReplay.pristine`), or a wrap is due
  while no query meets a guarded byte, the tenant is left owing its
  memory and progress (:meth:`~repro.serve.tenants.ServeTenant.defer`).
  Each quantum is then one accounting step:
  :meth:`~repro.memory.trace.TraceReplay.charge_quantum` charges the
  recorded counters and sets the clock, and
  :meth:`~repro.serve.tenants.ServeTenant.owed_quantum` advances cursor,
  ``epochs``, ``generation`` and the Par+R flush counts. Nothing is
  restored, scattered, rolled, rewound or checked again: the state
  stays clean because nothing touches the tenant without settling it
  first, which costs at most one restore, one scatter and one progress
  adoption (:meth:`BatchedDataPlane._settle`).
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
  fused run costs two indexed stores and one ``charge_recorded``, and
  each ``(cursor, count)`` quantum step, so an owed quantum costs a
  lookup and one charge.

A faulty tenant's repeated epochs are served from a record (DESIGN.md,
"Repeated faulty epochs"). While the tenant has an
:attr:`~repro.serve.tenants.ServeTenant.epoch_key` — the fault state
its last wrap installed, nothing having reached it since — its state at
a cursor is the same at every wrap with that key. So the first live
stretch ``(key, cursor, length)`` runs through the scalar loop inside
:meth:`~repro.memory.address_space.AddressSpace.start_capture` /
``finish_capture`` over the pages it changed, and keeps its effects,
the progress it left and its dispositions; the same stretch in a later
epoch is :meth:`~repro.memory.address_space.AddressSpace.replay`, one
``restore_progress`` and the recorded counts. A stretch that ends in a
fatal request drops the key and is not kept.

Both planes count, per tenant, how each request was served
(:data:`DECISIONS`); the counts are deterministic for a seed and never
reach the ledger.
"""

from __future__ import annotations

import difflib
import time
from collections import OrderedDict
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.memory.address_space import AddressSpace, RecordedEffects
from repro.memory.regions import PAGE_SIZE
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

#: Stored bytes a :class:`BatchedDataPlane` keeps per tenant in recorded
#: live stretches; the least recently used stretches go first.
_STRETCH_MEMO_BYTES = 1 << 21
_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1


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


class _Stretch:
    """One live stretch as it ran from an epoch's state: its effects on
    the space, the progress it left and its dispositions."""

    __slots__ = ("effects", "progress", "counts", "nbytes")

    def __init__(self, effects: RecordedEffects, progress, counts: ServeCounts) -> None:
        self.effects = effects
        self.progress = progress
        self.counts = dict(counts)
        self.nbytes = sum(len(data) for _addr, data in effects.writes)


class _StretchMemo:
    """A tenant's recorded live stretches, keyed ``(epoch key, cursor,
    length)``: least recently used first out, at most
    :data:`_STRETCH_MEMO_BYTES` of written-back bytes."""

    def __init__(self) -> None:
        self.stretches: "OrderedDict[tuple, _Stretch]" = OrderedDict()
        self.nbytes = 0
        self.recorded = 0
        self.replayed = 0

    def get(self, key: tuple) -> Optional[_Stretch]:
        stretch = self.stretches.get(key)
        if stretch is not None:
            self.stretches.move_to_end(key)
        return stretch

    def keep(self, key: tuple, stretch: _Stretch) -> None:
        replaced = self.stretches.pop(key, None)
        if replaced is not None:
            self.nbytes -= replaced.nbytes
        self.stretches[key] = stretch
        self.recorded += 1
        self.nbytes += stretch.nbytes
        while self.nbytes > _STRETCH_MEMO_BYTES:
            self.nbytes -= self.stretches.popitem(last=False)[1].nbytes


def _pages(flat: np.ndarray) -> np.ndarray:
    """A whole-space byte array as one row per page."""
    return flat.reshape(-1, PAGE_SIZE)


def _dirty_bytes(space: AddressSpace) -> Tuple[np.ndarray, np.ndarray]:
    """The dirty pages and a copy of their stored bytes."""
    pages = np.asarray(space.dirty_pages(), dtype=np.int64)
    return pages, _pages(space.stored_view())[pages]


def _changed_spans(
    space: AddressSpace, before: Tuple[np.ndarray, np.ndarray]
) -> List[Tuple[int, int]]:
    """Per page changed since ``before`` (:func:`_dirty_bytes`), the span
    from its first to its last changed byte.

    A page is changed only if a store marked it dirty; a page dirty
    neither then nor now holds the dirty baseline. No restore may come
    in between: the dirty set only grows.
    """
    pages_before, saved = before
    pages = np.asarray(space.dirty_pages(), dtype=np.int64)
    old = _pages(np.frombuffer(space.dirty_baseline.mem, dtype=np.uint8))[pages]
    old[np.searchsorted(pages, pages_before)] = saved
    changed = _pages(space.stored_view())[pages] != old
    spans = []
    for row in np.flatnonzero(changed.any(axis=1)).tolist():
        columns = np.flatnonzero(changed[row])
        first = int(columns[0])
        spans.append(
            ((int(pages[row]) << _PAGE_SHIFT) + first, int(columns[-1]) + 1 - first)
        )
    return spans


class BatchedDataPlane:
    """Fused trace replay, live only where a fault can reach."""

    name = "batched"

    def __init__(self, tenants: Sequence[ServeTenant]) -> None:
        self.decisions = _new_decisions(tenants)
        self._replays: Dict[str, TraceReplay] = {}
        # Tenant generation each replay's golden image is rolled from.
        self._generations: Dict[str, int] = {}
        self._stretches: Dict[str, _StretchMemo] = {}
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
                self._stretches[tenant.name] = _StretchMemo()

    def memo_counts(self, name: str) -> Dict[str, int]:
        """How the memos served tenant ``name``: live stretches recorded
        and replayed, and verdict lookups the trace replay's memo
        answered (all 0 for a tenant served scalar). Deterministic for a
        seed, like :attr:`decisions`."""
        memo, replay = self._stretches.get(name), self._replays.get(name)
        return {
            "stretches_recorded": memo.recorded if memo else 0,
            "stretches_replayed": memo.replayed if memo else 0,
            "verdict_memo_hits": replay.verdict_hits if replay else 0,
        }

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
            started = time.perf_counter() if timed else 0.0
            if tenant.owes or self._defers(tenant, replay):
                # Clean: the rest of the quantum is its accounting,
                # and memory and progress stay owed.
                wraps, end = replay.charge_quantum(tenant.cursor, remaining)
                tenant.owed_quantum(wraps, end)
                fused += remaining
                if timed:
                    self._report_latency(
                        tenant, time.perf_counter() - started, remaining
                    )
                break
            cursor = tenant.cursor
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
            live = self._serve_live(tenant, reasons.size)
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

    def _serve_live(self, tenant: ServeTenant, count: int) -> ServeCounts:
        """Serve the ``count`` requests the proofs sent live.

        Under an epoch key, a stretch recorded at the same key, cursor
        and length is replayed: the state it starts from is the one it
        was recorded from, so its effects, progress and dispositions
        are what executing it again gives. Otherwise the scalar loop
        executes it, recorded while the key holds; a fatal request drops
        the key and the stretch is not kept.
        """
        epoch = tenant.epoch_key
        if epoch is None:
            return tenant.serve_requests(count)
        memo = self._stretches[tenant.name]
        key = (epoch, tenant.cursor, count)
        space = tenant.workload.space
        stretch = memo.get(key)
        if stretch is not None and space.can_replay(stretch.effects):
            started = time.perf_counter()
            space.replay(stretch.effects)
            tenant.workload.restore_progress(stretch.progress)
            tenant.fused_advance(count)
            memo.replayed += 1
            if tenant.latency_sink is not None:
                self._report_latency(tenant, time.perf_counter() - started, count)
            counts = ServeCounts()
            counts.update(stretch.counts)
            return counts
        before = _dirty_bytes(space)
        mark = space.start_capture()
        counts = tenant.serve_requests(count)
        if tenant.epoch_key is epoch:
            effects = space.finish_capture(mark, _changed_spans(space, before))
            memo.keep(key, _Stretch(effects, tenant.workload.progress_state(), counts))
        return counts

    def _defers(self, tenant: ServeTenant, replay: TraceReplay) -> bool:
        """Take the next request's wrap, if due, and leave the tenant owing
        its memory when it is pristine there (DESIGN.md, "Epoch
        boundaries").

        A wrap is deferred too when no query meets a guarded byte: the
        resident faults it re-installs are among those bytes, so the
        restore it stands for leaves a pristine state at cursor 0
        whatever faults, repairs or live requests did to memory and
        progress before it.
        """
        if tenant.cursor >= replay.trace.query_count:
            blocked = replay.blocked_queries()
            if blocked is None or not blocked.any():
                tenant.defer(partial(self._settle, tenant))
                return True
            tenant.wrap_epoch()
        if self._generations[tenant.name] != tenant.generation:
            # A restart or epoch wrap restored the checkpoint.
            replay.rewind()
            self._generations[tenant.name] = tenant.generation
        if replay.pristine(tenant.cursor):
            tenant.defer(partial(self._settle, tenant))
            return True
        return False

    def _settle(self, tenant: ServeTenant) -> None:
        """Pay an owing tenant's memory and progress: at most one restore,
        one scatter and one progress adoption.

        Memory holds the golden state of the replay's image cursor in
        the generation the plane last saw. A wrap since (the generation
        moved on) owes the checkpoint first: the tenant restores it with
        its resident faults and keeps the accounting, which is charged
        already, and the image rewinds. Then the write image up to the
        cursor is scattered.
        """
        replay = self._replays[tenant.name]
        if self._generations[tenant.name] != tenant.generation:
            tenant.owed_restore()
            replay.rewind()
            self._generations[tenant.name] = tenant.generation
        replay.settle(tenant.cursor)

    @staticmethod
    def _report_latency(tenant: ServeTenant, elapsed: float, run: int) -> None:
        """Bill one fused run's wall time evenly to its requests."""
        tenant.latency_sink([elapsed / run] * run)
