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

Quanta an epoch record stands for cost their accounting (DESIGN.md,
"Epoch records", has the proofs). After a wrap, a tenant's state at a
cursor depends only on the fault state the wrap installed and on the
cursor, as long as nothing reaches the tenant. So the first epoch served
under a fault state some query meets is kept as an
:class:`~repro.memory.trace.EpochRecord`, and every later wrap that
installs the same state (:attr:`~repro.serve.tenants.ServeTenant.
epoch_key`) leaves the tenant owing its memory and progress to it
(:meth:`~repro.serve.tenants.ServeTenant.defer`); the golden record
stands for a cursor :meth:`~repro.memory.trace.TraceReplay.pristine`
proves clean and for a wrap while no query meets a guarded byte. An owed
quantum is :meth:`~repro.memory.trace.TraceReplay.charge_quantum` (the
record's prefix sums) and :meth:`~repro.serve.tenants.ServeTenant.
owed_quantum` (cursor, ``epochs``, ``generation``, Par+R flush counts).
Nothing touches the tenant without settling it first, which costs at
most one restore with the record's faults, one scatter and the recorded
state at the cursor (:meth:`BatchedDataPlane._settle`). A fused run that
reaches the trace end while the quantum still has requests only charges
its counters (:meth:`~repro.memory.trace.TraceReplay.charge_run`): the
wrap next restores everything the run would set, and reads none of it.

Both planes count, per tenant, how each request was served
(:data:`DECISIONS`); the counts are deterministic for a seed and never
reach the ledger.
"""

from __future__ import annotations

import difflib
import time
from functools import partial
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.memory.trace import (
    DECISIONS,
    RECORD_TALLIES,
    EpochRecord,
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

    def record_counts(self, name: str) -> Dict[str, int]:
        """Epochs of tenant ``name`` recorded under a fault state some
        query meets, and wraps owed to such a record (0 for a tenant
        served scalar). Deterministic for a seed, like :attr:`decisions`."""
        replay = self._replays.get(name)
        return {
            "epochs_recorded": replay.epochs_recorded if replay else 0,
            "guarded_epochs_owed": replay.guarded_epochs_owed if replay else 0,
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
                # A record stands for the rest of the quantum: it is its
                # accounting, and memory and progress stay owed.
                wraps, end, tallies = replay.charge_quantum(tenant.cursor, remaining)
                tenant.owed_quantum(wraps, end)
                fused += tallies[0]
                if tallies[0] < remaining:
                    for name, value in zip(RECORD_TALLIES[1:], tallies[1:]):
                        (tally if name in tally else counts)[name] += value
                if timed:
                    self._report_latency(
                        tenant, time.perf_counter() - started, remaining
                    )
                break
            cursor = tenant.cursor
            recording = replay.recording(tenant.epoch_key, cursor)
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
                if recording:
                    replay.record_run(cursor, cursor + clean)
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
            live = self._serve_live(tenant, replay, reasons, recording)
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
    def _serve_live(
        tenant: ServeTenant, replay: TraceReplay, reasons: np.ndarray, recording: bool
    ) -> ServeCounts:
        """Execute the stretch the proofs sent live: in one go, or while
        the epoch is recorded one request at a time, each recorded. A
        fatal request drops the key, so the recording with it, and fails
        the rest of the stretch unexecuted, as the scalar loop does."""
        if not recording:
            return tenant.serve_requests(reasons.size)
        counts = ServeCounts()
        for index, code in enumerate(reasons.tolist()):
            cursor = tenant.cursor
            served = tenant.serve_requests(1)
            for key, value in served.items():
                counts[key] += value
            if tenant.cursor == cursor:
                counts["failed"] += reasons.size - index - 1
                break
            replay.record_live(cursor, code, served)
        return counts

    def _defers(self, tenant: ServeTenant, replay: TraceReplay) -> bool:
        """Take the next request's wrap, if due, and leave the tenant owing
        its memory to a record that stands for serving on from here
        (DESIGN.md, "Epoch records").

        A due wrap is owed to the golden record when no query meets a
        guarded byte: the resident faults it re-installs are among those
        bytes, so the restore it stands for leaves a pristine state at
        cursor 0 whatever faults, repairs or live requests did to memory
        and progress before it. It is owed to the record of the
        tenant's epoch key when one is kept: nothing reached the tenant
        since the last wrap, so this one installs the same faults.
        Otherwise it is taken, and the epoch it starts is owed to the
        record of the fault state it installs, or recorded.
        """
        if tenant.cursor >= replay.trace.query_count:
            blocked = replay.blocked_queries()
            if blocked is None or not blocked.any():
                return self._owe(tenant, replay, replay.golden)
            record = replay.record(tenant.epoch_key)
            if record is not None:
                return self._owe(tenant, replay, record)
            tenant.wrap_epoch()
        if self._generations[tenant.name] != tenant.generation:
            # A restart or epoch wrap restored the checkpoint.
            replay.rewind()
            self._generations[tenant.name] = tenant.generation
        if replay.pristine(tenant.cursor):
            return self._owe(tenant, replay, replay.golden)
        if tenant.cursor == 0 and tenant.epoch_key is not None:
            # A wrap has just installed the key: nothing ran since.
            record = replay.record(tenant.epoch_key)
            if record is not None:
                return self._owe(tenant, replay, record)
            replay.begin_record(tenant.epoch_key)
        return False

    def _owe(self, tenant: ServeTenant, replay: TraceReplay, record: EpochRecord) -> bool:
        """Leave the tenant owing its memory and progress to ``record``."""
        replay.owed = record
        tenant.defer(partial(self._settle, tenant))
        return True

    def _settle(self, tenant: ServeTenant) -> None:
        """Pay an owing tenant's memory and progress: at most one restore,
        one scatter and the recorded state at the cursor.

        Memory holds the state the owed record started from, in the
        generation the plane last saw. A wrap since (the generation
        moved on) owes the checkpoint first: the tenant restores it with
        its resident faults — the record's — and keeps the accounting,
        which is charged already, and the image rewinds. Then the
        replay applies the record up to the cursor.
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
