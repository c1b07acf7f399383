"""Tenant adapters: one long-lived workload behind the multiplexer.

A :class:`ServeTenant` wraps one built workload (websearch, kvstore,
graphmining) with the mechanics the serving layer needs:

* **Ordered trace replay** — responses are only reproducible as an
  ordered prefix replay from the pristine checkpoint (the key-value
  trace mutates state), so each tenant serves its trace in order and
  performs an *epoch reset* (restore checkpoint, cursor to zero) when
  the trace wraps.
* **Fault residency tracking** — every hard fault injected into the
  tenant's space is recorded so it can be re-applied after an epoch
  reset (the trace wrapping is bookkeeping, not a repair) and dropped
  when a policy genuinely repairs the cells.
* **Table 2 repair mechanics** — ``restart``, ``retire_page``, and
  ``recover_from_disk`` implement what the policies in
  :mod:`repro.serve.policies` decide.
* **Fused serving** — a fault matters only to the accesses that reach
  it (delayed error reporting, arXiv:1810.06472). :meth:`ServeTenant.
  serve` hands the tenant's golden access trace, recorded at session
  start (:meth:`ServeTenant.record_trace`), to the fusion core,
  :class:`~repro.memory.trace.TraceReplay`, which serves a clean run of
  requests unexecuted (recorded write image, clock and counter deltas,
  progress) only where it proves (:mod:`repro.memory.trace`) that the
  scalar loop, :meth:`ServeTenant.serve_requests`, would answer golden;
  the rest executes through that loop. Seeded sessions therefore write
  the ledger the scalar loop writes, byte for byte.
* **Owed memory** — quanta an epoch record stands for cost their
  accounting alone (DESIGN.md, "Epoch records", has the proofs): memory
  and Python-side progress stay *owed* (:attr:`ServeTenant.owes`),
  counters stay exact, the first call here that reads or changes memory
  settles it, and ``restart`` discards it. Records are keyed on
  :attr:`ServeTenant.epoch_key`, the fault state the last wrap
  installed, while nothing has reached the tenant since.

Determinism: a tenant only ever mutates its own workload, space, and
counters, so concurrent tenant tasks cannot observe each other's state
regardless of asyncio interleaving.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.base import Workload, WorkloadError
from repro.apps.clients import FATAL_ERRORS
from repro.dram.retirement import PageRetirementPolicy
from repro.memory.faults import FaultKind
from repro.memory.persistence import BackingStore, RegionBacking
from repro.memory.regions import PAGE_SIZE, RegionKind
from repro.memory.trace import (
    DECISIONS,
    RECORD_TALLIES,
    EpochRecord,
    TraceReplay,
    record_access_trace,
    tally_reasons,
)

__all__ = ["ServeTenant", "ServeCounts"]


class ServeCounts(dict):
    """Per-batch request dispositions (plain dict with defaults)."""

    def __init__(self) -> None:
        super().__init__(ok=0, incorrect=0, failed=0, shed=0, down=0)


class ServeTenant:
    """One workload served as a tenant of the HRM multiplexer."""

    def __init__(
        self,
        name: str,
        workload: Workload,
        requests_per_tick: int = 4,
    ) -> None:
        if requests_per_tick < 1:
            raise ValueError(
                f"requests_per_tick must be >= 1, got {requests_per_tick}"
            )
        self.name = name
        self.workload = workload
        self.requests_per_tick = requests_per_tick

        #: Optional wall-clock sink called with per-request execution
        #: latencies in seconds: one element per request the scalar loop
        #: executes, one list per run :meth:`serve` fuses.
        #: Observational telemetry only — latency never reaches the
        #: ledger, so the determinism invariant holds.
        self.latency_sink: Optional[Callable[[List[float]], None]] = None
        # Attached by the partition (physical budget shared across tenants).
        self._retirement: Optional[PageRetirementPolicy] = None
        self._to_host: Optional[Callable[[int], int]] = None
        # The serving state is set by build(), so a rebuilt tenant starts
        # a session exactly as a new one does.

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Build the workload, record golden responses, create backings.

        Golden responses are captured by a full fault-free trace replay,
        then the workload is reset to its checkpoint so serving starts
        pristine. Backings: file-backed regions get a read-only golden
        mirror (implicit recoverability); the heap gets a Par+R writable
        mirror flushed at every epoch boundary. Stack and other regions
        get none — recover-from-disk escalates there.

        Every call starts the tenant afresh: the serving state is set
        here, so a tenant that served a session serves the next one as
        a new tenant would.
        """
        #: Set when a request died fatally; the multiplexer must respond.
        self.needs_restart = False
        #: Ticks of downtime requested by the last restart; consumed by
        #: the multiplexer (tenants do not know the current tick).
        self.pending_downtime = 0
        #: Epochs completed (trace wraps).
        self.epochs = 0
        #: Checkpoint restores the counters stand for (restarts and epoch
        #: wraps, owed ones included).
        self.generation = 0
        #: How :meth:`serve` served each request (:data:`~repro.memory.
        #: trace.DECISIONS`); deterministic for a seed, never in the ledger.
        self.decisions: Dict[str, int] = dict.fromkeys(DECISIONS, 0)
        #: The fusion core over the golden access trace
        #: (:meth:`record_trace`); None serves every request live.
        self.replay: Optional[TraceReplay] = None
        # Memory and progress are owed to ``replay.owed`` (:attr:`owes`),
        # and with them the checkpoint restore of the wraps served since.
        self._owes = False
        self._restore_owed = False
        #: The fault state the last wrap installed, while nothing has
        #: reached the tenant since (:attr:`epoch_key`).
        self._epoch_key: Optional[tuple] = None
        self._cursor = 0
        #: Resident hard faults: addr -> (bit, stuck_value).
        self._resident: Dict[int, Tuple[int, int]] = {}
        self._store = BackingStore()
        self._backings: Dict[str, RegionBacking] = {}

        self.workload.build()
        self.workload.checkpoint()
        self._golden = self.workload.golden_responses()
        self.workload.reset()
        space = self.workload.space
        for region in space.layout.regions:
            if region.file_backed:
                backing = RegionBacking(
                    space=space,
                    region=region,
                    store=self._store,
                    path=f"{self.name}/{region.name}.golden",
                    writable=False,
                )
                backing.mirror_current_contents()
                self._backings[region.name] = backing
            elif region.kind is RegionKind.HEAP:
                backing = RegionBacking(
                    space=space,
                    region=region,
                    store=self._store,
                    path=f"{self.name}/{region.name}.parr",
                    writable=True,
                )
                backing.mirror_current_contents()
                self._backings[region.name] = backing

    def record_trace(self) -> None:
        """Record the golden access trace :meth:`serve` fuses from.

        The tenant must be built and pristine, as ``serve_session``
        leaves it before the first tick. Without the memory fast path
        there is no dirty-page tracking to confine the divergence check
        to, so such a tenant serves every request through the scalar
        loop. Raises ``RuntimeError`` when the replay does not repeat
        the golden responses.
        """
        workload = self.workload
        if workload.space.fast_path_enabled:
            trace = record_access_trace(
                workload, workload.query_count, golden=self.golden_responses
            )
            self.replay = TraceReplay(trace, workload)

    def attach_retirement(
        self, retirement: PageRetirementPolicy, to_host: Callable[[int], int]
    ) -> None:
        """Share the host's physical page-retirement budget with this tenant."""
        self._retirement = retirement
        self._to_host = to_host

    @property
    def space(self):
        """The tenant's address space, with nothing owed."""
        self.settle()
        return self.workload.space

    @property
    def owes(self) -> bool:
        """Whether memory and Python-side progress are owed to an epoch
        record, which :meth:`serve` then serves quanta by."""
        return self._owes

    def settle(self) -> None:
        """Pay what is owed, if anything: at most one restore, one
        scatter and the recorded state at the cursor.

        Memory holds the state the owed record started from. A wrap
        served since owes the checkpoint first: it is restored with the
        resident faults — the record's — at the checkpoint's clock, as
        the last wrap left them, and the accounting those wraps charged
        is kept. Then the replay applies the record up to the cursor.
        """
        if not self._owes:
            return
        self._owes = False
        if self._restore_owed:
            self._restore_owed = False
            space = self.workload.space
            accounting = space.accounting_state()
            self._restore_checkpoint()
            space.restore_accounting(accounting)
            self._epoch_key = None
        self.replay.settle(self._cursor)

    @property
    def epoch_key(self) -> Optional[tuple]:
        """The fault state (:meth:`~repro.memory.address_space.AddressSpace.
        fault_state`) the last epoch wrap installed, or None once anything
        reached the tenant since: a fault, a page retirement, a disk
        recovery, a restart, the restore that settles owed wraps, or a
        fatal request. While it is set, the state at a cursor — stored
        bytes, Python-side progress, fault consumption, the clock — is
        what serving from the wrap to that cursor leaves, the same at
        every wrap with this key."""
        return self._epoch_key

    @property
    def cursor(self) -> int:
        """Next trace index to serve."""
        return self._cursor

    @property
    def golden_responses(self) -> Tuple[object, ...]:
        """Fault-free response of every trace query (empty before build)."""
        return tuple(self._golden)

    @property
    def resident_fault_count(self) -> int:
        """Hard faults currently stuck in this tenant's memory."""
        return len(self._resident)

    def backing_for(self, region_name: str) -> Optional[RegionBacking]:
        """The disk backing of a region, if it has one."""
        return self._backings.get(region_name)

    # ------------------------------------------------------------------
    # Fault application (called by the partition's arrival router)
    # ------------------------------------------------------------------
    def apply_fault(self, addr: int, bit: int, kind: FaultKind) -> None:
        """Inject one error byte into the tenant's space.

        Hard faults are recorded as resident so they survive epoch
        resets; a repeated hard fault at the same address updates the
        stuck bit (last writer wins, like the overlay itself).
        """
        space = self.space
        self._epoch_key = None
        if kind is FaultKind.HARD:
            fault = space.inject_hard_fault(addr, bit)
            self._resident[addr] = (bit, fault.stuck_value)
        else:
            space.inject_soft_flip(addr, bit)

    # ------------------------------------------------------------------
    # Table 2 repair mechanics (called by policies)
    # ------------------------------------------------------------------
    def restart(self, downtime_ticks: int) -> int:
        """Full restart: pristine data, all faults repaired, downtime.

        Returns the number of resident hard faults repaired. The caller
        (the multiplexer) converts ``downtime_ticks`` into ``down``
        request dispositions. Whatever memory is
        owed is dropped: the restore overwrites it, and progress and
        clock with it.
        """
        cleared = len(self._resident)
        self._resident.clear()
        self._owes = self._restore_owed = False
        self._epoch_key = None
        self._restore_checkpoint()
        self._cursor = 0
        self.generation += 1
        self.needs_restart = False
        self.pending_downtime = downtime_ticks
        return cleared

    def retire_page(self, addr: int) -> dict:
        """Offer the error to the page-retirement budget; migrate if retired.

        Returns a dict with ``pages_retired`` (tenant page numbers),
        ``faults_cleared``, and ``budget_exhausted``. Migration clears
        the stuck-at overlay for the page — the stored bytes underneath
        are the intact data, so moving to a healthy frame repairs every
        hard fault. Soft-flipped bytes stay corrupted (their clean value
        is unknowable without a disk copy).
        """
        self.settle()
        self._epoch_key = None
        page_base = (addr // PAGE_SIZE) * PAGE_SIZE
        if self._retirement is not None and self._to_host is not None:
            outcome = self._retirement.observe_error(self._to_host(addr))
            if outcome.budget_exhausted:
                return {
                    "pages_retired": [],
                    "faults_cleared": 0,
                    "budget_exhausted": True,
                }
            if not outcome.pages_retired:
                # Below the retirement threshold; the error stays resident.
                return {
                    "pages_retired": [],
                    "faults_cleared": 0,
                    "budget_exhausted": False,
                }
        cleared = self._clear_page_faults(page_base)
        return {
            "pages_retired": [page_base // PAGE_SIZE],
            "faults_cleared": cleared,
            "budget_exhausted": False,
        }

    def recover_from_disk(self, addr: int) -> Optional[dict]:
        """Restore the afflicted page from its region's backing file.

        Returns ``None`` when the region has no backing (policy
        escalates). Repairs resident faults in the page *and* rewrites
        the page bytes from the clean copy, so soft flips are healed too
        — the one response that can undo silent data corruption.
        """
        region = self.space.region_at(addr)
        self._epoch_key = None
        if region is None:
            return None
        backing = self._backings.get(region.name)
        if backing is None:
            return None
        offset = ((addr - region.base) // PAGE_SIZE) * PAGE_SIZE
        page_base = region.base + offset
        cleared = self._clear_page_faults(page_base)
        backing.recover_page(addr)
        return {"pages_recovered": 1, "faults_cleared": cleared}

    def _clear_page_faults(self, page_base: int) -> int:
        cleared = self.workload.space.clear_faults_in_range(page_base, PAGE_SIZE)
        for fault_addr in [
            a for a in self._resident if page_base <= a < page_base + PAGE_SIZE
        ]:
            del self._resident[fault_addr]
        return cleared

    # ------------------------------------------------------------------
    # Request serving
    # ------------------------------------------------------------------
    def serve_requests(self, count: int) -> ServeCounts:
        """Execute ``count`` trace requests; returns their dispositions.

        The scalar loop: one ``execute`` per request, every access
        walking the memory model. :meth:`serve` runs through it where
        its proofs do not reach, and it is the oracle :meth:`serve` is
        pinned to. A fatal error (process death) fails the current
        request and the rest of the batch, and flags
        :attr:`needs_restart` for the multiplexer to respond to.
        """
        self.settle()
        counts = ServeCounts()
        for attempt in range(count):
            if self._cursor >= self.workload.query_count:
                self._epoch_reset()
            index = self._cursor
            started = time.perf_counter() if self.latency_sink else 0.0
            try:
                response = self.workload.execute(index)
            except FATAL_ERRORS:
                if self.latency_sink is not None:
                    self.latency_sink([time.perf_counter() - started])
                counts["failed"] += count - attempt
                self.needs_restart = True
                # What the dead request left is no epoch's state.
                self._epoch_key = None
                return counts
            except WorkloadError:
                if self.latency_sink is not None:
                    self.latency_sink([time.perf_counter() - started])
                counts["failed"] += 1
            else:
                if self.latency_sink is not None:
                    self.latency_sink([time.perf_counter() - started])
                if response == self._golden[index]:
                    counts["ok"] += 1
                else:
                    counts["incorrect"] += 1
            self._cursor += 1
        return counts

    def serve(self, count: int) -> ServeCounts:
        """Serve a quantum: fused clean runs around live blocked stretches.

        The production entry; returns what :meth:`serve_requests` would.
        The replay cuts the quantum into maximal clean runs, each fused
        (or, reaching the trace end while the quantum goes on, only
        charged: the wrap restores all it would set), and maximal
        stretches the proofs send live, which execute through the scalar
        loop; the proofs are taken again after each. A fatal request
        fails the rest of the quantum unexecuted, as in the scalar loop.
        A quantum an epoch record stands for is its accounting alone.
        """
        replay = self.replay
        tally = self.decisions
        if replay is None or count <= 0:
            tally["live"] += max(count, 0)
            return self.serve_requests(count)
        trace = replay.trace
        counts = ServeCounts()
        remaining = count
        fused = 0
        timed = self.latency_sink is not None
        while remaining:
            started = time.perf_counter() if timed else 0.0
            if self.owes or self._defers(replay):
                # A record stands for the rest of the quantum: it is its
                # accounting, and memory and progress stay owed. Each
                # wrap crossed counts its Par+R flush and store write;
                # after a restore nothing is dirty and the mirror holds
                # the checkpoint, so the flush would copy nothing.
                wraps, self._cursor, tallies = replay.charge_quantum(
                    self.cursor, remaining
                )
                if wraps:
                    self.epochs += wraps
                    self.generation += wraps
                    self._restore_owed = True
                    for backing in self._backings.values():
                        if backing.writable:
                            backing.stats.flushes += wraps
                            backing.store.write_ops += wraps
                fused += tallies[0]
                if tallies[0] < remaining:
                    for name, value in zip(RECORD_TALLIES[1:], tallies[1:]):
                        (tally if name in tally else counts)[name] += value
                if timed:
                    elapsed = time.perf_counter() - started
                    self.latency_sink([elapsed / remaining] * remaining)
                break
            cursor = self.cursor
            recording = replay.recording(self.epoch_key, cursor)
            clean, reasons = replay.next_runs(
                cursor, min(remaining, trace.query_count - cursor)
            )
            if clean:
                if cursor + clean == trace.query_count and clean < remaining:
                    replay.charge_run(cursor, clean)
                else:
                    replay.apply_run(cursor, clean)
                if recording:
                    replay.record_run(cursor, cursor + clean)
                self._cursor += clean
                fused += clean
                remaining -= clean
                if timed:
                    elapsed = time.perf_counter() - started
                    self.latency_sink([elapsed / clean] * clean)
            if not reasons.size:
                continue
            cursor = self.cursor
            remaining -= reasons.size
            live = self._serve_live(replay, reasons, recording)
            replay.progress_dirty = True
            for key, value in live.items():
                counts[key] += value
            served = self.cursor - cursor
            if served < reasons.size:
                # A fatal request (it leaves the cursor on itself) took
                # the process down: whatever the quantum still held fails
                # unexecuted. ``needs_restart`` may be left over from an
                # earlier quantum, so it cannot tell.
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

    def _serve_live(
        self, replay: TraceReplay, reasons: np.ndarray, recording: bool
    ) -> ServeCounts:
        """Execute the stretch the proofs sent live: in one go, or while
        the epoch is recorded one request at a time, each recorded. A
        fatal request drops the key, so the recording with it, and fails
        the rest of the stretch unexecuted, as the scalar loop does."""
        if not recording:
            return self.serve_requests(reasons.size)
        counts = ServeCounts()
        for index, code in enumerate(reasons.tolist()):
            cursor = self.cursor
            served = self.serve_requests(1)
            for key, value in served.items():
                counts[key] += value
            if self.cursor == cursor:
                counts["failed"] += reasons.size - index - 1
                break
            replay.record_live(cursor, code, served)
        return counts

    def _defers(self, replay: TraceReplay) -> bool:
        """Take the next request's wrap, if due, and leave the tenant owing
        its memory to a record that stands for serving on from here
        (DESIGN.md, "Epoch records").

        A due wrap is owed to the golden record when no query meets a
        guarded byte: the resident faults it re-installs are among those
        bytes, so the restore it stands for leaves a pristine state at
        cursor 0 whatever faults, repairs or live requests did to memory
        and progress before it. It is owed to the record of the epoch
        key when one is kept: nothing reached the tenant since the last
        wrap, so this one installs the same faults. Otherwise it is
        taken, and the epoch it starts is owed to the record of the
        fault state it installs, or recorded.
        """
        if self.cursor >= replay.trace.query_count:
            blocked = replay.blocked_queries()
            if blocked is None or not blocked.any():
                return self._owe(replay, replay.golden)
            record = replay.record(self.epoch_key)
            if record is not None:
                return self._owe(replay, record)
            self._epoch_reset()
        if replay.pristine(self.cursor):
            return self._owe(replay, replay.golden)
        if self.cursor == 0 and self.epoch_key is not None:
            # A wrap has just installed the key: nothing ran since.
            record = replay.record(self.epoch_key)
            if record is not None:
                return self._owe(replay, record)
            replay.begin_record(self.epoch_key)
        return False

    def _owe(self, replay: TraceReplay, record: EpochRecord) -> bool:
        """Leave memory and progress owed to ``record``."""
        replay.owed = record
        self._owes = True
        return True

    def _restore_checkpoint(self) -> None:
        """Restore the checkpoint, keep resident faults.

        ``restore`` clears the fault overlay, so resident hard faults
        are re-applied — the trace wrapping is an accounting artifact,
        not a repair. Soft flips are healed by the restore, modeling
        corrupted data being overwritten by fresh application writes.
        The replay's golden image follows memory back.
        """
        self.workload.reset()
        space = self.workload.space
        for addr, (bit, stuck_value) in self._resident.items():
            space.inject_hard_fault(addr, bit, stuck_value)
        if self.replay is not None:
            self.replay.rewind()

    def _epoch_reset(self) -> None:
        """Wrap the trace: restore the checkpoint, keep resident faults.

        Par+R writable backings take their periodic flush here (the
        restored image *is* the checkpoint, so the mirror stays exact —
        and, nothing being dirty after the restore, the flush copies
        nothing). Memory owed is dropped, as by :meth:`restart`. The
        installed fault state becomes the :attr:`epoch_key`.
        """
        self._owes = self._restore_owed = False
        self._restore_checkpoint()
        self._epoch_key = self.workload.space.fault_state()
        self._cursor = 0
        self.epochs += 1
        self.generation += 1
        for backing in self._backings.values():
            if backing.writable:
                backing.flush()
