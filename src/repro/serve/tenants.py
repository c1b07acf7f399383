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
* **Owed memory** — the batched data plane may serve quanta by an
  epoch record's accounting alone and leave memory and Python-side
  progress *owed* (:meth:`ServeTenant.defer`); counters stay exact, the
  first call here that reads or changes memory settles it, and
  ``restart`` discards it. Records are keyed on
  :attr:`ServeTenant.epoch_key`, the fault state the last wrap
  installed, while nothing has reached the tenant since.

Determinism: a tenant only ever mutates its own workload, space, and
counters, so concurrent tenant tasks cannot observe each other's state
regardless of asyncio interleaving.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.base import Workload, WorkloadError
from repro.apps.clients import FATAL_ERRORS
from repro.dram.retirement import PageRetirementPolicy
from repro.memory.faults import FaultKind
from repro.memory.persistence import BackingStore, RegionBacking
from repro.memory.regions import PAGE_SIZE, Region, RegionKind

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

        #: Tick until which the tenant is unavailable (exclusive).
        self.down_until = 0
        #: Set when a request died fatally; the multiplexer must respond.
        self.needs_restart = False
        #: Ticks of downtime requested by the last restart; consumed by
        #: the multiplexer (tenants do not know the current tick).
        self.pending_downtime = 0
        #: Epochs completed (trace wraps).
        self.epochs = 0
        #: Optional wall-clock sink called with per-request execution
        #: latencies in seconds: one element per request the scalar loop
        #: executes, one list per run the batched plane fuses.
        #: Observational telemetry only — latency never reaches the
        #: ledger, so the determinism invariant holds.
        self.latency_sink: Optional[Callable[[List[float]], None]] = None
        #: Bumped on every checkpoint restore (restart or epoch wrap);
        #: the batched data plane keys its rolling golden image on this.
        self.generation = 0
        #: What brings owed memory and progress to the cursor (None: the
        #: workload is where the counters say).
        self._owed: Optional[Callable[[], None]] = None
        #: The fault state the last wrap installed, while nothing has
        #: reached the tenant since (:attr:`epoch_key`).
        self._epoch_key: Optional[tuple] = None

        self._cursor = 0
        self._golden: List[object] = []
        #: Resident hard faults: addr -> (bit, stuck_value).
        self._resident: Dict[int, Tuple[int, int]] = {}
        self._store = BackingStore()
        self._backings: Dict[str, RegionBacking] = {}

        # Attached by the partition (physical budget shared across tenants).
        self._retirement: Optional[PageRetirementPolicy] = None
        self._to_host: Optional[Callable[[int], int]] = None

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
        """
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
        """Whether memory and progress are owed (:meth:`defer`)."""
        return self._owed is not None

    def defer(self, settle: Callable[[], None]) -> None:
        """Leave memory and Python-side progress owed to ``settle``.

        For the batched data plane, in a state an epoch record stands
        for: it then serves quanta by accounting alone
        (:meth:`owed_quantum`), and ``settle`` brings memory and progress
        to the cursor when something reads or changes the tenant.
        """
        self._owed = settle

    def settle(self) -> None:
        """Pay what is owed, if anything: memory and progress at the cursor."""
        owed = self._owed
        if owed is not None:
            self._owed = None
            owed()

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
        request dispositions via :attr:`down_until`. Whatever memory is
        owed is dropped: the restore overwrites it, and progress and
        clock with it.
        """
        cleared = len(self._resident)
        self._resident.clear()
        self._owed = None
        self._epoch_key = None
        self.workload.reset()  # restore() clears all faults
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
        """Serve ``count`` trace requests; returns their dispositions.

        A fatal error (process death) fails the current request and the
        rest of the batch, and flags :attr:`needs_restart` for the
        multiplexer to respond to.
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

    def wrap_epoch(self) -> None:
        """Perform the epoch reset the scalar loop does implicitly.

        The batched data plane checks the wrap condition before fusing
        a run; calling this keeps the reset mechanics (and their
        observable effects: generation bump, resident re-injection,
        backing flushes) in one place.
        """
        if self._cursor >= self.workload.query_count:
            self._epoch_reset()

    def fused_advance(self, count: int) -> None:
        """Advance the cursor past ``count`` requests served by fusion.

        The batched data plane has already applied the requests' memory
        effects and counted their dispositions; only the trace position
        moves here.
        """
        self._cursor += count

    def owed_quantum(self, wraps: int, cursor: int) -> None:
        """Account a quantum served while memory is owed (:meth:`defer`).

        ``wraps`` epoch wraps were crossed and the cursor ends at
        ``cursor``. Each wrap is its accounting: ``epochs`` and
        ``generation`` advance, and every Par+R mirror counts its flush
        and store write. The flush would follow a checkpoint restore:
        nothing is dirty then and the mirror already holds the
        checkpoint, so it would copy nothing and leave the mirror as it
        is. The restore itself is owed (:meth:`owed_restore`).
        """
        if wraps:
            self.epochs += wraps
            self.generation += wraps
            for backing in self._backings.values():
                if backing.writable:
                    backing.stats.flushes += wraps
                    backing.store.write_ops += wraps
        self._cursor = cursor

    def owed_restore(self) -> None:
        """The checkpoint restore that owed wraps stand for (:meth:`defer`).

        For a settle after wraps served by accounting alone: memory
        returns to the checkpoint and the resident hard faults are
        re-applied at the checkpoint's clock, as the last wrap left
        them. The accounting, which those wraps charged, is kept.
        """
        space = self.workload.space
        accounting = space.accounting_state()
        self._restore_checkpoint()
        space.restore_accounting(accounting)
        self._epoch_key = None

    def _restore_checkpoint(self) -> None:
        """Restore the checkpoint, keep resident faults.

        ``restore`` clears the fault overlay, so resident hard faults
        are re-applied — the trace wrapping is an accounting artifact,
        not a repair. Soft flips are healed by the restore, modeling
        corrupted data being overwritten by fresh application writes.
        """
        self.workload.reset()
        space = self.workload.space
        for addr, (bit, stuck_value) in self._resident.items():
            space.inject_hard_fault(addr, bit, stuck_value)

    def _epoch_reset(self) -> None:
        """Wrap the trace: restore the checkpoint, keep resident faults.

        Par+R writable backings take their periodic flush here (the
        restored image *is* the checkpoint, so the mirror stays exact —
        and, nothing being dirty after the restore, the flush copies
        nothing). Memory owed is dropped, as by :meth:`restart`. The
        installed fault state becomes the :attr:`epoch_key`.
        """
        self._owed = None
        self._restore_checkpoint()
        self._epoch_key = self.workload.space.fault_state()
        self._cursor = 0
        self.epochs += 1
        self.generation += 1
        for backing in self._backings.values():
            if backing.writable:
                backing.flush()
