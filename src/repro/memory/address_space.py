"""Byte-addressable simulated application address space.

This module is the load-bearing substitution of the reproduction (see
DESIGN.md): instead of flipping bits in a native process with a debugger
as the paper does, the workloads serialize *all* of their state into an
:class:`AddressSpace`, and the error-injection framework flips bits in it
directly. Because application control data (offsets, lengths, counts)
lives in the same simulated bytes as payload data, injected errors
propagate exactly as in the paper's taxonomy — masked by overwrite,
masked by logic, incorrect output, or crash (via
:class:`~repro.memory.errors.SegmentationFault` and friends).

Facilities provided:

* region-mapped reads/writes with guard-gap fault semantics,
* typed accessors (``read_u32``, ``write_f64``, ...),
* record accessors (``read_record``, ``write_record``): a packed run of
  typed fields in one dispatch, each field still its own access,
* bulk array kernels (``read_array``, ``write_array``) with identical
  fault/region semantics and per-element accounting,
* capture and replay of a stretch of accesses (``start_capture``,
  ``finish_capture``, ``can_replay``, ``replay``) for drivers that can
  prove a stretch repeats exactly,
* a logical clock that advances on every access (used for safe-ratio and
  recoverability analyses),
* soft bit flips and stuck-at hard faults (:mod:`repro.memory.faults`),
* per-region access counters,
* snapshot/restore for fast campaign trial resets, with page-granular
  dirty tracking so restores copy only what a trial touched.

Two access paths implement one semantics. The *checked* path
(`_read_guarded`/`_write_guarded`) is the scalar oracle: it validates,
advances the clock, updates counters, applies the hard-fault overlay,
and counts tracked-fault consumption per access.
The *fast* path handles the overwhelmingly common case — a validated,
in-region access that overlaps no tracked fault (bounded by a single
``[_guard_lo, _guard_hi]`` interval) — with the exact same clock/counter
updates but none of the fault bookkeeping. Any access the fast path
cannot prove clean falls through to the checked path, so results,
exceptions, and side effects are bit-identical by construction
(enforced by the hypothesis equivalence suite in
``tests/property/test_prop_fastpath.py``).
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.memory.errors import ProtectionFault, SegmentationFault
from repro.memory.fastpath import fastpath_enabled
from repro.memory.faults import FaultKind, FaultLog, HardFaultOverlay, InjectedFault
from repro.memory.regions import (
    PAGE_SIZE,
    MemoryLayout,
    Region,
    RegionSpec,
)

_STRUCT_F32 = struct.Struct("<f")
_STRUCT_F64 = struct.Struct("<d")
_STRUCT_U16 = struct.Struct("<H")
_STRUCT_U32 = struct.Struct("<I")
_STRUCT_U64 = struct.Struct("<Q")
_STRUCT_I32 = struct.Struct("<i")

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
assert 1 << _PAGE_SHIFT == PAGE_SIZE, "dirty tracking needs a power-of-two page"

#: Record field codes -> the scalar accessor suffix each field decomposes to.
_FIELD_KINDS = {"B": "u8", "H": "u16", "I": "u32", "Q": "u64", "f": "f32", "d": "f64"}


class Record:
    """A packed run of little-endian scalar fields, no padding.

    ``Record("IIf")`` is a u32, a u32 and an f32 at byte offsets 0, 4
    and 8 — the layout :meth:`AddressSpace.read_record` and
    :meth:`AddressSpace.write_record` move as one dispatch. Field codes
    are :mod:`struct`'s: ``B H I Q`` unsigned, ``f d`` IEEE single and
    double.
    """

    __slots__ = ("fields", "struct", "size", "count", "_readers", "_writers")

    def __init__(self, fields: str) -> None:
        unknown = set(fields) - set(_FIELD_KINDS)
        if unknown:
            raise ValueError(f"unsupported record field codes {sorted(unknown)}")
        self.fields = fields
        self.struct = struct.Struct("<" + fields)
        self.size = self.struct.size
        self.count = len(fields)
        offsets = [struct.calcsize("<" + fields[:i]) for i in range(len(fields))]
        kinds = [_FIELD_KINDS[code] for code in fields]
        #: (offset, accessor name) per field, in address order.
        self._readers = tuple(zip(offsets, ["read_" + kind for kind in kinds]))
        self._writers = tuple(zip(offsets, ["write_" + kind for kind in kinds]))

    def __repr__(self) -> str:
        return f"Record({self.fields!r})"


class MemorySnapshot:
    """Opaque snapshot of an address space's contents and clock.

    Captures raw memory and the logical clock but *not* injected faults
    or access statistics — restoring a snapshot models restarting the
    application with pristine data (step 1 of the paper's
    Figure 2 loop), after which fresh faults are injected.
    """

    __slots__ = ("mem", "time")

    def __init__(self, mem: bytes, time: int) -> None:
        self.mem = mem
        self.time = time


class RecordedEffects:
    """What one stretch of accesses did to an address space.

    Built by :meth:`AddressSpace.finish_capture`, applied again by
    :meth:`AddressSpace.replay`: the clock delta, per-region counter
    deltas (load ops, load bytes, store ops, store bytes — one tuple each,
    in region order), path-counter deltas, per tracked byte ``(addr,
    overwritten at start, reads added, overwritten at end)``, and the
    final bytes of the spans the stretch stored to.
    """

    __slots__ = ("time", "counters", "fast_hits", "fast_fallbacks", "consumption", "writes")


class AddressSpace:
    """A simulated process address space with fault-injection support."""

    def __init__(self, layout: MemoryLayout) -> None:
        self._layout = layout
        self._size = layout.total_size
        self._mem = bytearray(self._size)
        self.regions: List[Region] = layout.regions
        # Coarse page -> region-index map for O(1) bounds/region checks.
        page_map = [-1] * ((self._size + PAGE_SIZE - 1) // PAGE_SIZE)
        for region in self.regions:
            for page in range(region.base // PAGE_SIZE, region.end // PAGE_SIZE):
                page_map[page] = region.index
        self._page_map = page_map
        self._region_ends = [region.end for region in self.regions]
        self._time = 0
        # Per-region access counters (bytes loaded / stored, access counts).
        n = len(self.regions)
        self._load_bytes = [0] * n
        self._store_bytes = [0] * n
        self._load_ops = [0] * n
        self._store_ops = [0] * n
        # Fault machinery.
        self._overlay = HardFaultOverlay()
        self.fault_log = FaultLog()
        # Consumption tracking for injected fault addresses (used by the
        # outcome taxonomy): addr -> [reads_before_overwrite, overwritten].
        self._tracked_faults: Dict[int, List[int]] = {}
        # Fast path state. `_guard_lo/_guard_hi` bound every tracked fault
        # address (every stuck-at overlay byte is tracked too); an access
        # that does not overlap the interval is provably clean.
        # `_overlay_keys`/`_tracked_keys` are the sorted fault addresses
        # the checked path bisects instead of scanning.
        self._fast = fastpath_enabled()
        self._overlay_keys: List[int] = []
        self._tracked_keys: List[int] = []
        self._guard_lo = self._size + 1
        self._guard_hi = -1
        # Per-region content versions: bumped whenever a region's stored
        # bytes may have changed. Workload drivers key pristine-data
        # caches on these so a memcmp re-verification happens only after
        # an actual mutation, not per access.
        self._region_versions = [0] * n
        # Dirty pages since the last snapshot/restore of `_baseline`.
        self._baseline: Optional[MemorySnapshot] = None
        self._dirty_pages: Set[int] = set()
        self._fast_hits = 0
        self._fast_fallbacks = 0
        self._restores_full = 0
        self._restores_incremental = 0
        self._restore_bytes_copied = 0
        self._restore_bytes_saved = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total span of the address space including guard gaps."""
        return self._size

    @property
    def layout(self) -> MemoryLayout:
        """The layout this space was built from."""
        return self._layout

    @property
    def time(self) -> int:
        """Current logical time (advances by 1 per access)."""
        return self._time

    @property
    def fast_path_enabled(self) -> bool:
        """Whether this space uses the clean fast path for accesses."""
        return self._fast

    def set_fast_path(self, enabled: bool) -> None:
        """Pin this space to the fast path or the scalar oracle path.

        Semantics are identical either way; this exists for equivalence
        tests and benchmark baselines. Enabling drops any incremental
        restore baseline, so the next ``restore`` is a full copy.
        """
        enabled = bool(enabled)
        if enabled == self._fast:
            return
        self._fast = enabled
        self._baseline = None
        self._dirty_pages.clear()

    def fast_path_stats(self) -> Dict[str, int]:
        """Counters for fast-path hit rate and dirty-page restore savings.

        ``fast_accesses`` / ``checked_accesses`` partition every
        completed load/store by which path served it;
        ``restore_bytes_saved`` is the bytes an incremental restore did
        *not* have to copy versus a full-space copy.
        """
        return {
            "fast_accesses": self._fast_hits,
            "checked_accesses": self._fast_fallbacks,
            "restores_full": self._restores_full,
            "restores_incremental": self._restores_incremental,
            "restore_bytes_copied": self._restore_bytes_copied,
            "restore_bytes_saved": self._restore_bytes_saved,
        }

    def advance_time(self, units: int) -> None:
        """Advance the logical clock, e.g. to model think time between queries."""
        if units < 0:
            raise ValueError(f"time units must be non-negative, got {units}")
        self._time += units

    def region_named(self, name: str) -> Region:
        """Return the region called ``name`` (KeyError if absent)."""
        return self._layout.region_named(name)

    def region_at(self, addr: int) -> Optional[Region]:
        """Return the region containing ``addr``, or None for guard gaps."""
        if 0 <= addr < self._size:
            index = self._page_map[addr // PAGE_SIZE]
            if index >= 0:
                return self.regions[index]
        return None

    # ------------------------------------------------------------------
    # Checked access path (the scalar oracle)
    # ------------------------------------------------------------------
    def _region_index_for(self, addr: int, n: int) -> int:
        """Validate an access and return its region index.

        Raises:
            SegmentationFault: for unmapped, out-of-bounds, or
                region-straddling accesses.
        """
        if n <= 0:
            raise SegmentationFault(addr, n, "non-positive access size")
        end = addr + n - 1
        if addr < 0 or end >= self._size:
            raise SegmentationFault(addr, n, "address out of bounds")
        index = self._page_map[addr // PAGE_SIZE]
        if index < 0:
            raise SegmentationFault(addr, n, "unmapped address")
        region = self.regions[index]
        if end >= region.end:
            raise SegmentationFault(addr, n, "access crosses region boundary")
        return index

    def _fast_index(self, addr: int, n: int) -> int:
        """Fast-path admission check: region index, or -1 to fall back.

        Accepts exactly the accesses the checked path would complete
        without touching a tracked fault; everything else (including
        invalid accesses, which must raise with the oracle's exact
        exception) returns -1.
        """
        if addr < 0 or addr + n > self._size:
            return -1
        index = self._page_map[addr >> _PAGE_SHIFT]
        if index < 0 or addr + n > self._region_ends[index]:
            return -1
        if addr <= self._guard_hi and addr + n > self._guard_lo:
            return -1
        return index

    def read(self, addr: int, n: int) -> bytes:
        """Load ``n`` bytes from ``addr`` with full fault semantics."""
        if self._fast and n > 0:
            index = self._fast_index(addr, n)
            if index >= 0:
                self._time += 1
                self._load_ops[index] += 1
                self._load_bytes[index] += n
                self._fast_hits += 1
                return bytes(self._mem[addr : addr + n])
        return self._read_guarded(addr, n)

    def _read_guarded(self, addr: int, n: int) -> bytes:
        index = self._region_index_for(addr, n)
        if self._fast:
            self._fast_fallbacks += 1
        self._time += 1
        self._load_ops[index] += 1
        self._load_bytes[index] += n
        data = bytes(self._mem[addr : addr + n])
        if self._overlay:
            data = self._apply_overlay(addr, data)
        if self._tracked_faults:
            self._note_tracked(addr, n, is_store=False)
        return data

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data`` at ``addr`` with full fault semantics.

        Raises:
            ProtectionFault: if the target region is frozen.
        """
        n = len(data)
        if self._fast and n > 0:
            index = self._fast_index(addr, n)
            if index >= 0 and not self.regions[index].frozen:
                self._time += 1
                self._store_ops[index] += 1
                self._store_bytes[index] += n
                self._mem[addr : addr + n] = data
                self._mark_dirty(addr, n)
                self._region_versions[index] += 1
                self._fast_hits += 1
                return
        self._write_guarded(addr, data)

    def _write_guarded(self, addr: int, data: bytes) -> None:
        n = len(data)
        index = self._region_index_for(addr, n)
        region = self.regions[index]
        if region.frozen:
            raise ProtectionFault(addr, region.name)
        if self._fast:
            self._fast_fallbacks += 1
        self._time += 1
        self._store_ops[index] += 1
        self._store_bytes[index] += n
        self._mem[addr : addr + n] = data
        self._region_versions[index] += 1
        if self._fast:
            self._mark_dirty(addr, n)
        if self._tracked_faults:
            self._note_tracked(addr, n, is_store=True)

    def _apply_overlay(self, addr: int, data: bytes) -> bytes:
        keys = self._overlay_keys
        end = addr + len(data)
        i = bisect_left(keys, addr)
        if i == len(keys) or keys[i] >= end:
            return data
        patched = bytearray(data)
        overlay = self._overlay
        total = len(keys)
        while i < total:
            fault_addr = keys[i]
            if fault_addr >= end:
                break
            offset = fault_addr - addr
            patched[offset] = overlay.apply(fault_addr, patched[offset])
            i += 1
        return bytes(patched)

    def _note_tracked(self, addr: int, n: int, is_store: bool) -> None:
        keys = self._tracked_keys
        end = addr + n
        i = bisect_left(keys, addr)
        tracked = self._tracked_faults
        total = len(keys)
        while i < total:
            fault_addr = keys[i]
            if fault_addr >= end:
                break
            state = tracked[fault_addr]
            if is_store:
                state[1] = 1
            elif not state[1]:
                state[0] += 1
            i += 1

    def _refresh_guards(self) -> None:
        """Rebuild sorted fault-key lists and the guarded-address interval.

        The interval spans the tracked keys alone: every overlay byte is
        also tracked (:meth:`inject_hard_fault` tracks it, and both clear
        methods clear the two sets over the same range).
        """
        self._overlay_keys = sorted(self._overlay.masks)
        self._tracked_keys = keys = sorted(self._tracked_faults)
        if keys:
            self._guard_lo, self._guard_hi = keys[0], keys[-1]
        else:
            self._guard_lo, self._guard_hi = self._size + 1, -1

    def _mark_dirty(self, addr: int, n: int) -> None:
        first = addr >> _PAGE_SHIFT
        last = (addr + n - 1) >> _PAGE_SHIFT
        if first == last:
            self._dirty_pages.add(first)
        else:
            self._dirty_pages.update(range(first, last + 1))

    def _bump_span_versions(self, addr: int, n: int) -> None:
        """Bump the content version of every region overlapping the span.

        Versions track *stored* bytes only: stuck-at overlays never touch
        stored memory (the guard interval already excludes them from any
        clean-span claim), so hard-fault installation does not bump.
        """
        page_map = self._page_map
        versions = self._region_versions
        previous = -1
        for page in range(addr >> _PAGE_SHIFT, ((addr + n - 1) >> _PAGE_SHIFT) + 1):
            index = page_map[page]
            if index >= 0 and index != previous:
                versions[index] += 1
                previous = index

    # ------------------------------------------------------------------
    # Clean-span fusion hooks (used by batched workload drivers)
    # ------------------------------------------------------------------
    def version_at(self, addr: int) -> int:
        """Content version of the region containing ``addr``.

        Bumped on every mutation of that region's stored bytes (stores,
        pokes, soft flips, snapshot restores). Callers key caches of
        decoded pristine data on this counter so expensive
        re-verification only happens after an actual mutation.
        """
        index = self._page_map[addr >> _PAGE_SHIFT]
        if index < 0:
            raise SegmentationFault(addr, 1, "version query at unmapped address")
        return self._region_versions[index]

    def span_is_clean(self, addr: int, n: int) -> bool:
        """True when reads of ``[addr, addr+n)`` are provably unobserved.

        A clean span lies inside one region and intersects no tracked
        fault (stuck-at overlays included), so a batch of loads from it
        returns stored bytes verbatim and has no side effects beyond
        clock/counter accounting (which callers settle separately via
        :meth:`charge_reads`). Always False in oracle mode.
        """
        return self._fast and n > 0 and self._fast_index(addr, n) >= 0

    def charge_reads(
        self,
        addr: int,
        ops: int,
        nbytes: int,
        spans: Sequence[Tuple[int, int]] = (),
    ) -> None:
        """Account for ``ops`` fused loads totalling ``nbytes`` bytes.

        Settles the exact clock/counter debt of a batch of loads that a
        driver satisfied from a pristine-data cache instead of issuing
        individually. Only valid for spans vetted via :meth:`span_is_clean`
        (same region, no fault interaction), where deferred
        bulk accounting is observationally identical to per-access updates.
        ``spans`` names the bytes those loads read, as ``(offset,
        length)`` pairs relative to ``addr`` (default: the ``nbytes`` at
        ``addr``). Accounting ignores it; the access-trace recorder
        (:mod:`repro.memory.trace`), which shadows this method, logs it.
        """
        index = self._page_map[addr >> _PAGE_SHIFT]
        if index < 0:
            raise SegmentationFault(addr, 1, "charge at unmapped address")
        self._time += ops
        self._load_ops[index] += ops
        self._load_bytes[index] += nbytes
        self._fast_hits += ops

    def region_versions(self) -> Tuple[int, ...]:
        """Current content version of every region, in region order.

        The whole-space analogue of :meth:`version_at`: an unchanged
        tuple proves stored bytes did not mutate since it was captured
        (overlay installs excepted, which never touch stored bytes), so
        callers can memoize whole-space comparisons on it.
        """
        return tuple(self._region_versions)

    def charge_recorded(
        self,
        time_units: int,
        per_region: Sequence[Sequence[int]],
        path: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Settle the exact clock/counter debt of accesses not issued.

        ``per_region`` is aligned with :attr:`regions` order; each entry
        is ``(load_ops, load_bytes, store_ops, store_bytes)``. Callers
        that stand in for a run of clean accesses apply its deltas here,
        so clock and per-region counters end up byte-for-byte where live
        execution would have left them: fused replay (deltas recorded by
        the access trace during the golden replay) and bulk builds such
        as :meth:`~repro.apps.kvstore.store.KVStore.preload` (deltas
        computed from the layout they write). The accesses are credited
        to the fast path only when it is on; in oracle mode, like the
        checked path, nothing is counted as a hit or a fallback. ``path``
        overrides that credit with the fast-path hits and fallbacks the
        accesses were recorded making (a serve epoch record's live
        requests, :mod:`repro.memory.trace`).
        """
        self._time += int(time_units)
        ops = 0
        for index, (lops, lbytes, sops, sbytes) in enumerate(per_region):
            if lops or lbytes:
                self._load_ops[index] += int(lops)
                self._load_bytes[index] += int(lbytes)
            if sops or sbytes:
                self._store_ops[index] += int(sops)
                self._store_bytes[index] += int(sbytes)
            ops += int(lops) + int(sops)
        if path is not None:
            self._fast_hits += path[0]
            self._fast_fallbacks += path[1]
        elif self._fast:
            self._fast_hits += ops

    def dirty_pages(self) -> List[int]:
        """Sorted pages written since the last snapshot or restore.

        Every mutation of stored bytes on the fast path (stores, pokes,
        soft flips) marks its pages, so a page outside this list still
        holds its baseline bytes — fused replay confines
        its golden-image comparison to these pages. Empty in oracle mode
        (the slow path does not track dirty pages).
        """
        return sorted(self._dirty_pages)

    @property
    def dirty_baseline(self) -> Optional[MemorySnapshot]:
        """The snapshot :meth:`dirty_pages` is relative to.

        Every page outside ``dirty_pages()`` holds this snapshot's
        bytes. None in oracle mode and before the first snapshot or
        restore on the fast path: nothing is tracked then.
        """
        return self._baseline

    def mark_pages_dirty(self, pages: Iterable[int]) -> None:
        """Add pages to the dirty set (restore copies them, see above)."""
        self._dirty_pages.update(pages)

    def tracked_addresses(self) -> Tuple[int, ...]:
        """Sorted tracked fault addresses — every byte where an access can
        observe or cause something other than plain stored memory.

        Soft flips corrupt reads, stuck-at overlays reassert on reads
        (every overlay byte is tracked), and a store to either is
        consumption bookkeeping. Fused drivers replay recorded work only
        for spans that avoid every one of these addresses.
        """
        return tuple(self._tracked_keys)

    def accounting_state(self) -> tuple:
        """Clock, per-region counters and path counters, by value.

        With :meth:`restore_accounting` this makes a replay invisible to
        accounting: :mod:`repro.memory.trace` records a fault-free run
        between the two calls.
        """
        return (
            self._time,
            list(self._load_ops),
            list(self._load_bytes),
            list(self._store_ops),
            list(self._store_bytes),
            self._fast_hits,
            self._fast_fallbacks,
        )

    def restore_accounting(self, state: tuple) -> None:
        """Roll accounting back to a value of :meth:`accounting_state`."""
        self._time, lops, lbytes, sops, sbytes, hits, fallbacks = state
        self._load_ops, self._load_bytes = list(lops), list(lbytes)
        self._store_ops, self._store_bytes = list(sops), list(sbytes)
        self._fast_hits, self._fast_fallbacks = hits, fallbacks

    def settle_recorded_trial(
        self,
        end_time: int,
        per_region: Sequence[Sequence[int]],
        trials: int = 1,
    ) -> None:
        """Settle the exact accounting of analytically resolved trials.

        A pruned trial's execution is provably byte-identical to the
        golden replay, so its clock and counter effects are known without
        running it: the per-region deltas recorded by the golden trace
        are added — ``trials`` times over for a run of consecutive
        pruned trials — and the clock is *set* to the replay's absolute
        end time (every trial starts from the same snapshot restore, so
        the end time is an absolute, idempotent fact — correct after any
        interleaving of pruned and executed trials). The skipped
        accesses are credited to the fast path once each when it is on;
        in oracle mode, like :meth:`charge_recorded`, nothing is counted
        as a hit or a fallback.
        """
        ops = 0
        for index, (lops, lbytes, sops, sbytes) in enumerate(per_region):
            if lops or lbytes:
                self._load_ops[index] += int(lops) * trials
                self._load_bytes[index] += int(lbytes) * trials
            if sops or sbytes:
                self._store_ops[index] += int(sops) * trials
                self._store_bytes[index] += int(sbytes) * trials
            ops += int(lops) + int(sops)
        self._time = int(end_time)
        if self._fast:
            self._fast_hits += ops * trials

    def start_capture(self) -> tuple:
        """Mark the start of a stretch of accesses to record (opaque).

        :meth:`finish_capture` turns the accesses since the mark into
        :class:`RecordedEffects` that :meth:`replay` applies again.
        """
        consumption = {addr: tuple(state) for addr, state in self._tracked_faults.items()}
        return self.accounting_state(), consumption

    def finish_capture(
        self, mark: tuple, spans: Iterable[Tuple[int, int]]
    ) -> RecordedEffects:
        """Record what the accesses since ``mark`` did to this space.

        The clock, per-region counters and path counters move by deltas;
        each tracked byte's consumption is recorded as (overwritten at the
        mark, reads added since, overwritten now). ``spans`` are the
        ``(addr, length)`` spans the stretch stored to, all of their
        bytes: their contents now are what a replay writes back. Stores
        elsewhere are not recorded — the caller vouches there were none.
        """
        (time, lops, lbytes, sops, sbytes, hits, fallbacks), consumed = mark
        effects = RecordedEffects()
        effects.time = self._time - time
        effects.counters = tuple(
            tuple(now - then for now, then in zip(current, start))
            for current, start in (
                (self._load_ops, lops),
                (self._load_bytes, lbytes),
                (self._store_ops, sops),
                (self._store_bytes, sbytes),
            )
        )
        effects.fast_hits = self._fast_hits - hits
        effects.fast_fallbacks = self._fast_fallbacks - fallbacks
        effects.consumption = tuple(
            (addr, bool(consumed[addr][1]), state[0] - consumed[addr][0], state[1])
            for addr, state in self._tracked_faults.items()
            if addr in consumed
        )
        effects.writes = tuple(
            (addr, bytes(self._mem[addr : addr + length])) for addr, length in spans
        )
        return effects

    def can_replay(self, effects: RecordedEffects) -> bool:
        """Whether :meth:`replay` reproduces ``effects`` exactly now.

        Consumption is the one state a recorded stretch may not have
        seen: reads of a byte count only until its first overwrite, so a
        stretch that started with a byte overwritten does not say how
        many reads a fresh byte would take. Such a stretch replays only
        where the byte is overwritten now too; a byte no longer tracked
        refuses it.
        """
        tracked = self._tracked_faults
        for addr, started_overwritten, _reads, _ended in effects.consumption:
            state = tracked.get(addr)
            if state is None or (started_overwritten and not state[1]):
                return False
        return True

    def replay(self, effects: RecordedEffects) -> None:
        """Apply recorded effects as if their accesses ran again.

        Only where :meth:`can_replay` holds, the stretch's inputs repeat
        exactly (the caller's key) and on the fast path: the clock,
        counters and path counters move by the recorded deltas, each
        tracked byte not overwritten now takes the recorded reads and
        overwrite, and the recorded spans get their final bytes back —
        pages marked dirty and content versions bumped like any store.
        """
        self._time += effects.time
        for counter, deltas in zip(
            (self._load_ops, self._load_bytes, self._store_ops, self._store_bytes),
            effects.counters,
        ):
            for index, delta in enumerate(deltas):
                counter[index] += delta
        self._fast_hits += effects.fast_hits
        self._fast_fallbacks += effects.fast_fallbacks
        tracked = self._tracked_faults
        for addr, _started, reads, ended in effects.consumption:
            state = tracked[addr]
            if not state[1]:
                state[0] += reads
                state[1] = ended
        for addr, data in effects.writes:
            self._mem[addr : addr + len(data)] = data
            self._bump_span_versions(addr, len(data))
            self._mark_dirty(addr, len(data))

    def fault_state(self) -> tuple:
        """Every resident fault, by value: the sorted tracked addresses and
        the stuck-at masks of every overlay byte. Equal states make every
        load and store behave alike on equal stored bytes."""
        masks = self._overlay.masks
        return tuple(self._tracked_keys), tuple((addr, masks[addr]) for addr in self._overlay_keys)

    # ------------------------------------------------------------------
    # Typed accessors
    # ------------------------------------------------------------------
    def read_u8(self, addr: int) -> int:
        """Load one unsigned byte."""
        if self._fast:
            index = self._fast_index(addr, 1)
            if index >= 0:
                self._time += 1
                self._load_ops[index] += 1
                self._load_bytes[index] += 1
                self._fast_hits += 1
                return self._mem[addr]
        return self._read_guarded(addr, 1)[0]

    def read_u16(self, addr: int) -> int:
        """Load an unsigned little-endian 16-bit integer."""
        if self._fast:
            index = self._fast_index(addr, 2)
            if index >= 0:
                self._time += 1
                self._load_ops[index] += 1
                self._load_bytes[index] += 2
                self._fast_hits += 1
                return _STRUCT_U16.unpack_from(self._mem, addr)[0]
        return int.from_bytes(self._read_guarded(addr, 2), "little")

    def read_u32(self, addr: int) -> int:
        """Load an unsigned little-endian 32-bit integer."""
        if self._fast:
            index = self._fast_index(addr, 4)
            if index >= 0:
                self._time += 1
                self._load_ops[index] += 1
                self._load_bytes[index] += 4
                self._fast_hits += 1
                return _STRUCT_U32.unpack_from(self._mem, addr)[0]
        return int.from_bytes(self._read_guarded(addr, 4), "little")

    def read_u64(self, addr: int) -> int:
        """Load an unsigned little-endian 64-bit integer."""
        if self._fast:
            index = self._fast_index(addr, 8)
            if index >= 0:
                self._time += 1
                self._load_ops[index] += 1
                self._load_bytes[index] += 8
                self._fast_hits += 1
                return _STRUCT_U64.unpack_from(self._mem, addr)[0]
        return int.from_bytes(self._read_guarded(addr, 8), "little")

    def read_i32(self, addr: int) -> int:
        """Load a signed little-endian 32-bit integer."""
        if self._fast:
            index = self._fast_index(addr, 4)
            if index >= 0:
                self._time += 1
                self._load_ops[index] += 1
                self._load_bytes[index] += 4
                self._fast_hits += 1
                return _STRUCT_I32.unpack_from(self._mem, addr)[0]
        return int.from_bytes(self._read_guarded(addr, 4), "little", signed=True)

    def read_f32(self, addr: int) -> float:
        """Load a little-endian IEEE-754 single."""
        if self._fast:
            index = self._fast_index(addr, 4)
            if index >= 0:
                self._time += 1
                self._load_ops[index] += 1
                self._load_bytes[index] += 4
                self._fast_hits += 1
                return _STRUCT_F32.unpack_from(self._mem, addr)[0]
        return _STRUCT_F32.unpack(self._read_guarded(addr, 4))[0]

    def read_f64(self, addr: int) -> float:
        """Load a little-endian IEEE-754 double."""
        if self._fast:
            index = self._fast_index(addr, 8)
            if index >= 0:
                self._time += 1
                self._load_ops[index] += 1
                self._load_bytes[index] += 8
                self._fast_hits += 1
                return _STRUCT_F64.unpack_from(self._mem, addr)[0]
        return _STRUCT_F64.unpack(self._read_guarded(addr, 8))[0]

    def read_record(self, addr: int, record: Record) -> tuple:
        """Load every field of a packed ``record`` at ``addr``, as a tuple.

        Semantically identical to one typed scalar load per field in
        address order — one clock tick, one load op and the field's
        width in load bytes each — but one admission check and one
        unpack on the fast path. Whatever that check cannot admit (guard
        overlap, straddle, oracle mode) decomposes into the scalar
        accessors, so exceptions, overlay and consumption are theirs.
        """
        if self._fast:
            index = self._fast_index(addr, record.size)
            if index >= 0:
                count = record.count
                self._time += count
                self._load_ops[index] += count
                self._load_bytes[index] += record.size
                self._fast_hits += count
                return record.struct.unpack_from(self._mem, addr)
        return tuple(getattr(self, name)(addr + offset) for offset, name in record._readers)

    def write_record(self, addr: int, record: Record, values: Sequence) -> None:
        """Store ``values`` into the fields of a packed ``record`` at ``addr``.

        Semantically identical to one typed scalar store per field in
        address order (one tick, one store op, the field's width in
        bytes each) with one admission check on the fast path. It
        decomposes into the scalar stores on a guard overlap, a frozen
        region, a straddle, in oracle mode, and when a value does not
        pack as the field stores it: an f32 beyond single range (the
        scalar store saturates it to infinity) or an integer outside the
        field's range (the scalar store masks it).
        """
        if self._fast:
            index = self._fast_index(addr, record.size)
            if index >= 0 and not self.regions[index].frozen:
                try:
                    packed = record.struct.pack(*values)
                except (struct.error, OverflowError):
                    packed = None
                if packed is not None:
                    count = record.count
                    size = record.size
                    self._time += count
                    self._store_ops[index] += count
                    self._store_bytes[index] += size
                    self._mem[addr : addr + size] = packed
                    self._mark_dirty(addr, size)
                    self._region_versions[index] += 1
                    self._fast_hits += count
                    return
        if len(values) != record.count:
            raise ValueError(f"{record!r} takes {record.count} values, got {len(values)}")
        for (offset, name), value in zip(record._writers, values):
            getattr(self, name)(addr + offset, value)

    def write_u8(self, addr: int, value: int) -> None:
        """Store one unsigned byte."""
        self.write(addr, bytes(((value & 0xFF),)))

    def write_u16(self, addr: int, value: int) -> None:
        """Store an unsigned little-endian 16-bit integer."""
        self.write(addr, (value & 0xFFFF).to_bytes(2, "little"))

    def write_u32(self, addr: int, value: int) -> None:
        """Store an unsigned little-endian 32-bit integer."""
        self.write(addr, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def write_u64(self, addr: int, value: int) -> None:
        """Store an unsigned little-endian 64-bit integer."""
        self.write(addr, (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))

    def write_f32(self, addr: int, value: float) -> None:
        """Store a little-endian IEEE-754 single.

        Doubles beyond f32 range overflow to ±infinity, matching IEEE
        double→single conversion in hardware.
        """
        try:
            packed = _STRUCT_F32.pack(value)
        except (OverflowError, ValueError):
            packed = _STRUCT_F32.pack(
                float("inf") if value > 0 else float("-inf")
            )
        self.write(addr, packed)

    def write_f64(self, addr: int, value: float) -> None:
        """Store a little-endian IEEE-754 double."""
        self.write(addr, _STRUCT_F64.pack(value))

    # ------------------------------------------------------------------
    # Bulk array kernels
    # ------------------------------------------------------------------
    def read_array(self, addr: int, count: int, dtype: str = "<u4") -> np.ndarray:
        """Load ``count`` elements of ``dtype`` starting at ``addr``.

        Semantically identical to ``count`` consecutive element-sized
        loads in ascending address order — ``count`` clock ticks,
        ``count`` load ops, ``count * itemsize`` load bytes, identical
        fault/overlay behaviour and exceptions — but a single
        dispatch and one buffer copy on the fast path. ``count == 0``
        performs no access (an empty loop) and returns an empty array.
        Accepts any NumPy dtype string, including void records such as
        ``"V5"`` for raw fixed-width slots. The returned array owns its
        data (it never aliases simulated memory).
        """
        dt = np.dtype(dtype)
        if count < 0:
            raise ValueError(f"element count must be non-negative, got {count}")
        width = dt.itemsize
        total = count * width
        if count == 0:
            return np.frombuffer(b"", dtype=dt)
        if self._fast:
            index = self._fast_index(addr, total)
            if index >= 0:
                self._time += count
                self._load_ops[index] += count
                self._load_bytes[index] += total
                self._fast_hits += count
                return np.frombuffer(
                    bytes(self._mem[addr : addr + total]), dtype=dt
                )
        data = b"".join(
            self.read(addr + i * width, width) for i in range(count)
        )
        return np.frombuffer(data, dtype=dt)

    def write_array(self, addr: int, values: np.ndarray) -> None:
        """Store a 1-D array's elements starting at ``addr``.

        Semantically identical to one element-sized store per entry in
        ascending address order (little-endian byte images), with the
        matching per-element accounting; fused into a single dispatch
        and one buffer copy when the whole span is provably clean.
        """
        arr = np.ascontiguousarray(values)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D array, got shape {arr.shape}")
        width = arr.dtype.itemsize
        count = arr.size
        total = count * width
        if count == 0:
            return
        if self._fast:
            index = self._fast_index(addr, total)
            if index >= 0 and not self.regions[index].frozen:
                self._time += count
                self._store_ops[index] += count
                self._store_bytes[index] += total
                self._mem[addr : addr + total] = arr.tobytes()
                self._mark_dirty(addr, total)
                self._region_versions[index] += 1
                self._fast_hits += count
                return
        raw = arr.tobytes()
        for i in range(count):
            self.write(addr + i * width, raw[i * width : (i + 1) * width])

    def read_block_array(self, addr: int, count: int, dtype: str = "<u4") -> np.ndarray:
        """Decode one block load of ``count * itemsize`` bytes as an array.

        Semantically identical to ``read(addr, count * itemsize)`` — a
        *single* access on the clock and counters — followed by a NumPy
        decode; the block-read counterpart of :meth:`read_array`.
        """
        dt = np.dtype(dtype)
        return np.frombuffer(self.read(addr, count * dt.itemsize), dtype=dt)

    # ------------------------------------------------------------------
    # Raw access path (hardware / framework side, bypasses all semantics)
    # ------------------------------------------------------------------
    def peek(self, addr: int, n: int = 1) -> bytes:
        """Read raw stored bytes without clock, counters, or faults.

        This is the debugger's-eye view used by the injector and by
        recovery code: it sees the *stored* value, before any stuck-at
        overlay is applied.
        """
        if addr < 0 or addr + n > self._size:
            raise SegmentationFault(addr, n, "peek out of bounds")
        return bytes(self._mem[addr : addr + n])

    def poke(self, addr: int, data: bytes) -> None:
        """Write raw bytes, ignoring frozen regions.

        Used by the injector (hardware errors do not respect page
        protection) and by software recovery (restoring a clean copy).
        """
        if addr < 0 or addr + len(data) > self._size:
            raise SegmentationFault(addr, len(data), "poke out of bounds")
        self._mem[addr : addr + len(data)] = data
        if data:
            self._bump_span_versions(addr, len(data))
            if self._fast:
                self._mark_dirty(addr, len(data))

    def stored_view(self) -> np.ndarray:
        """Read-only uint8 view of the raw stored bytes (no copy).

        The whole-space counterpart of :meth:`peek` for vectorized
        comparisons against a golden image; the view tracks later
        mutations of the space.
        """
        view = np.frombuffer(self._mem, dtype=np.uint8)
        view.flags.writeable = False
        return view

    def poke_scattered(
        self,
        addrs: np.ndarray,
        values: np.ndarray,
        pages: Optional[List[int]] = None,
    ) -> None:
        """Raw-store ``values[i]`` at byte ``addrs[i]`` in one assignment.

        :meth:`poke` for a scattered byte set (a fused run's write
        image): addresses must be distinct and in bounds.
        Every touched page is marked dirty and every touched region's
        content version bumped once. ``pages``, when the caller already
        has them, are the distinct pages of ``addrs``.
        """
        if addrs.size == 0:
            return
        np.frombuffer(self._mem, dtype=np.uint8)[addrs] = values
        if pages is None:
            pages = np.flatnonzero(np.bincount(addrs >> _PAGE_SHIFT)).tolist()
        for index in {self._page_map[page] for page in pages}:
            if index >= 0:
                self._region_versions[index] += 1
        if self._fast:
            self._dirty_pages.update(pages)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_soft_flip(self, addr: int, bit: int) -> InjectedFault:
        """Flip one stored bit (transient error), Algorithm 1(a) of the paper."""
        if not 0 <= bit < 8:
            raise ValueError(f"bit index must be in [0, 8), got {bit}")
        if self.region_at(addr) is None:
            raise SegmentationFault(addr, 1, "soft-error injection at unmapped address")
        self._mem[addr] ^= 1 << bit
        self._bump_span_versions(addr, 1)
        if self._fast:
            self._mark_dirty(addr, 1)
        fault = InjectedFault(
            addr=addr,
            bit=bit,
            kind=FaultKind.SOFT,
            stuck_value=(self._mem[addr] >> bit) & 1,
            injected_at=self._time,
        )
        self.fault_log.record(fault)
        self._tracked_faults.setdefault(addr, [0, 0])
        self._refresh_guards()
        return fault

    def inject_hard_fault(self, addr: int, bit: int, stuck_value: Optional[int] = None) -> InjectedFault:
        """Install a stuck-at bit (recurring error).

        If ``stuck_value`` is None the bit is stuck at the *complement* of
        its current value, matching the paper's flip-and-reapply emulation.
        """
        if not 0 <= bit < 8:
            raise ValueError(f"bit index must be in [0, 8), got {bit}")
        if self.region_at(addr) is None:
            raise SegmentationFault(addr, 1, "hard-error injection at unmapped address")
        if stuck_value is None:
            stuck_value = 1 - ((self._mem[addr] >> bit) & 1)
        self._overlay.add_stuck_bit(addr, bit, stuck_value)
        fault = InjectedFault(
            addr=addr,
            bit=bit,
            kind=FaultKind.HARD,
            stuck_value=stuck_value,
            injected_at=self._time,
        )
        self.fault_log.record(fault)
        self._tracked_faults.setdefault(addr, [0, 0])
        self._refresh_guards()
        return fault

    def track_virtual_fault(self, addr: int, bit: int, kind: FaultKind) -> InjectedFault:
        """Track a hardware-corrected fault without corrupting memory.

        Models an error landing in a word whose region codec transparently
        corrects it (SEC-DED and stronger): stored bytes and the overlay
        are untouched, so every read observes golden data, but the fault
        is logged and its consumption tracked exactly like a real one —
        a read before the first overwrite classifies as corrected-consume
        (masked by logic), an overwrite first as masked-by-overwrite.
        Cleared by :meth:`restore` / :meth:`clear_faults` like any fault.
        """
        if not 0 <= bit < 8:
            raise ValueError(f"bit index must be in [0, 8), got {bit}")
        if self.region_at(addr) is None:
            raise SegmentationFault(
                addr, 1, "virtual-fault tracking at unmapped address"
            )
        fault = InjectedFault(
            addr=addr,
            bit=bit,
            kind=kind,
            stuck_value=(self._mem[addr] >> bit) & 1,
            injected_at=self._time,
        )
        self.fault_log.record(fault)
        self._tracked_faults.setdefault(addr, [0, 0])
        self._refresh_guards()
        return fault

    def clear_faults(self) -> None:
        """Remove all injected faults, their log, and consumption tracking."""
        self._overlay.clear()
        self.fault_log.clear()
        self._tracked_faults.clear()
        self._refresh_guards()

    def clear_faults_in_range(self, addr: int, n: int) -> int:
        """Neutralize resident faults in ``[addr, addr+n)``; returns count.

        Models repair actions that decommission physical cells — page
        retirement migrating data off a faulty page, a rank being mapped
        out — after which the stuck-at overlay and consumption tracking
        for those addresses no longer apply. Stored bytes and the fault
        log (history) are untouched; callers restore clean contents
        separately (:meth:`poke` / :class:`~repro.memory.persistence.RegionBacking`).
        """
        if n <= 0:
            return 0
        end = addr + n
        cleared = 0
        for fault_addr in [a for a in self._overlay.masks if addr <= a < end]:
            del self._overlay.masks[fault_addr]
            cleared += 1
        for fault_addr in [a for a in self._tracked_faults if addr <= a < end]:
            del self._tracked_faults[fault_addr]
        self._refresh_guards()
        return cleared

    def fault_consumption(self, addr: int) -> Tuple[int, bool]:
        """Return (reads_before_overwrite, overwritten) for a fault address.

        Used by the taxonomy to distinguish *masked by overwrite* (never
        read before being overwritten) from *consumed* errors.

        Raises:
            KeyError: if no fault was injected at ``addr``.
        """
        state = self._tracked_faults[addr]
        return state[0], bool(state[1])

    # ------------------------------------------------------------------
    # Region protection
    # ------------------------------------------------------------------
    def freeze_region(self, name: str) -> None:
        """Mark a region read-only (e.g. after building a file-mapped index)."""
        self.region_named(name).frozen = True

    def thaw_region(self, name: str) -> None:
        """Allow writes to a previously frozen region."""
        self.region_named(name).frozen = False

    # ------------------------------------------------------------------
    # Access statistics
    # ------------------------------------------------------------------
    def access_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-region load/store counters since construction (or reset)."""
        stats: Dict[str, Dict[str, int]] = {}
        for region in self.regions:
            i = region.index
            stats[region.name] = {
                "load_ops": self._load_ops[i],
                "store_ops": self._store_ops[i],
                "load_bytes": self._load_bytes[i],
                "store_bytes": self._store_bytes[i],
            }
        return stats

    def reset_access_stats(self) -> None:
        """Zero all per-region counters."""
        n = len(self.regions)
        self._load_bytes = [0] * n
        self._store_bytes = [0] * n
        self._load_ops = [0] * n
        self._store_ops = [0] * n

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> MemorySnapshot:
        """Capture memory contents + clock for later restoration.

        On the fast path the snapshot becomes the dirty-tracking
        baseline: subsequent restores of *this* snapshot copy only the
        pages written since.
        """
        snap = MemorySnapshot(bytes(self._mem), self._time)
        if self._fast:
            self._baseline = snap
            self._dirty_pages.clear()
        return snap

    def restore(self, snap: MemorySnapshot) -> None:
        """Restore a snapshot: clears faults, keeps access stats.

        Models an application restart with pristine data (Figure 2 step 1).
        Restoring the current baseline snapshot copies only dirty pages;
        restoring any other snapshot falls back to a full copy and makes
        that snapshot the new baseline.
        """
        if len(snap.mem) != self._size:
            raise ValueError(
                f"snapshot size {len(snap.mem)} does not match space size {self._size}"
            )
        if self._fast and snap is self._baseline:
            copied = 0
            if self._dirty_pages:
                destination = np.frombuffer(self._mem, dtype=np.uint8)
                source = np.frombuffer(snap.mem, dtype=np.uint8)
                pages = sorted(self._dirty_pages)
                run_start = previous = pages[0]
                for page in pages[1:]:
                    if page != previous + 1:
                        copied += self._copy_page_run(
                            destination, source, run_start, previous
                        )
                        run_start = page
                    previous = page
                copied += self._copy_page_run(
                    destination, source, run_start, previous
                )
            self._restores_incremental += 1
            self._restore_bytes_copied += copied
            self._restore_bytes_saved += self._size - copied
        else:
            self._mem[:] = snap.mem
            self._restores_full += 1
            self._restore_bytes_copied += self._size
            for index in range(len(self._region_versions)):
                self._region_versions[index] += 1
            if self._fast:
                self._baseline = snap
        self._dirty_pages.clear()
        self._time = snap.time
        self.clear_faults()

    def _copy_page_run(
        self,
        destination: np.ndarray,
        source: np.ndarray,
        first_page: int,
        last_page: int,
    ) -> int:
        start = first_page << _PAGE_SHIFT
        end = min((last_page + 1) << _PAGE_SHIFT, self._size)
        destination[start:end] = source[start:end]
        self._bump_span_versions(start, end - start)
        return end - start


def build_address_space(specs: Sequence[RegionSpec]) -> AddressSpace:
    """Convenience constructor from a list of region specs."""
    return AddressSpace(MemoryLayout(list(specs)))
