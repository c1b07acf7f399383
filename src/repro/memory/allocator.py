"""First-fit heap allocator with in-memory block headers.

The allocator manages the *heap* region of a simulated address space.
Each allocated block is preceded by an 8-byte header stored **inside the
simulated memory** — 4 bytes of size and a 4-byte magic/checksum word —
so that bit flips landing in allocator metadata are detected exactly the
way a real allocator detects them: a corrupted header observed during
``free``/``realloc`` raises :class:`HeapCorruptionError`, which the
workload harness treats as an application crash. This reproduces the
paper's observation that heap errors can crash an application even when
payload data would have been tolerated.

Free-space bookkeeping (the free list) is kept on the Python side for
speed; only per-block headers are exposed to fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.memory.address_space import AddressSpace
from repro.memory.errors import AllocationError, HeapCorruptionError
from repro.memory.regions import Region

#: Bytes of header preceding every allocated block (size + magic).
HEADER_SIZE = 8
#: Allocation granularity; keeps blocks aligned for typed accessors.
ALIGNMENT = 8
_MAGIC_BASE = 0x5A5A0000


def _header_magic(size: int) -> int:
    """Magic word derived from the block size; detects size corruption too."""
    return (_MAGIC_BASE ^ (size * 2654435761)) & 0xFFFFFFFF


@dataclass(frozen=True)
class AllocationInfo:
    """Metadata about a live allocation (payload address and size)."""

    addr: int
    size: int


class RegionArena:
    """Sequential carve allocator over one region (no free, no headers).

    The bump-pointer counterpart of :class:`HeapAllocator` for layouts
    that are built once and never freed — protected-array tiers, serving
    partitions, example scaffolding. Unlike ad-hoc cursor arithmetic it
    enforces alignment, keeps carves inside the region, and can leave an
    unallocated guard gap after each carve so a corrupted pointer that
    walks off one carve faults in the gap instead of silently reading
    the next one.
    """

    def __init__(self, region: Region) -> None:
        self._region = region
        self._cursor = region.base
        self._carves: List[AllocationInfo] = []

    @property
    def region(self) -> Region:
        """The region being carved."""
        return self._region

    @property
    def carves(self) -> List[AllocationInfo]:
        """Every carve handed out so far, in address order."""
        return list(self._carves)

    @property
    def used_bytes(self) -> int:
        """Bytes consumed from the region (carves + alignment + guards)."""
        return self._cursor - self._region.base

    @property
    def free_bytes(self) -> int:
        """Bytes still available to carve."""
        return self._region.end - self._cursor

    def carve(self, size: int, *, align: int = 8, guard: int = 0) -> int:
        """Reserve ``size`` bytes; returns the aligned base address.

        Args:
            size: Bytes to reserve (must be positive).
            align: Power-of-two alignment of the returned address.
            guard: Unallocated bytes left after the carve (kept inside
                the region; later carves start beyond them).

        Raises:
            AllocationError: on bad arguments or an exhausted region.
        """
        if size <= 0:
            raise AllocationError(f"carve size must be positive, got {size}")
        if align < 1 or align & (align - 1):
            raise AllocationError(f"alignment must be a power of two, got {align}")
        if guard < 0:
            raise AllocationError(f"guard must be non-negative, got {guard}")
        base = (self._cursor + align - 1) & ~(align - 1)
        if base + size > self._region.end:
            raise AllocationError(
                f"region '{self._region.name}' exhausted: requested {size} B "
                f"at 0x{base:x}, region ends at 0x{self._region.end:x}"
            )
        self._cursor = base + size + guard
        self._carves.append(AllocationInfo(addr=base, size=size))
        return base


class HeapAllocator:
    """First-fit allocator with coalescing free list over one region."""

    def __init__(self, space: AddressSpace, region: Region) -> None:
        self._space = space
        self._region = region
        # Free list of (base, size) spans, kept sorted by base address.
        self._free: List[Tuple[int, int]] = [(region.base, region.size)]
        self._live: Dict[int, int] = {}  # payload addr -> payload size
        self._peak_bytes = 0
        self._allocated_bytes = 0
        self._mutations = 0
        # Set by restore_state: `_free` / `_live` are the caller's
        # containers, copied by `_own` before the first operation on them.
        self._adopted = False
        self._materialized = 0

    @property
    def region(self) -> Region:
        """The heap region being managed."""
        return self._region

    @property
    def live_allocations(self) -> int:
        """Number of currently live blocks."""
        if self._adopted:
            self._own()
        return len(self._live)

    @property
    def allocated_bytes(self) -> int:
        """Total live payload bytes."""
        return self._allocated_bytes

    @property
    def peak_bytes(self) -> int:
        """High-water mark of live payload bytes."""
        return self._peak_bytes

    @property
    def free_bytes(self) -> int:
        """Total bytes available in the free list (excludes headers)."""
        if self._adopted:
            self._own()
        return sum(size for _, size in self._free)

    @property
    def mutations(self) -> int:
        """Bumped by every malloc, free and :meth:`restore_state`: an
        unchanged count proves :meth:`state` is unchanged."""
        return self._mutations

    @property
    def materialized(self) -> int:
        """Private copies taken of containers :meth:`restore_state` adopted:
        at most one per restore, none for a restore nothing reads."""
        return self._materialized

    def malloc(self, size: int) -> int:
        """Allocate ``size`` payload bytes; returns the payload address.

        Raises:
            AllocationError: for non-positive sizes or exhausted heap.
        """
        if self._adopted:
            self._own()
        base, padded = self._claim(size)
        self._write_header(base, padded)
        return base + HEADER_SIZE

    def malloc_many(self, sizes: Sequence[int]) -> List[int]:
        """Allocate one block per size, as successive :meth:`malloc` calls.

        Same payload addresses, bookkeeping and header bytes, and the same
        :class:`AllocationError` at the first size that does not fit (the
        blocks before it stay allocated), but the headers are stored raw,
        in one :meth:`~AddressSpace.poke_scattered`: no clock, counters
        or fault semantics. A caller settles the two u32 header stores
        per block itself and uses this only where no fault is tracked.
        """
        if self._adopted:
            self._own()
        bases: List[int] = []
        headers: List[int] = []
        try:
            for size in sizes:
                base, padded = self._claim(size)
                bases.append(base)
                headers += (padded, _header_magic(padded))
        finally:
            if bases:
                offsets = np.arange(HEADER_SIZE, dtype=np.int64)
                self._space.poke_scattered(
                    (np.array(bases, dtype=np.int64)[:, None] + offsets).ravel(),
                    np.array(headers, dtype="<u4").view(np.uint8),
                )
        return [base + HEADER_SIZE for base in bases]

    def calloc(self, size: int) -> int:
        """Allocate ``size`` zeroed payload bytes."""
        addr = self.malloc(size)
        self._space.write(addr, bytes(size))
        return addr

    def free(self, addr: int) -> None:
        """Release a block previously returned by :meth:`malloc`.

        Raises:
            AllocationError: for an address that is not a live allocation.
            HeapCorruptionError: if the block header fails validation —
                the simulated-memory analogue of a glibc heap abort.
        """
        if self._adopted:
            self._own()
        self._mutations += 1
        padded = self._live.pop(addr, None)
        if padded is None:
            raise AllocationError(f"free of non-allocated address 0x{addr:x}")
        self._validate_header(addr - HEADER_SIZE, padded)
        self._allocated_bytes -= padded - HEADER_SIZE
        self._insert_free_span(addr - HEADER_SIZE, padded)

    def usable_size(self, addr: int) -> int:
        """Return the payload capacity of a live block."""
        if self._adopted:
            self._own()
        padded = self._live.get(addr)
        if padded is None:
            raise AllocationError(f"usable_size of non-allocated address 0x{addr:x}")
        return padded - HEADER_SIZE

    def state(self) -> dict:
        """Capture the allocator's bookkeeping for later restoration.

        Pairs with :meth:`restore_state` and a memory snapshot: restoring
        both returns the heap to a bit- and metadata-consistent past
        state (used by workload checkpoints when operations allocate and
        free after build, e.g. key-value DELETEs).
        """
        if self._adopted:
            self._own()
        return {
            "free": list(self._free),
            "live": dict(self._live),
            "allocated_bytes": self._allocated_bytes,
            "peak_bytes": self._peak_bytes,
        }

    def restore_state(self, state: dict) -> None:
        """Restore bookkeeping captured by :meth:`state`.

        ``state["free"]`` / ``state["live"]`` are adopted by reference
        and never mutated: the first operation that reads them takes
        private copies (:attr:`materialized`). ``free`` may be any
        sequence of ``(base, size)`` spans and ``live`` a mapping or a
        sequence of ``(addr, padded)`` pairs; the caller must not change
        them afterwards.
        """
        self._free = state["free"]
        self._live = state["live"]
        self._adopted = True
        self._allocated_bytes = state["allocated_bytes"]
        self._peak_bytes = state["peak_bytes"]
        self._mutations += 1

    def live_spans(self) -> List[Tuple[int, int]]:
        """(base, end) of every live block including its header.

        Used by samplers that must target *application data* rather than
        free heap space (the paper's ``getMappedAddr`` only returns
        addresses where "a program has data stored").
        """
        if self._adopted:
            self._own()
        spans = [
            (addr - HEADER_SIZE, addr - HEADER_SIZE + padded)
            for addr, padded in self._live.items()
        ]
        spans.sort()
        return spans

    def check_integrity(self) -> None:
        """Validate every live block header (a heap-consistency sweep).

        Raises:
            HeapCorruptionError: on the first corrupted header found.
        """
        if self._adopted:
            self._own()
        for addr, padded in self._live.items():
            self._validate_header(addr - HEADER_SIZE, padded)

    # ------------------------------------------------------------------
    def _own(self) -> None:
        """Replace the containers :meth:`restore_state` adopted by copies."""
        self._free = list(self._free)
        self._live = dict(self._live)
        self._adopted = False
        self._materialized += 1

    def _claim(self, size: int) -> Tuple[int, int]:
        """First-fit bookkeeping of one allocation: (block base, padded size).

        Raises:
            AllocationError: for non-positive sizes or exhausted heap.
        """
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        padded = HEADER_SIZE + ((size + ALIGNMENT - 1) // ALIGNMENT) * ALIGNMENT
        self._mutations += 1
        for index, (base, span) in enumerate(self._free):
            if span >= padded:
                remainder = span - padded
                if remainder:
                    self._free[index] = (base + padded, remainder)
                else:
                    del self._free[index]
                self._live[base + HEADER_SIZE] = padded
                self._allocated_bytes += padded - HEADER_SIZE
                self._peak_bytes = max(self._peak_bytes, self._allocated_bytes)
                return base, padded
        raise AllocationError(
            f"out of heap memory: requested {size} B, {self.free_bytes} B free "
            f"(fragmented across {len(self._free)} spans)"
        )

    def _write_header(self, base: int, padded: int) -> None:
        space = self._space
        space.write_u32(base, padded)
        space.write_u32(base + 4, _header_magic(padded))

    def _validate_header(self, base: int, padded: int) -> None:
        space = self._space
        stored_size = space.read_u32(base)
        stored_magic = space.read_u32(base + 4)
        if stored_size != padded or stored_magic != _header_magic(padded):
            raise HeapCorruptionError(
                base,
                f"header mismatch (size {stored_size} vs {padded}, "
                f"magic 0x{stored_magic:x})",
            )

    def _insert_free_span(self, base: int, size: int) -> None:
        """Insert a span into the sorted free list, coalescing neighbours."""
        free = self._free
        lo, hi = 0, len(free)
        while lo < hi:
            mid = (lo + hi) // 2
            if free[mid][0] < base:
                lo = mid + 1
            else:
                hi = mid
        free.insert(lo, (base, size))
        # Coalesce with successor then predecessor.
        if lo + 1 < len(free) and free[lo][0] + free[lo][1] == free[lo + 1][0]:
            free[lo] = (free[lo][0], free[lo][1] + free[lo + 1][1])
            del free[lo + 1]
        if lo > 0 and free[lo - 1][0] + free[lo - 1][1] == free[lo][0]:
            free[lo - 1] = (free[lo - 1][0], free[lo - 1][1] + free[lo][1])
            del free[lo]
