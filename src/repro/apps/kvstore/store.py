"""In-memory key–value store (Memcached-like) on simulated memory.

Data structures live entirely in the simulated heap, mirroring
Memcached's layout at the fidelity the characterization needs:

* a **bucket array** of u32 entry addresses (0 = empty) — corruption of
  a bucket pointer sends a lookup into unrelated memory (usually a
  failed request via segfault/timeout, occasionally a silent miss);
* **chained entries** ``[next u32 | keylen u16 | vallen u16 | key |
  value]`` allocated from the simulated heap allocator, whose in-memory
  block headers make metadata corruption crash-prone exactly as in a
  native allocator;
* value overwrites happen **in place** when sizes match — the overwrite
  masking that gives written-to data its safety (paper Figure 1,
  outcome 1).
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import QueryTimeout
from repro.apps.websearch.corpus import fnv1a64
from repro.memory.address_space import AddressSpace
from repro.memory.allocator import HeapAllocator
from repro.memory.stack import StackManager

ENTRY_HEADER_SIZE = 8
_ENTRY_HEADER = struct.Struct("<IHH")
#: Longest chain walked before declaring the lookup wedged.
MAX_CHAIN_LENGTH = 128
#: Largest key/value length honoured when parsing a (possibly corrupt)
#: entry header; real Memcached caps item sizes similarly.
MAX_KEY_LENGTH = 250
MAX_VALUE_LENGTH = 8192
_WEDGED_CHAIN = f"hash chain exceeded {MAX_CHAIN_LENGTH} entries"


def _check_caps(key: bytes, value: bytes) -> None:
    """Reject keys and values beyond the protocol caps (ValueError)."""
    if len(key) > MAX_KEY_LENGTH:
        raise ValueError(f"key too long: {len(key)} > {MAX_KEY_LENGTH}")
    if len(value) > MAX_VALUE_LENGTH:
        raise ValueError(f"value too long: {len(value)} > {MAX_VALUE_LENGTH}")


def _chain_ranks(groups: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per element: earlier elements of its group, and the index of the
    latest of them (-1 for none)."""
    order = np.argsort(groups, kind="stable")
    ordered = groups[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    positions = np.arange(len(order))
    starts = np.maximum.accumulate(np.where(first, positions, 0))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = positions - starts
    previous = np.empty(len(order), dtype=np.int64)
    previous[order] = np.where(first, -1, np.roll(order, 1))
    return rank, previous


class KVStore:
    """Chained hash table with in-place value updates."""

    def __init__(
        self,
        space: AddressSpace,
        allocator: HeapAllocator,
        stack: StackManager,
        bucket_count: int = 4096,
    ) -> None:
        if bucket_count <= 0:
            raise ValueError(f"bucket_count must be positive, got {bucket_count}")
        self._space = space
        self._allocator = allocator
        self._stack = stack
        self.bucket_count = bucket_count
        self._buckets_addr = allocator.calloc(bucket_count * 4)
        self.item_count = 0

    # ------------------------------------------------------------------
    def _bucket_addr(self, key: bytes) -> int:
        return self._buckets_addr + (fnv1a64(key) % self.bucket_count) * 4

    def _read_entry_header(self, entry_addr: int):
        raw = self._space.read(entry_addr, ENTRY_HEADER_SIZE)
        return _ENTRY_HEADER.unpack(raw)

    def _find(self, key: bytes, frame) -> Optional[int]:
        """Walk the chain; returns the matching entry address or None."""
        space = self._space
        # The chain cursor is a stack local, consumed on every hop.
        space.write_u32(frame.slot(8), space.read_u32(self._bucket_addr(key)))
        hops = 0
        while True:
            entry_addr = space.read_u32(frame.slot(8))
            if entry_addr == 0:
                return None
            hops += 1
            if hops > MAX_CHAIN_LENGTH:
                raise QueryTimeout(_WEDGED_CHAIN)
            next_addr, keylen, _vallen = self._read_entry_header(entry_addr)
            if keylen == len(key) and keylen <= MAX_KEY_LENGTH:
                stored_key = space.read(entry_addr + ENTRY_HEADER_SIZE, keylen)
                if stored_key == key:
                    return entry_addr
            space.write_u32(frame.slot(8), next_addr)

    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[bytes]:
        """Look up ``key``; returns the value or None on a miss."""
        frame = self._stack.push(64)
        try:
            self._space.write_u16(frame.slot(0), len(key))
            entry_addr = self._find(key, frame)
            if entry_addr is None:
                return None
            _next, keylen, vallen = self._read_entry_header(entry_addr)
            if vallen > MAX_VALUE_LENGTH:
                raise QueryTimeout(f"entry claims {vallen}-byte value")
            return self._space.read(entry_addr + ENTRY_HEADER_SIZE + keylen, vallen)
        finally:
            self._stack.pop()

    def set(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key``.

        Same-size updates rewrite the value in place (masking overwrite);
        size changes reallocate the entry, exercising the allocator and
        its corruption checks.

        Raises:
            ValueError: for keys/values beyond the protocol caps.
        """
        _check_caps(key, value)
        frame = self._stack.push(64)
        try:
            space = self._space
            space.write_u16(frame.slot(0), len(key))
            entry_addr = self._find(key, frame)
            if entry_addr is not None:
                next_addr, keylen, vallen = self._read_entry_header(entry_addr)
                if vallen == len(value):
                    space.write(entry_addr + ENTRY_HEADER_SIZE + keylen, value)
                    return
                self._unlink(key, entry_addr, next_addr)
                self._allocator.free(entry_addr)
                self.item_count -= 1
            self._insert(key, value)
        finally:
            self._stack.pop()

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it was present."""
        frame = self._stack.push(64)
        try:
            entry_addr = self._find(key, frame)
            if entry_addr is None:
                return False
            next_addr, _keylen, _vallen = self._read_entry_header(entry_addr)
            self._unlink(key, entry_addr, next_addr)
            self._allocator.free(entry_addr)
            self.item_count -= 1
            return True
        finally:
            self._stack.pop()

    def preload(self, items: Sequence[Tuple[bytes, bytes]]) -> None:
        """Insert distinct keys into an empty store in one bulk step.

        The build-time twin of ``for key, value in items: self.set(key,
        value)``: it leaves memory, allocator, stack, item count, clock
        and per-region counters exactly where that loop does, and raises
        what the loop raises first (same class and message; the store is
        then unusable, as after any failed build). Instead of issuing the
        loop's accesses it writes the final heap image once — entries
        ``[next | keylen | vallen | key | value]`` whose ``next`` is the
        previous head of their bucket, the allocator headers
        (:meth:`HeapAllocator.malloc_many`) and the bucket heads — and
        settles the accesses with :meth:`AddressSpace.charge_recorded`.
        A key inserted behind ``h`` entries of its bucket, ``m`` of them
        with a key of its length, costs on the stack the frame zeroing
        (when the stack zeroes frames), the ``len(key)`` u16, ``1 + h``
        cursor stores and ``1 + h`` cursor loads; on the heap two bucket
        loads, ``h`` entry-header loads, ``m`` key loads, two allocator
        header stores, the entry header, key and value stores and the
        bucket store. The last key's frame is pushed and written for
        real and survives below the stack top, as the loop leaves it.

        Raises:
            ValueError: for keys or values beyond the protocol caps; also,
                where the loop would not be a plain insert run, for empty
                or repeated keys, empty values, a store that is not empty
                or a space that tracks a fault.
        """
        space, stack = self._space, self._stack
        buckets_in_use = any(space.peek(self._buckets_addr, self.bucket_count * 4))
        if self.item_count or buckets_in_use or space.tracked_addresses():
            raise ValueError("preload needs an empty store on a fault-free space")
        keys = [key for key, _value in items]
        if len(set(keys)) != len(keys):
            raise ValueError("preload keys must be distinct")
        key_lens = np.array([len(key) for key in keys], dtype=np.int64)
        value_lens = np.array([len(value) for _key, value in items], dtype=np.int64)
        if not (key_lens.all() and value_lens.all()):
            raise ValueError("preload keys and values must be non-empty")
        buckets = np.array(
            [fnv1a64(key) % self.bucket_count for key in keys], dtype=np.int64
        )
        depth, previous = _chain_ranks(buckets)
        same_length, _ = _chain_ranks(buckets * (MAX_KEY_LENGTH + 1) + key_lens)
        # The loop stops at the first key over a cap or behind a wedged chain.
        bad = (
            (key_lens > MAX_KEY_LENGTH)
            | (value_lens > MAX_VALUE_LENGTH)
            | (depth > MAX_CHAIN_LENGTH)
        )
        count = int(np.argmax(bad)) if bad.any() else len(items)
        if count:
            frame = stack.push(64)
            try:
                self._write_preload(items[:count], buckets[:count], previous[:count])
                space.write_u16(frame.slot(0), len(keys[count - 1]))
                space.write_u32(frame.slot(8), 0)
                self._settle_preload(
                    frame.size,
                    key_lens[:count],
                    value_lens[:count],
                    int(depth[:count].sum()),
                    same_length[:count],
                )
            finally:
                stack.pop()
            self.item_count = count
        if count < len(items):  # over a cap, else behind a wedged chain
            _check_caps(*items[count])
            raise QueryTimeout(_WEDGED_CHAIN)

    def _write_preload(self, items, buckets, previous) -> None:
        """Allocate and store the entries of :meth:`preload`, raw."""
        sizes = [ENTRY_HEADER_SIZE + len(key) + len(value) for key, value in items]
        addrs = np.array(self._allocator.malloc_many(sizes), dtype=np.int64)
        next_addrs = np.where(previous >= 0, addrs[previous], 0)
        image = b"".join(
            [
                _ENTRY_HEADER.pack(next_addr, len(key), len(value)) + key + value
                for next_addr, (key, value) in zip(next_addrs.tolist(), items)
            ]
        )
        sizes = np.array(sizes, dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        self._space.poke_scattered(
            np.arange(len(image), dtype=np.int64) + np.repeat(addrs - starts, sizes),
            np.frombuffer(image, dtype=np.uint8),
        )
        # A bucket's head is its last entry: the one no entry links to.
        last = np.ones(len(addrs), dtype=bool)
        last[previous[previous >= 0]] = False
        heads = np.zeros(self.bucket_count, dtype="<u4")
        heads[buckets[last]] = addrs[last]
        self._space.poke(self._buckets_addr, heads.tobytes())

    def _settle_preload(self, frame_size, key_lens, value_lens, hops, same_length) -> None:
        """Charge :meth:`preload`'s accesses but the frame writes it made."""
        space, stack = self._space, self._stack
        count = len(key_lens)
        zeroing = 1 if stack.zero_on_push else 0
        per_region = [[0, 0, 0, 0] for _ in space.regions]
        per_region[stack.region.index] = [
            count + hops,
            4 * (count + hops),
            (count - 1) * (zeroing + 2) + hops,
            (count - 1) * (zeroing * frame_size + 6) + 4 * hops,
        ]
        per_region[self._allocator.region.index] = [
            2 * count + hops + int(same_length.sum()),
            8 * count + 8 * hops + int((same_length * key_lens).sum()),
            6 * count,
            20 * count + int(key_lens.sum()) + int(value_lens.sum()),
        ]
        space.charge_recorded(
            sum(lops + sops for lops, _lb, sops, _sb in per_region), per_region
        )

    # ------------------------------------------------------------------
    def _insert(self, key: bytes, value: bytes) -> None:
        space = self._space
        entry_size = ENTRY_HEADER_SIZE + len(key) + len(value)
        entry_addr = self._allocator.malloc(entry_size)
        bucket_addr = self._bucket_addr(key)
        head = space.read_u32(bucket_addr)
        space.write(entry_addr, _ENTRY_HEADER.pack(head, len(key), len(value)))
        space.write(entry_addr + ENTRY_HEADER_SIZE, key)
        space.write(entry_addr + ENTRY_HEADER_SIZE + len(key), value)
        space.write_u32(bucket_addr, entry_addr)
        self.item_count += 1

    def _unlink(self, key: bytes, entry_addr: int, next_addr: int) -> None:
        """Remove ``entry_addr`` from its chain (head or interior)."""
        space = self._space
        bucket_addr = self._bucket_addr(key)
        cursor = space.read_u32(bucket_addr)
        if cursor == entry_addr:
            space.write_u32(bucket_addr, next_addr)
            return
        hops = 0
        while cursor:
            hops += 1
            if hops > MAX_CHAIN_LENGTH:
                raise QueryTimeout("unlink walked a wedged chain")
            cursor_next, _keylen, _vallen = self._read_entry_header(cursor)
            if cursor_next == entry_addr:
                space.write_u32(cursor, next_addr)
                return
            cursor = cursor_next
        raise QueryTimeout("entry vanished from its chain during unlink")
