"""Unit tests for repro.memory.allocator."""

import pytest

from repro.memory import (
    AllocationError,
    HeapAllocator,
    HeapCorruptionError,
)
from repro.memory.allocator import ALIGNMENT, HEADER_SIZE


@pytest.fixture
def allocator(space):
    return HeapAllocator(space, space.region_named("heap"))


class TestMalloc:
    def test_returns_aligned_payloads(self, allocator):
        for size in (1, 7, 8, 9, 100):
            addr = allocator.malloc(size)
            assert addr % ALIGNMENT == 0

    def test_payloads_do_not_overlap(self, allocator):
        blocks = [(allocator.malloc(40), 40) for _ in range(20)]
        spans = sorted(
            (addr - HEADER_SIZE, addr + allocator.usable_size(addr))
            for addr, _size in blocks
        )
        for (start_a, end_a), (start_b, _end_b) in zip(spans, spans[1:]):
            assert end_a <= start_b

    def test_non_positive_size_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.malloc(0)
        with pytest.raises(AllocationError):
            allocator.malloc(-5)

    def test_exhaustion_raises(self, allocator):
        with pytest.raises(AllocationError):
            allocator.malloc(10**9)

    def test_calloc_zeroes(self, allocator, space):
        addr = allocator.calloc(64)
        assert space.read(addr, 64) == bytes(64)

    def test_usable_size_at_least_requested(self, allocator):
        addr = allocator.malloc(13)
        assert allocator.usable_size(addr) >= 13

    def test_accounting(self, allocator):
        assert allocator.allocated_bytes == 0
        a = allocator.malloc(64)
        assert allocator.allocated_bytes == allocator.usable_size(a)
        assert allocator.live_allocations == 1
        allocator.free(a)
        assert allocator.allocated_bytes == 0
        assert allocator.peak_bytes > 0


class TestFree:
    def test_free_then_reuse(self, allocator):
        addr = allocator.malloc(128)
        before = allocator.free_bytes
        allocator.free(addr)
        assert allocator.free_bytes > before
        again = allocator.malloc(128)
        assert again == addr  # first fit reuses the same span

    def test_double_free_rejected(self, allocator):
        addr = allocator.malloc(16)
        allocator.free(addr)
        with pytest.raises(AllocationError):
            allocator.free(addr)

    def test_free_unknown_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.free(12345)

    def test_coalescing_allows_large_realloc(self, allocator):
        total_free = allocator.free_bytes
        blocks = [allocator.malloc(1000) for _ in range(10)]
        for addr in blocks:
            allocator.free(addr)
        assert allocator.free_bytes == total_free
        # After full coalescing one span must satisfy a big request.
        big = allocator.malloc(total_free - HEADER_SIZE)
        allocator.free(big)

    def test_usable_size_unknown_rejected(self, allocator):
        with pytest.raises(AllocationError):
            allocator.usable_size(99)


class TestCorruptionDetection:
    def test_corrupted_size_detected_on_free(self, allocator, space):
        addr = allocator.malloc(48)
        space.poke(addr - HEADER_SIZE, b"\x01")  # flip a size byte
        with pytest.raises(HeapCorruptionError):
            allocator.free(addr)

    def test_corrupted_magic_detected_on_free(self, allocator, space):
        addr = allocator.malloc(48)
        magic = space.peek(addr - 4, 4)
        space.poke(addr - 4, bytes([magic[0] ^ 0x80]) + magic[1:])
        with pytest.raises(HeapCorruptionError):
            allocator.free(addr)

    def test_integrity_sweep(self, allocator, space):
        addresses = [allocator.malloc(32) for _ in range(5)]
        allocator.check_integrity()  # clean heap passes
        space.poke(addresses[2] - HEADER_SIZE, b"\xff")
        with pytest.raises(HeapCorruptionError):
            allocator.check_integrity()

    def test_payload_writes_do_not_corrupt(self, allocator, space):
        addr = allocator.malloc(32)
        space.write(addr, b"\xff" * 32)
        allocator.free(addr)  # header untouched


class TestLiveSpans:
    def test_spans_cover_live_blocks(self, allocator):
        a = allocator.malloc(24)
        b = allocator.malloc(24)
        spans = allocator.live_spans()
        assert len(spans) == 2
        for addr in (a, b):
            assert any(start <= addr < end for start, end in spans)

    def test_spans_sorted_and_shrink_on_free(self, allocator):
        blocks = [allocator.malloc(16) for _ in range(4)]
        allocator.free(blocks[1])
        spans = allocator.live_spans()
        assert spans == sorted(spans)
        assert len(spans) == 3


class TestRestoreCopyOnWrite:
    """restore_state adopts the containers it is given; the first
    operation that reads or changes them works on private copies."""

    def test_restore_defers_the_copy_to_the_first_operation(self, allocator):
        a = allocator.malloc(32)
        saved = allocator.state()
        before = allocator.mutations
        allocator.restore_state(saved)
        assert allocator.materialized == 0
        allocator.restore_state(saved)  # a restore nothing read: no copy
        assert allocator.materialized == 0
        assert allocator.mutations == before + 2  # every restore counts
        allocator.free(a)
        assert allocator.materialized == 1
        allocator.malloc(16)
        assert allocator.materialized == 1

    @pytest.mark.parametrize(
        "operation",
        [
            lambda alloc, addr: alloc.malloc(24),
            lambda alloc, addr: alloc.malloc_many([24, 40]),
            lambda alloc, addr: alloc.calloc(24),
            lambda alloc, addr: alloc.free(addr),
            lambda alloc, addr: alloc.usable_size(addr),
            lambda alloc, addr: alloc.live_spans(),
            lambda alloc, addr: alloc.check_integrity(),
            lambda alloc, addr: alloc.state(),
            lambda alloc, addr: alloc.free_bytes,
            lambda alloc, addr: alloc.live_allocations,
        ],
    )
    def test_every_entry_point_leaves_adopted_containers_alone(
        self, allocator, operation
    ):
        addr = allocator.malloc(32)
        saved = allocator.state()
        free, live = list(saved["free"]), dict(saved["live"])
        allocator.restore_state(saved)
        operation(allocator, addr)
        assert allocator.materialized == 1
        assert saved["free"] == free and saved["live"] == live
        # Later operations keep working on the private copies.
        allocator.malloc(8)
        assert saved["free"] == free and saved["live"] == live

    def test_recorded_tuples_are_adopted_as_they_are(self, allocator):
        a = allocator.malloc(32)
        allocator.malloc(48)
        state = allocator.state()
        recorded = {
            "free": tuple(state["free"]),
            "live": tuple(sorted(state["live"].items())),
            "allocated_bytes": state["allocated_bytes"],
            "peak_bytes": state["peak_bytes"],
        }
        allocator.free(a)
        before = allocator.mutations
        allocator.restore_state(recorded)
        assert allocator.mutations == before + 1
        assert allocator.live_spans() == [
            (addr - HEADER_SIZE, addr - HEADER_SIZE + padded)
            for addr, padded in recorded["live"]
        ]
        allocator.free(a)  # the recorded heap still holds it
        assert allocator.state()["live"] == dict(recorded["live"][1:])

    def test_state_returns_independent_copies(self, allocator):
        allocator.malloc(32)
        saved = allocator.state()
        allocator.restore_state(saved)
        copy = allocator.state()
        assert copy == saved
        assert copy["free"] is not saved["free"]
        assert copy["live"] is not saved["live"]
        copy["free"].clear()
        copy["live"].clear()
        assert allocator.state() == saved
