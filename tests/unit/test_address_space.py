"""Unit tests for repro.memory.address_space."""

import pytest

from repro.memory import (
    AddressSpace,
    ProtectionFault,
    SegmentationFault,
    standard_layout,
)
from repro.memory.faults import FaultKind


@pytest.fixture
def heap_base(space):
    return space.region_named("heap").base


class TestCheckedAccess:
    def test_read_write_roundtrip(self, space, heap_base):
        space.write(heap_base, b"hello")
        assert space.read(heap_base, 5) == b"hello"

    def test_typed_accessors(self, space, heap_base):
        space.write_u64(heap_base, 0x0123456789ABCDEF)
        assert space.read_u64(heap_base) == 0x0123456789ABCDEF
        assert space.read_u32(heap_base) == 0x89ABCDEF  # little-endian low half
        space.write_f64(heap_base + 16, 3.25)
        assert space.read_f64(heap_base + 16) == 3.25
        space.write_i32 = None  # no such method; ensure read_i32 handles sign
        space.write_u32(heap_base + 32, 0xFFFFFFFF)
        assert space.read_i32(heap_base + 32) == -1

    def test_f32_overflow_saturates(self, space, heap_base):
        space.write_f32(heap_base, 1e300)
        assert space.read_f32(heap_base) == float("inf")
        space.write_f32(heap_base, -1e300)
        assert space.read_f32(heap_base) == float("-inf")

    def test_unmapped_read_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.read(0, 1)  # null-guard page

    def test_out_of_bounds_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.read(space.size, 1)
        with pytest.raises(SegmentationFault):
            space.read(-1, 1)

    def test_region_straddling_faults(self, space, heap_base):
        heap = space.region_named("heap")
        with pytest.raises(SegmentationFault):
            space.read(heap.end - 2, 4)

    def test_zero_size_access_faults(self, space, heap_base):
        with pytest.raises(SegmentationFault):
            space.read(heap_base, 0)

    def test_frozen_region_rejects_writes(self, space):
        private = space.region_named("private")
        space.freeze_region("private")
        with pytest.raises(ProtectionFault):
            space.write_u8(private.base, 1)
        space.thaw_region("private")
        space.write_u8(private.base, 1)  # now fine

    def test_poke_bypasses_freeze(self, space):
        private = space.region_named("private")
        space.freeze_region("private")
        space.poke(private.base, b"\x42")
        assert space.peek(private.base)[0] == 0x42

    def test_clock_advances_on_access(self, space, heap_base):
        t0 = space.time
        space.write_u8(heap_base, 1)
        space.read_u8(heap_base)
        assert space.time == t0 + 2

    def test_advance_time(self, space):
        t0 = space.time
        space.advance_time(100)
        assert space.time == t0 + 100
        with pytest.raises(ValueError):
            space.advance_time(-1)


class TestRegionLookup:
    def test_region_at(self, space, heap_base):
        assert space.region_at(heap_base).name == "heap"
        assert space.region_at(0) is None  # null guard
        assert space.region_at(space.size + 10) is None


class TestFaultInjection:
    def test_soft_flip_changes_bit(self, space, heap_base):
        space.write_u8(heap_base, 0b0000)
        space.inject_soft_flip(heap_base, 2)
        assert space.read_u8(heap_base) == 0b0100

    def test_soft_flip_masked_by_overwrite(self, space, heap_base):
        space.write_u8(heap_base, 7)
        space.inject_soft_flip(heap_base, 0)
        space.write_u8(heap_base, 7)
        assert space.read_u8(heap_base) == 7
        reads, overwritten = space.fault_consumption(heap_base)
        assert reads == 0 and overwritten

    def test_hard_fault_survives_overwrite(self, space, heap_base):
        space.write_u8(heap_base, 0)
        space.inject_hard_fault(heap_base, 0)  # stuck at 1 (complement)
        space.write_u8(heap_base, 0)
        assert space.read_u8(heap_base) == 1

    def test_hard_fault_explicit_stuck_value(self, space, heap_base):
        space.write_u8(heap_base, 0xFF)
        space.inject_hard_fault(heap_base, 3, stuck_value=0)
        assert space.read_u8(heap_base) == 0xF7

    def test_hard_fault_visible_in_block_read(self, space, heap_base):
        space.write(heap_base, bytes(16))
        space.inject_hard_fault(heap_base + 5, 0, stuck_value=1)
        block = space.read(heap_base, 16)
        assert block[5] == 1

    def test_consumption_tracking_reads(self, space, heap_base):
        space.write_u8(heap_base, 0)
        space.inject_soft_flip(heap_base, 1)
        space.read_u8(heap_base)
        space.read_u8(heap_base)
        reads, overwritten = space.fault_consumption(heap_base)
        assert reads == 2 and not overwritten

    def test_injection_at_unmapped_rejected(self, space):
        with pytest.raises(SegmentationFault):
            space.inject_soft_flip(0, 0)
        with pytest.raises(SegmentationFault):
            space.inject_hard_fault(0, 0)

    def test_bad_bit_index_rejected(self, space, heap_base):
        with pytest.raises(ValueError):
            space.inject_soft_flip(heap_base, 8)

    def test_fault_log_records_kinds(self, space, heap_base):
        space.inject_soft_flip(heap_base, 0)
        space.inject_hard_fault(heap_base + 1, 1)
        assert len(space.fault_log) == 2
        assert len(space.fault_log.of_kind(FaultKind.SOFT)) == 1
        assert len(space.fault_log.of_kind(FaultKind.HARD)) == 1

    def test_clear_faults(self, space, heap_base):
        space.write_u8(heap_base, 0)
        space.inject_hard_fault(heap_base, 0)
        space.clear_faults()
        assert space.read_u8(heap_base) == 0
        assert len(space.fault_log) == 0

    @staticmethod
    def assert_nothing_guarded(space):
        assert space.tracked_addresses() == ()
        assert not space._overlay
        assert len(space.fault_log) == 0
        assert space._guard_lo > space._guard_hi

    def test_clear_faults_with_nothing_tracked(self, space, heap_base):
        space.clear_faults()  # a fresh space
        self.assert_nothing_guarded(space)
        space.inject_hard_fault(heap_base, 0)
        space.inject_soft_flip(heap_base + 1, 0)
        space.clear_faults()
        self.assert_nothing_guarded(space)
        space.clear_faults()  # again, with nothing left to clear
        self.assert_nothing_guarded(space)
        space.write_u8(heap_base, 0xFF)
        assert space.read_u8(heap_base) == 0xFF


class TestStatsAndSnapshots:
    def test_access_stats_count_per_region(self, space, heap_base):
        space.reset_access_stats()
        space.write(heap_base, b"abcd")
        space.read(heap_base, 4)
        stats = space.access_stats()["heap"]
        assert stats["store_ops"] == 1
        assert stats["load_ops"] == 1
        assert stats["load_bytes"] == 4

    def test_snapshot_restore_roundtrip(self, space, heap_base):
        space.write_u8(heap_base, 55)
        snap = space.snapshot()
        space.write_u8(heap_base, 99)
        space.inject_hard_fault(heap_base + 1, 0)
        space.restore(snap)
        assert space.read_u8(heap_base) == 55
        assert len(space.fault_log) == 0

    def test_restore_wrong_size_rejected(self, space):
        other = AddressSpace(standard_layout(heap_size=4096))
        with pytest.raises(ValueError):
            space.restore(other.snapshot())

    def test_restore_resets_clock(self, space, heap_base):
        snap = space.snapshot()
        space.advance_time(1000)
        space.restore(snap)
        assert space.time == snap.time

    @pytest.mark.parametrize("fast", [True, False])
    def test_charge_recorded_matches_live_accesses(self, fast):
        layout = standard_layout(heap_size=4096, stack_size=4096)
        live, charged = AddressSpace(layout), AddressSpace(layout)
        live.set_fast_path(fast)
        charged.set_fast_path(fast)
        heap = live.region_named("heap").base
        stack = live.region_named("stack").base
        live.write(stack, bytes(64))
        live.write_u32(heap, 7)
        live.read_u32(heap)
        live.read(heap, 8)
        per_region = [[0, 0, 0, 0] for _ in charged.regions]
        per_region[charged.region_named("heap").index] = [2, 12, 1, 4]
        per_region[charged.region_named("stack").index] = [0, 0, 1, 64]
        charged.charge_recorded(4, per_region)
        assert charged.accounting_state() == live.accounting_state()
        assert charged.fast_path_stats()["fast_accesses"] == (4 if fast else 0)
