"""Unit tests for the trial-loop memory fast path.

Covers the pieces the hypothesis equivalence suite exercises only
statistically: dirty-page restore accounting, the record/bulk
accessors' exact clock and counter debts, the clean-span fusion hooks
(``span_is_clean`` / ``version_at`` / ``charge_reads``), fast-path hit
statistics, the campaign memory instruments, and the contiguous
``ProtectedArray.read_batch`` bulk load.
"""

import struct

import numpy as np
import pytest

from repro.ecc import make_codec
from repro.hrm import ProtectedArray
from repro.memory import AddressSpace, standard_layout
from repro.memory.address_space import Record
from repro.memory.errors import ProtectionFault, SegmentationFault
from repro.memory.regions import PAGE_SIZE
from repro.obs import CampaignInstruments, MetricsRegistry


def make_space(*, fast=True):
    space = AddressSpace(standard_layout(heap_size=32768, stack_size=4096))
    space.set_fast_path(fast)
    return space


class TestDirtyPageRestore:
    def test_untouched_restore_copies_nothing(self):
        space = make_space()
        snap = space.snapshot()
        space.restore(snap)
        stats = space.fast_path_stats()
        assert stats["restores_incremental"] == 1
        assert stats["restore_bytes_copied"] == 0
        assert stats["restore_bytes_saved"] == space.size

    def test_incremental_copies_only_dirty_pages(self):
        space = make_space()
        heap = space.region_named("heap")
        snap = space.snapshot()
        # Touch two pages far apart: two runs, two pages copied.
        space.write(heap.base, b"\x01")
        space.write(heap.base + 4 * PAGE_SIZE, b"\x02")
        space.restore(snap)
        stats = space.fast_path_stats()
        assert stats["restores_incremental"] == 1
        assert stats["restore_bytes_copied"] == 2 * PAGE_SIZE
        assert stats["restore_bytes_saved"] == space.size - 2 * PAGE_SIZE
        assert space.peek(heap.base, 1) == b"\x00"
        assert space.peek(heap.base + 4 * PAGE_SIZE, 1) == b"\x00"

    def test_non_baseline_snapshot_falls_back_to_full_copy(self):
        space = make_space()
        heap = space.region_named("heap")
        old_snap = space.snapshot()
        space.write(heap.base, b"\x07")
        space.snapshot()  # new baseline displaces old_snap
        space.write(heap.base, b"\x08")
        space.restore(old_snap)
        stats = space.fast_path_stats()
        assert stats["restores_full"] == 1
        assert stats["restores_incremental"] == 0
        assert stats["restore_bytes_copied"] == space.size
        assert space.peek(heap.base, 1) == b"\x00"
        # The restored snapshot becomes the new baseline.
        space.write(heap.base, b"\x09")
        space.restore(old_snap)
        assert space.fast_path_stats()["restores_incremental"] == 1

    def test_oracle_mode_always_full_copy(self):
        space = make_space(fast=False)
        snap = space.snapshot()
        space.restore(snap)
        space.restore(snap)
        stats = space.fast_path_stats()
        assert stats["restores_full"] == 2
        assert stats["restores_incremental"] == 0

    def test_restore_restores_clock_and_clears_faults(self):
        space = make_space()
        heap = space.region_named("heap")
        space.read(heap.base, 4)
        snap = space.snapshot()
        time_at_snap = space.time
        space.inject_hard_fault(heap.base, 3)
        space.read(heap.base, 4)
        space.restore(snap)
        assert space.time == time_at_snap
        assert len(space.fault_log) == 0
        with pytest.raises(KeyError):
            space.fault_consumption(heap.base)


class TestFusedAccessors:
    def test_read_record_values_and_accounting(self):
        space = make_space()
        heap = space.region_named("heap")
        space.write_u32(heap.base, 0xDEADBEEF)
        space.write_u32(heap.base + 4, 0x12345678)
        before = space.time
        pair = space.read_record(heap.base, Record("II"))
        assert pair == (0xDEADBEEF, 0x12345678)
        assert space.time - before == 2
        stats = space.access_stats()["heap"]
        assert stats["load_ops"] == 2
        assert stats["load_bytes"] == 8

    def test_read_record_decomposes_on_guard_overlap(self):
        fused = make_space()
        scalar = make_space()
        for space in (fused, scalar):
            heap = space.region_named("heap")
            space.write_u32(heap.base, 41)
            space.write_u32(heap.base + 4, 43)
            space.inject_hard_fault(heap.base + 4, 1, stuck_value=1)
        heap = fused.region_named("heap")
        assert fused.read_record(heap.base, Record("II")) == (
            scalar.read_u32(heap.base),
            scalar.read_u32(heap.base + 4),
        )
        assert fused.time == scalar.time

    def test_write_record_values_and_accounting(self):
        space = make_space()
        heap = space.region_named("heap")
        space.reset_access_stats()
        before = space.time
        space.write_record(heap.base, Record("IfH"), (7, 1.5, 9))
        assert space.time - before == 3
        stats = space.access_stats()["heap"]
        assert (stats["store_ops"], stats["store_bytes"]) == (3, 10)
        assert space.peek(heap.base, 10) == struct.pack("<IfH", 7, 1.5, 9)
        assert space.fast_path_stats()["fast_accesses"] >= 3

    def test_write_record_saturates_and_masks_like_scalar_stores(self):
        """Values that do not pack decompose into the scalar stores: an
        f32 beyond single range saturates, a u32 out of range is masked."""
        record = Record("fI")
        fused, scalar = make_space(), make_space()
        heap = fused.region_named("heap")
        for values in ((1e39, 2**32 + 5), (-1e39, -1)):
            fused.write_record(heap.base, record, values)
            scalar.write_f32(heap.base, values[0])
            scalar.write_u32(heap.base + 4, values[1])
            assert fused.peek(heap.base, 8) == scalar.peek(heap.base, 8)
            assert fused.time == scalar.time
        assert fused.read_record(heap.base, record) == (float("-inf"), 2**32 - 1)

    def test_write_record_rejects_a_value_count_mismatch(self):
        space = make_space()
        heap = space.region_named("heap")
        with pytest.raises(ValueError):
            space.write_record(heap.base, Record("II"), (1, 2, 3))

    def test_read_array_accounting_is_per_element(self):
        space = make_space()
        heap = space.region_named("heap")
        space.write_array(heap.base, np.arange(16, dtype="<u4"))
        space.reset_access_stats()
        before = space.time
        out = space.read_array(heap.base, 16, "<u4")
        assert out.tolist() == list(range(16))
        assert space.time - before == 16
        stats = space.access_stats()["heap"]
        assert stats["load_ops"] == 16
        assert stats["load_bytes"] == 64

    def test_read_array_zero_count_is_no_access(self):
        space = make_space()
        heap = space.region_named("heap")
        before = space.time
        assert space.read_array(heap.base, 0).size == 0
        assert space.time == before

    def test_read_array_applies_hard_fault_overlay(self):
        space = make_space()
        heap = space.region_named("heap")
        space.write_array(heap.base, np.zeros(4, dtype="<u4"))
        space.inject_hard_fault(heap.base + 4, 0, stuck_value=1)
        out = space.read_array(heap.base, 4, "<u4")
        assert out.tolist() == [0, 1, 0, 0]

    def test_write_array_frozen_region_raises(self):
        space = make_space()
        heap = space.region_named("heap")
        space.freeze_region("heap")
        with pytest.raises(ProtectionFault):
            space.write_array(heap.base, np.ones(4, dtype="<u4"))

    def test_bulk_kernels_reject_bad_shapes(self):
        space = make_space()
        heap = space.region_named("heap")
        with pytest.raises(ValueError):
            space.read_array(heap.base, -1)
        with pytest.raises(ValueError):
            space.write_array(heap.base, np.ones((2, 2), dtype="<u4"))


class TestCleanSpanFusion:
    def test_span_is_clean_false_in_oracle_mode(self):
        space = make_space(fast=False)
        heap = space.region_named("heap")
        assert not space.span_is_clean(heap.base, 64)

    def test_span_is_clean_false_on_guard_overlap(self):
        space = make_space()
        heap = space.region_named("heap")
        assert space.span_is_clean(heap.base, 64)
        space.inject_soft_flip(heap.base + 32, 0)
        assert not space.span_is_clean(heap.base, 64)
        assert space.span_is_clean(heap.base + 64, 64)
        space.clear_faults()
        assert space.span_is_clean(heap.base, 64)

    def test_span_is_clean_false_across_region_boundary(self):
        space = make_space()
        heap = space.region_named("heap")
        assert not space.span_is_clean(heap.end - 4, 8)

    def test_version_at_unmapped_raises(self):
        space = make_space()
        with pytest.raises(SegmentationFault):
            space.version_at(space.size - 1)

    def test_charge_reads_unmapped_raises(self):
        space = make_space()
        with pytest.raises(SegmentationFault):
            space.charge_reads(space.size - 1, 1, 4)

    def test_charge_reads_settles_exact_debt(self):
        space = make_space()
        heap = space.region_named("heap")
        before = space.time
        space.charge_reads(heap.base, 10, 40)
        assert space.time - before == 10
        stats = space.access_stats()["heap"]
        assert stats["load_ops"] == 10
        assert stats["load_bytes"] == 40
        assert space.fast_path_stats()["fast_accesses"] == 10


class TestCaptureReplay:
    """``start_capture`` / ``finish_capture`` / ``replay``: a recorded
    stretch applied again equals running it again."""

    @staticmethod
    def _stretch(space, base):
        """Read a byte, then store over it and its neighbours, then read."""
        space.read_u8(base + 1)
        space.write(base, b"\x11\x22\x33\x44")
        space.read_u32(base)
        space.read(base + 64, 8)

    def _twins(self, kind):
        spaces = [make_space(), make_space()]
        for space in spaces:
            base = space.region_named("heap").base
            space.write(base + 64, b"abcdefgh")
            if kind == "soft":
                space.inject_soft_flip(base + 1, 3)
            else:
                space.inject_hard_fault(base + 65, 2, stuck_value=1)
        return spaces

    @pytest.mark.parametrize("kind", ["soft", "hard"])
    def test_replay_equals_running_again(self, kind):
        recorded, rerun = self._twins(kind)
        base = recorded.region_named("heap").base
        mark = recorded.start_capture()
        self._stretch(recorded, base)
        effects = recorded.finish_capture(mark, [(base, 4)])
        self._stretch(rerun, base)
        # Scribble where the stretch stores: the replay writes it back.
        recorded.poke(base, b"\x00\x00\x00\x00")
        rerun.poke(base, b"\x00\x00\x00\x00")
        assert recorded.can_replay(effects)
        recorded.replay(effects)
        self._stretch(rerun, base)
        assert recorded.time == rerun.time
        assert recorded.access_stats() == rerun.access_stats()
        assert recorded.fast_path_stats() == rerun.fast_path_stats()
        assert recorded.peek(0, recorded.size) == rerun.peek(0, rerun.size)
        for addr in rerun.tracked_addresses():
            assert recorded.fault_consumption(addr) == rerun.fault_consumption(addr)

    def test_started_overwritten_does_not_replay_on_a_fresh_byte(self):
        """Recorded with the byte already overwritten, the stretch's reads
        of it were not counted: a fresh byte would count them."""
        space = make_space()
        base = space.region_named("heap").base
        space.inject_soft_flip(base + 1, 3)
        space.write(base, b"\x00\x00")
        mark = space.start_capture()
        self._stretch(space, base)
        effects = space.finish_capture(mark, [(base, 4)])
        assert space.can_replay(effects)  # still overwritten
        space.clear_faults()
        space.inject_soft_flip(base + 1, 3)
        assert not space.can_replay(effects)

    def test_fault_state_names_tracked_bytes_and_masks(self):
        space = make_space()
        base = space.region_named("heap").base
        assert space.fault_state() == ((), ())
        space.inject_soft_flip(base + 9, 1)
        space.inject_hard_fault(base + 2, 0, stuck_value=1)
        assert space.fault_state() == ((base + 2, base + 9), ((base + 2, (0xFF, 0x01)),))


class TestFastPathStats:
    def test_accesses_partition_by_path(self):
        space = make_space()
        heap = space.region_named("heap")
        space.read(heap.base, 4)  # clean -> fast
        space.inject_soft_flip(heap.base + 1000, 0)
        space.read(heap.base + 1000, 1)  # guarded -> checked
        stats = space.fast_path_stats()
        assert stats["fast_accesses"] == 1
        assert stats["checked_accesses"] == 1

    def test_oracle_mode_counts_no_fallbacks(self):
        space = make_space(fast=False)
        heap = space.region_named("heap")
        space.read(heap.base, 4)
        stats = space.fast_path_stats()
        assert stats["fast_accesses"] == 0
        assert stats["checked_accesses"] == 0


class TestRecordMemoryInstruments:
    def _stats(self, **overrides):
        base = {
            "fast_accesses": 0,
            "checked_accesses": 0,
            "restores_full": 0,
            "restores_incremental": 0,
            "restore_bytes_copied": 0,
            "restore_bytes_saved": 0,
        }
        base.update(overrides)
        return base

    def test_deltas_accumulate(self):
        instruments = CampaignInstruments(MetricsRegistry())
        instruments.record_memory(
            self._stats(fast_accesses=90, checked_accesses=10)
        )
        instruments.record_memory(
            self._stats(
                fast_accesses=60,
                checked_accesses=40,
                restores_incremental=3,
                restore_bytes_copied=4096,
                restore_bytes_saved=28672,
            )
        )
        fastpath = instruments.memory_fastpath
        assert fastpath.labels(path="fast").value == 150
        assert fastpath.labels(path="checked").value == 50
        assert instruments.memory_restores.labels(mode="incremental").value == 3
        restore_bytes = instruments.memory_restore_bytes
        assert restore_bytes.labels(disposition="copied").value == 4096
        assert restore_bytes.labels(disposition="saved").value == 28672
        assert instruments.memory_fastpath_hit_ratio.labels().value == 0.75

    def test_job_and_scan_counters_fold(self):
        instruments = CampaignInstruments(MetricsRegistry())
        instruments.record_memory(
            self._stats(jobs_run=5, jobs_replayed=3, scans_partial=7)
        )
        instruments.record_memory(self._stats(jobs_replayed=2, scans_partial=1))
        jobs = instruments.graph_jobs
        assert jobs.labels(source="run").value == 5
        assert jobs.labels(source="replayed").value == 5
        assert instruments.websearch_scans_partial.labels().value == 8

    def test_matches_live_space_counters(self):
        instruments = CampaignInstruments(MetricsRegistry())
        space = make_space()
        heap = space.region_named("heap")
        snap = space.snapshot()
        space.write(heap.base, b"\xff" * 8)
        space.read(heap.base, 8)
        space.restore(snap)
        instruments.record_memory(space.fast_path_stats())
        stats = space.fast_path_stats()
        assert (
            instruments.memory_fastpath.labels(path="fast").value
            == stats["fast_accesses"]
        )
        assert (
            instruments.memory_restores.labels(mode="incremental").value
            == stats["restores_incremental"]
        )
        assert instruments.memory_fastpath_hit_ratio.labels().value == 1.0


class TestProtectedBatchBulkLoad:
    def _build(self, words=12):
        space = AddressSpace(standard_layout(heap_size=262144))
        space.set_fast_path(True)
        codec = make_codec("SEC-DED")
        array = ProtectedArray(
            space, space.region_named("heap").base, words, codec
        )
        for i in range(words):
            array.write(i, i * 2654435761 % (1 << codec.data_bits))
        return space, array

    def test_contiguous_batch_matches_scalar_reads_and_accounting(self):
        space_a, scalar = self._build()
        space_b, batch = self._build()
        space_a.reset_access_stats()
        space_b.reset_access_stats()
        expected = [scalar.read(i) for i in range(scalar.word_count)]
        assert batch.read_batch() == expected
        assert space_b.time == space_a.time
        assert space_b.access_stats() == space_a.access_stats()

    def test_non_contiguous_indices_use_per_slot_loads(self):
        space_a, scalar = self._build()
        space_b, batch = self._build()
        subset = [7, 2, 9]
        expected = [scalar.read(i) for i in subset]
        assert batch.read_batch(subset) == expected
        assert space_b.time == space_a.time


class TestOracleSelectors:
    """Two ways to pin a space to the oracle path: ``oracle_mode()`` for
    spaces built inside it, ``set_fast_path`` for one that exists."""

    def test_oracle_mode_scopes_the_default_and_restores_it(self):
        from repro.memory.fastpath import fastpath_enabled, oracle_mode

        assert fastpath_enabled()
        with oracle_mode():
            assert not fastpath_enabled()
            inner = AddressSpace(standard_layout(heap_size=4096, stack_size=4096))
            with oracle_mode():
                assert not fastpath_enabled()
            assert not fastpath_enabled()
        assert fastpath_enabled()
        assert not inner.fast_path_enabled
        assert make_space().fast_path_enabled

    def test_the_environment_does_not_select_the_path(self, monkeypatch):
        """``REPRO_MEMORY_FASTPATH`` was read at import until 4.0."""
        import importlib

        from repro.memory import fastpath

        monkeypatch.setenv("REPRO_MEMORY_FASTPATH", "0")
        reloaded = importlib.reload(fastpath)
        assert reloaded.fastpath_enabled()
        assert not hasattr(reloaded, "set_fastpath")
