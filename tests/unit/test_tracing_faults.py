"""Unit tests for recorded access streams and repro.memory.faults."""

import pytest

from repro.core.safe_ratio import AccessEvent
from repro.memory.faults import (
    FaultKind,
    FaultLog,
    HardFaultOverlay,
    InjectedFault,
)
from repro.monitoring import monitor, record_monitored
from tests.unit.test_monitoring import scripted


class TestHardFaultOverlay:
    def test_stuck_at_one(self):
        overlay = HardFaultOverlay()
        overlay.add_stuck_bit(100, 0, 1)
        assert overlay.apply(100, 0b0000) == 0b0001
        assert overlay.apply(100, 0b1111) == 0b1111

    def test_stuck_at_zero(self):
        overlay = HardFaultOverlay()
        overlay.add_stuck_bit(100, 3, 0)
        assert overlay.apply(100, 0xFF) == 0xF7

    def test_multiple_bits_same_byte(self):
        overlay = HardFaultOverlay()
        overlay.add_stuck_bit(5, 0, 1)
        overlay.add_stuck_bit(5, 7, 0)
        assert overlay.apply(5, 0b10000000) == 0b00000001

    def test_other_addresses_untouched(self):
        overlay = HardFaultOverlay()
        overlay.add_stuck_bit(5, 0, 1)
        assert overlay.apply(6, 0) == 0

    def test_clear_and_len(self):
        overlay = HardFaultOverlay()
        assert not overlay
        overlay.add_stuck_bit(1, 1, 1)
        assert overlay and len(overlay) == 1
        overlay.clear()
        assert not overlay

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            HardFaultOverlay().add_stuck_bit(0, 9, 1)

    def test_restuck_overrides(self):
        overlay = HardFaultOverlay()
        overlay.add_stuck_bit(0, 0, 1)
        overlay.add_stuck_bit(0, 0, 0)
        assert overlay.apply(0, 0b1) == 0b0


class TestInjectedFault:
    def test_validation(self):
        with pytest.raises(ValueError):
            InjectedFault(0, 8, FaultKind.SOFT, 1, 0)
        with pytest.raises(ValueError):
            InjectedFault(0, 0, FaultKind.SOFT, 2, 0)

    def test_fault_log(self):
        log = FaultLog()
        log.record(InjectedFault(0, 0, FaultKind.SOFT, 1, 0))
        log.record(InjectedFault(1, 1, FaultKind.HARD, 0, 5))
        assert len(log) == 2
        assert [fault.addr for fault in log.of_kind(FaultKind.HARD)] == [1]
        log.clear()
        assert len(log) == 0


class TestAccessTrace:
    """Per-byte streams read off one recorded replay (repro.monitoring)."""

    def test_attach_records_events(self):
        workload = scripted(
            [
                lambda space, heap: space.write_u8(heap, 3),
                lambda space, heap: space.read_u8(heap),
            ]
        )
        heap = workload.space.region_named("heap").base
        events = monitor(workload, [heap], queries=1).traces[heap]
        assert [event.is_store for event in events] == [True, False]
        assert all(event.addr == heap for event in events)

    def test_detach_stops_recording(self):
        # The recorder shadows the space only for the replay.
        workload = scripted([lambda space, heap: space.write_u8(heap, 3)])
        space = workload.space
        record_monitored(workload, 1)
        assert not {"_region_index_for", "write", "write_array"} & set(vars(space))

    def test_by_address_grouping(self):
        # One two-byte store is one event on each byte it spans.
        workload = scripted([lambda space, heap: space.write(heap, b"ab")])
        heap = workload.space.region_named("heap").base
        traces = monitor(workload, [heap, heap + 1], queries=1).traces
        assert set(traces) == {heap, heap + 1}
        assert traces[heap] == [
            AccessEvent(heap, True, event.time) for event in traces[heap + 1]
        ]

    def test_events_for_filters(self):
        workload = scripted([lambda space, heap: space.write_u8(heap, 1)])
        heap = workload.space.region_named("heap").base
        traces = monitor(workload, [heap, heap + 1], queries=1).traces
        assert len(traces[heap]) == 1
        assert traces[heap + 1] == []

    def test_event_times_monotonic(self):
        workload = scripted(
            [lambda space, heap: [space.write_u8(heap, v) for v in range(5)]]
        )
        heap = workload.space.region_named("heap").base
        result = monitor(workload, [heap], queries=1)
        times = [event.time for event in result.traces[heap]]
        assert times == list(range(result.start_time + 1, result.end_time + 1))
