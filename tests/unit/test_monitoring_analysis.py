"""Edge-case tests for repro.monitoring.analysis.

Covers the degenerate inputs the campaign analyses must survive: empty
traces, pages written at most once, and addresses that are only ever
stored to (safe ratio exactly 1).
"""

from repro.core.safe_ratio import AccessEvent
from repro.monitoring.analysis import (
    PageWriteInterval,
    page_write_intervals,
    safe_ratio_report,
)
from repro.monitoring.monitor import MonitoringResult
from repro.utils.timescale import TimeScale


def _store(addr, time):
    return AccessEvent(addr=addr, is_store=True, time=time)


def _load(addr, time):
    return AccessEvent(addr=addr, is_store=False, time=time)


class TestSafeRatioReport:
    def test_empty_traces_yield_no_summary(self):
        # Sampled addresses that were never referenced: per-region report
        # exists but has no aggregate (the paper only counts referenced
        # addresses).
        result = MonitoringResult(
            start_time=0,
            end_time=100,
            traces={0x10: [], 0x20: []},
            region_of_addr={0x10: "heap", 0x20: "heap"},
        )
        reports = safe_ratio_report(result)
        assert set(reports) == {"heap"}
        heap = reports["heap"]
        assert heap.summary is None
        assert heap.mean_safe_ratio is None
        assert len(heap.samples) == 2
        assert all(sample.safe_ratio is None for sample in heap.samples)
        assert heap.histogram == [0] * 10

    def test_no_addresses_at_all(self):
        result = MonitoringResult(start_time=0, end_time=100)
        assert safe_ratio_report(result) == {}

    def test_single_access_page(self):
        # One load at t=10 after monitoring starts at t=0: the whole
        # interval is unsafe, ratio 0.
        result = MonitoringResult(
            start_time=0,
            end_time=100,
            traces={0x10: [_load(0x10, 10)]},
            region_of_addr={0x10: "stack"},
        )
        report = safe_ratio_report(result)["stack"]
        assert report.mean_safe_ratio == 0.0
        assert report.histogram[0] == 1

    def test_all_store_addresses_are_fully_safe(self):
        result = MonitoringResult(
            start_time=0,
            end_time=100,
            traces={
                0x10: [_store(0x10, 5), _store(0x10, 50)],
                0x20: [_store(0x20, 90)],
            },
            region_of_addr={0x10: "heap", 0x20: "heap"},
        )
        report = safe_ratio_report(result)["heap"]
        assert report.mean_safe_ratio == 1.0
        assert report.histogram[-1] == 2  # both land in the top bin

    def test_mixed_regions_partition_samples(self):
        result = MonitoringResult(
            start_time=0,
            end_time=100,
            traces={
                0x10: [_store(0x10, 10)],
                0x20: [_load(0x20, 10)],
            },
            region_of_addr={0x10: "heap", 0x20: "stack"},
        )
        reports = safe_ratio_report(result, bins=2)
        assert reports["heap"].mean_safe_ratio == 1.0
        assert reports["stack"].mean_safe_ratio == 0.0
        assert reports["heap"].histogram == [0, 1]
        assert reports["stack"].histogram == [1, 0]


class TestPageWriteIntervals:
    def test_empty_stats(self):
        assert page_write_intervals({}) == []

    def test_single_write_has_no_interval(self):
        intervals = page_write_intervals(
            {3: {"count": 1, "first_write": 40, "last_write": 40}}
        )
        assert intervals == [
            PageWriteInterval(page=3, write_count=1, mean_interval_units=None)
        ]
        scale = TimeScale(units_per_minute=10)
        assert intervals[0].mean_interval_minutes(scale) is None

    def test_mean_interval_over_multiple_writes(self):
        intervals = page_write_intervals(
            {7: {"count": 3, "first_write": 0, "last_write": 100}}
        )
        (interval,) = intervals
        assert interval.write_count == 3
        assert interval.mean_interval_units == 50.0
        scale = TimeScale(units_per_minute=10)
        assert interval.mean_interval_minutes(scale) == 5.0
