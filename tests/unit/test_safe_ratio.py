"""Unit tests for repro.core.safe_ratio."""

import pytest

from repro.core.safe_ratio import (
    AccessEvent,
    SafeRatioSample,
    durations_from_events,
    ratio_histogram,
    region_safe_ratio,
    safe_ratio_samples,
)


def ev(addr, kind, time):
    return AccessEvent(addr=addr, is_store=(kind == "w"), time=time)


class TestDurations:
    def test_paper_definition(self):
        # t=0 start; write@10 (safe 10), read@25 (unsafe 15), read@30
        # (unsafe 5), write@50 (safe 20) -> safe 30, unsafe 20.
        events = [ev(1, "w", 10), ev(1, "r", 25), ev(1, "r", 30), ev(1, "w", 50)]
        sample = durations_from_events(events, start_time=0)
        assert sample.safe_duration == 30
        assert sample.unsafe_duration == 20
        assert sample.safe_ratio == pytest.approx(0.6)

    def test_read_only_address_ratio_zero(self):
        events = [ev(1, "r", 5), ev(1, "r", 9)]
        sample = durations_from_events(events, 0)
        assert sample.safe_ratio == 0.0

    def test_write_only_address_ratio_one(self):
        events = [ev(1, "w", 5), ev(1, "w", 9)]
        sample = durations_from_events(events, 0)
        assert sample.safe_ratio == 1.0

    def test_no_events_ratio_none(self):
        sample = durations_from_events([], 0)
        assert sample.safe_ratio is None

    def test_mixed_addresses_rejected(self):
        with pytest.raises(ValueError):
            durations_from_events([ev(1, "r", 1), ev(2, "r", 2)], 0)

    def test_time_disorder_rejected(self):
        with pytest.raises(ValueError):
            durations_from_events([ev(1, "r", 5), ev(1, "r", 2)], 0)

    def test_event_before_start_rejected(self):
        with pytest.raises(ValueError):
            durations_from_events([ev(1, "r", 5)], start_time=10)

    def test_ratio_always_in_unit_interval(self):
        events = [ev(1, "w", 3), ev(1, "r", 7), ev(1, "w", 8), ev(1, "r", 100)]
        sample = durations_from_events(events, 0)
        assert 0.0 <= sample.safe_ratio <= 1.0
        assert sample.total_duration == 100


class TestAggregation:
    def test_samples_for_traced_addresses(self):
        traces = {
            1: [ev(1, "w", 2)],
            2: [ev(2, "r", 3)],
            3: [],
        }
        samples = safe_ratio_samples(traces, 0)
        by_addr = {sample.addr: sample for sample in samples}
        assert by_addr[1].safe_ratio == 1.0
        assert by_addr[2].safe_ratio == 0.0
        assert by_addr[3].safe_ratio is None

    def test_region_summary_filters_unreferenced(self):
        samples = [
            SafeRatioSample(1, 10, 0),
            SafeRatioSample(2, 0, 10),
            SafeRatioSample(3, 0, 0),  # never referenced
        ]
        summary = region_safe_ratio(samples)
        assert summary.count == 2
        assert summary.mean == pytest.approx(0.5)

    def test_region_summary_none_when_empty(self):
        assert region_safe_ratio([SafeRatioSample(1, 0, 0)]) is None

    def test_histogram(self):
        samples = [
            SafeRatioSample(1, 1, 0),  # ratio 1.0 -> last bin
            SafeRatioSample(2, 0, 1),  # ratio 0.0 -> first bin
            SafeRatioSample(3, 1, 1),  # ratio 0.5 -> middle
        ]
        counts = ratio_histogram(samples, bins=10)
        assert counts[0] == 1
        assert counts[5] == 1
        assert counts[9] == 1
        assert sum(counts) == 3

    def test_histogram_invalid_bins(self):
        with pytest.raises(ValueError):
            ratio_histogram([], bins=0)
