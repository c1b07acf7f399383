"""Unit tests for repro.monitoring (recorded-trace views + analysis)."""

import pytest

from repro.apps.base import Workload
from repro.memory import AddressSpace, standard_layout
from repro.monitoring import (
    TimeScale,
    event_times,
    monitor,
    page_write_intervals,
    page_writes,
    record_monitored,
    safe_ratio_report,
)


class ScriptWorkload(Workload):
    """Each query runs one list of ``access(space, heap_base)`` calls."""

    name = "Script"

    def __init__(self, *scripts):
        super().__init__()
        self.scripts = scripts

    def build(self) -> None:
        self._space = AddressSpace(
            standard_layout(private_size=8192, heap_size=8192, stack_size=4096)
        )
        self.checkpoint()

    query_count = property(lambda self: len(self.scripts))
    time_scale = None

    def execute(self, query_index: int):
        heap = self._space.region_named("heap").base
        for access in self.scripts[query_index]:
            access(self._space, heap)
        return query_index


def scripted(*scripts):
    workload = ScriptWorkload(*scripts)
    workload.build()
    return workload


class TestTimeScale:
    def test_conversion_roundtrip(self):
        scale = TimeScale(units_per_minute=600)
        assert scale.minutes(1200) == 2.0
        assert scale.units(0.5) == 300.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeScale(units_per_minute=0)


class TestAccessMonitor:
    def test_monitors_explicit_addresses(self):
        workload = scripted(
            [
                lambda space, heap: space.write_u8(heap, 1),
                lambda space, heap: space.read_u8(heap),
            ]
        )
        heap = workload.space.region_named("heap").base
        result = monitor(workload, [heap, heap + 9], queries=1)
        assert [e.is_store for e in result.traces[heap]] == [True, False]
        assert [e.time - result.start_time for e in result.traces[heap]] == [1, 2]
        assert result.traces[heap + 9] == []
        assert result.duration == 2
        assert result.region_of_addr[heap] == "heap"

    def test_array_access_is_one_event_per_element(self):
        workload = scripted(
            [
                lambda space, heap: space.write(heap, bytes(5)),
                lambda space, heap: space.read_array(heap, 2, "<u2"),
            ]
        )
        heap = workload.space.region_named("heap").base
        result = monitor(workload, [heap + 3, heap + 4], queries=1)
        assert [e.is_store for e in result.traces[heap + 3]] == [True, False]
        assert [e.is_store for e in result.traces[heap + 4]] == [True]
        assert result.duration == 3

    def test_sampled_monitoring_covers_regions(self):
        workload = scripted([])
        space = workload.space
        addresses = [region.base + 7 for region in space.regions]
        result = monitor(workload, addresses, queries=1)
        assert set(result.region_of_addr.values()) == {"private", "heap", "stack"}

    def test_region_restricted_sampling(self):
        workload = scripted([lambda space, heap: space.read_u8(heap)])
        space = workload.space
        heap = space.region_named("heap").base
        stack = space.region_named("stack").base
        result = monitor(workload, [heap, stack], queries=1)
        assert result.addresses_in_region("heap") == [heap]
        assert list(result.traces_for_region("stack")) == [stack]

    def test_watchpoints_removed_after_session(self):
        # The recorder's hooks on the space go with the replay: the space
        # is back on its own access path, its clock rolled back.
        workload = scripted([lambda space, heap: space.write_u8(heap, 1)])
        space = workload.space
        before = space.time
        monitor(workload, [space.region_named("heap").base], queries=1)
        assert space.fast_path_enabled
        assert space.time == before
        assert "_region_index_for" not in vars(space)
        space.set_fast_path(False)
        monitor(workload, [space.region_named("heap").base], queries=1)
        assert not space.fast_path_enabled

    def test_page_write_monitoring(self):
        workload = scripted(
            [
                lambda space, heap: space.write_u8(heap, 1),
                lambda space, heap: space.read_u8(heap),
                lambda space, heap: space.write(heap + 4094, b"abcd"),  # two pages
            ]
        )
        page = workload.space.region_named("heap").base // 4096
        trace = record_monitored(workload, 1)
        times = event_times(trace)
        stats = page_writes(trace)
        assert stats == {
            page: {"count": 2, "first_write": times[0], "last_write": times[2]},
            page + 1: {"count": 1, "first_write": times[2], "last_write": times[2]},
        }

    def test_think_time_is_refused(self):
        # Event times are clock ticks: a replay that advances the clock
        # between accesses cannot be monitored exactly.
        workload = scripted(
            [
                lambda space, heap: space.read_u8(heap),
                lambda space, heap: space.advance_time(5),
            ]
        )
        with pytest.raises(RuntimeError, match="tick once per access"):
            record_monitored(workload, 1)


class TestAnalysis:
    def test_safe_ratio_report_by_region(self):
        def query(space, heap):
            stack = space.region_named("stack").base
            for _ in range(5):
                space.write_u8(stack, 1)  # write-heavy
                space.read_u8(heap)  # read-heavy

        workload = scripted([query])
        space = workload.space
        heap, stack = space.region_named("heap"), space.region_named("stack")
        result = monitor(workload, [heap.base, stack.base], queries=1)
        reports = safe_ratio_report(result)
        assert reports["stack"].mean_safe_ratio == pytest.approx(1.0, abs=0.05)
        assert reports["heap"].mean_safe_ratio == pytest.approx(0.0, abs=0.05)
        assert sum(reports["heap"].histogram) == 1

    def test_page_write_intervals(self):
        stats = {
            1: {"count": 3, "first_write": 0, "last_write": 100},
            2: {"count": 1, "first_write": 5, "last_write": 5},
        }
        intervals = {i.page: i for i in page_write_intervals(stats)}
        assert intervals[1].mean_interval_units == pytest.approx(50.0)
        assert intervals[2].mean_interval_units is None

    def test_interval_minutes_conversion(self):
        stats = {1: {"count": 2, "first_write": 0, "last_write": 600}}
        interval = page_write_intervals(stats)[0]
        assert interval.mean_interval_minutes(TimeScale(60)) == pytest.approx(10.0)
