"""Unit tests for repro.apps.clients and the Workload base class."""

from typing import Hashable

import pytest

from repro.apps.base import FatalWorkloadError, QueryTimeout, Workload
from repro.apps.clients import ClientDriver
from repro.memory import AddressSpace, SegmentationFault, standard_layout
from repro.utils.timescale import TimeScale


class ScriptedWorkload(Workload):
    """Returns scripted responses; supports scripted failures."""

    name = "Scripted"

    def __init__(self, responses, failures=None):
        super().__init__()
        self._responses = responses
        self._failures = failures or {}

    def build(self):
        self._space = AddressSpace(standard_layout(heap_size=4096))

    @property
    def query_count(self):
        return len(self._responses)

    def execute(self, query_index: int) -> Hashable:
        self.space.advance_time(1)
        if query_index in self._failures:
            raise self._failures[query_index]
        return self._responses[query_index]

    @property
    def time_scale(self):
        return TimeScale(units_per_minute=10)


def make_driver(responses, golden=None, failures=None):
    workload = ScriptedWorkload(responses, failures)
    workload.build()
    return workload, ClientDriver(workload, golden or responses)


class TestClientDriver:
    def test_all_correct(self):
        _w, driver = make_driver(["a", "b", "c"])
        report = driver.run(range(3))
        assert report.correct == 3
        assert not report.crashed()

    def test_incorrect_detection(self):
        workload, driver = make_driver(["a", "b"], golden=["a", "x"])
        report = driver.run([0, 1, 1])
        assert report.incorrect == 2
        assert report.incorrect_queries == [1, 1]
        assert report.first_incorrect_time is not None

    def test_timeout_is_failed_request_not_fatal(self):
        _w, driver = make_driver(
            ["a", "b", "c", "d"], failures={1: QueryTimeout("wedged")}
        )
        report = driver.run(range(4))
        assert report.failed == 1
        assert not report.fatal
        assert not report.crashed()  # 25% < 50%

    def test_majority_failures_crash(self):
        failures = {0: QueryTimeout("x"), 1: QueryTimeout("x")}
        _w, driver = make_driver(["a", "b", "c"], failures=failures)
        report = driver.run([0, 1, 2])
        assert report.crashed()  # 2/3 >= 50%

    def test_memory_fault_is_fatal(self):
        failures = {1: SegmentationFault(0, 1)}
        _w, driver = make_driver(["a", "b", "c"], failures=failures)
        report = driver.run(range(3))
        assert report.fatal
        assert report.crashed()
        assert report.attempted == 2  # stopped at the fatal query

    def test_fatal_without_stop(self):
        failures = {0: FatalWorkloadError("boom")}
        _w, driver = make_driver(["a", "b"], failures=failures)
        report = driver.run(range(2), stop_on_fatal=False)
        assert report.attempted == 2
        assert report.fatal

    def test_golden_length_mismatch_rejected(self):
        workload = ScriptedWorkload(["a", "b"])
        workload.build()
        with pytest.raises(ValueError, match="longer than the workload trace"):
            ClientDriver(workload, ["a", "b", "c"])

    def test_golden_prefix_scores_the_queries_it_covers(self):
        workload = ScriptedWorkload(["a", "b", "c"])
        workload.build()
        report = ClientDriver(workload, ["a", "b"]).run(range(2))
        assert report.correct == 2 and not report.crashed()


class TestWorkloadBase:
    def test_space_before_build_rejected(self):
        workload = ScriptedWorkload(["a"])
        with pytest.raises(RuntimeError):
            workload.space

    def test_reset_requires_checkpoint(self):
        workload = ScriptedWorkload(["a"])
        workload.build()
        with pytest.raises(RuntimeError):
            workload.reset()

    def test_checkpoint_reset_restores_memory(self):
        workload = ScriptedWorkload(["a"])
        workload.build()
        heap = workload.space.region_named("heap")
        workload.space.write_u8(heap.base, 1)
        workload.checkpoint()
        workload.space.write_u8(heap.base, 99)
        workload.reset()
        assert workload.space.read_u8(heap.base) == 1

    def test_golden_responses(self):
        workload = ScriptedWorkload(["a", "b"])
        workload.build()
        assert workload.golden_responses() == ["a", "b"]

    def test_default_sample_ranges_whole_region(self):
        workload = ScriptedWorkload(["a"])
        workload.build()
        heap = workload.space.region_named("heap")
        assert workload.sample_ranges(heap) == [(heap.base, heap.end)]

    def test_active_stack_window(self):
        workload = ScriptedWorkload(["a"])
        workload.build()
        heap = workload.space.region_named("heap")
        window = workload.active_stack_window(heap, 100)
        assert window == [(heap.end - 100, heap.end)]
