"""Unit tests for the run cutting of ``ServeTenant.serve``.

Each case pins one clause of the fusion contract on the tiny workload
of the property suite: only the request a fault can reach executes, a
tracked byte blocks every request that touches it (a silent stuck-at
included), a request that stores to a diverged byte before loading it
fuses and heals it, a fatal request fails the rest of its quantum
exactly as the scalar loop does, epoch wraps inside a quantum, a fused
run's write image holds the last value of a byte written twice, and a
resident flip survives fused writes to its page. The recorder cases run
on :func:`repro.memory.trace.record_access_trace`, the one recorder.
"""

import time

import numpy as np
import pytest

from repro.memory.errors import SegmentationFault
from repro.memory.faults import FaultKind
from repro.memory.regions import PAGE_SIZE
from repro.memory import trace as trace_module
from repro.memory.trace import DECISIONS, TraceReplay, record_access_trace
from repro.serve import ServeTenant
from tests.property.test_prop_serve_dataplane import (
    WORDS,
    MiniWorkload,
    ShortTrace,
    build_tenant,
)


def decisions(tenant, **nonzero):
    """Assert the tenant's decision counts: ``nonzero``, rest 0."""
    assert tenant.decisions == {**dict.fromkeys(DECISIONS, 0), **nonzero}


def fused_tenant(workload=None):
    """A built tenant (of the mini workload by default) with its trace
    recorded, as a session starts it."""
    tenant = build_tenant() if workload is None else ServeTenant("mini", workload)
    if workload is not None:
        tenant.build()
    tenant.record_trace()
    return tenant


def count_executes(tenant):
    """Shadow ``workload.execute`` with a call-recording wrapper."""
    calls = []
    execute = tenant.workload.execute

    def counting(index):
        calls.append(index)
        return execute(index)

    tenant.workload.execute = counting
    return calls


def heap_word(space, index):
    return space.region_named("heap").base + 4 * index


def word_addr(tenant, index):
    return heap_word(tenant.space, index)


def fail_at(tenant, index):
    """Make query ``index`` die with a segmentation fault when executed."""
    execute = tenant.workload.execute

    def failing(query_index):
        if query_index == index:
            raise SegmentationFault(word_addr(tenant, index), 1, "test trap")
        return execute(query_index)

    tenant.workload.execute = failing


class CounterWorkload(MiniWorkload):
    """Every query overwrites the *same* word with a different value."""

    def execute(self, query_index: int):
        self._space.write_u32(heap_word(self._space, WORDS), query_index + 1)
        return query_index


class TestRunCutting:
    def test_one_blocked_request_executes_alone(self):
        tenant = fused_tenant()
        tenant.apply_fault(word_addr(tenant, 3), 0, FaultKind.SOFT)
        calls = count_executes(tenant)

        counts = tenant.serve(8)

        assert calls == [3]
        assert counts == {"ok": 7, "incorrect": 1, "failed": 0, "shed": 0, "down": 0}
        assert tenant.cursor == 8
        decisions(tenant, fused=7, live=1, blocked=1)

    def test_request_reading_diverged_byte_is_live(self):
        tenant = fused_tenant()
        addr = word_addr(tenant, 5)
        tenant.apply_fault(addr, 2, FaultKind.SOFT)
        tenant.retire_page(addr)  # untracked now, stored byte still flipped
        assert addr not in tenant.space.tracked_addresses()
        calls = count_executes(tenant)

        counts = tenant.serve(8)

        assert calls == [5]
        assert counts["incorrect"] == 1 and counts["ok"] == 7
        decisions(tenant, fused=7, live=1, diverged=1)

    def test_fatal_request_fails_the_rest_like_the_scalar_loop(self):
        twins = {}
        for name in ("scalar", "batched"):
            tenant = build_tenant() if name == "scalar" else fused_tenant()
            # The fault blocks query 3 from fusion; executed, it dies.
            tenant.apply_fault(word_addr(tenant, 3), 0, FaultKind.SOFT)
            fail_at(tenant, 3)
            calls = count_executes(tenant)
            serve = tenant.serve_requests if name == "scalar" else tenant.serve
            twins[name] = (tenant, calls, serve(8))

        scalar, scalar_calls, scalar_counts = twins["scalar"]
        batched, batched_calls, batched_counts = twins["batched"]
        assert scalar_calls == [0, 1, 2, 3] and batched_calls == [3]
        assert batched_counts == scalar_counts
        assert batched_counts["ok"] == 3 and batched_counts["failed"] == 5
        assert batched.needs_restart and scalar.needs_restart
        assert batched.cursor == scalar.cursor == 3
        assert batched.space.time == scalar.space.time
        decisions(batched, fused=3, live=5, blocked=1, fatal_tail=4)

    def test_wrap_inside_a_quantum(self):
        scalar, batched = build_tenant(), fused_tenant()
        for tenant in (scalar, batched):
            tenant.apply_fault(word_addr(tenant, 2), 1, FaultKind.HARD)
        calls = count_executes(batched)

        for count in (WORDS - 4, 10):
            assert batched.serve(count) == scalar.serve_requests(count)

        # The resident hard fault is re-applied by the wrap, so query 2
        # executes once per epoch and nothing else does.
        assert calls == [2, 2]
        assert batched.epochs == scalar.epochs == 1
        assert batched.cursor == scalar.cursor == 6
        assert batched.space.time == scalar.space.time
        decisions(batched, fused=WORDS + 4, live=2, blocked=2)


class TestTrackedBytesBlock:
    def test_silent_stuck_at_on_a_never_written_byte_still_blocks(self):
        """One rule: a tracked byte blocks every query that touches it.

        The overlay fixes the bit at the value it already stores, so
        reads observe plain memory and nothing ever stores there — and
        the request still executes, because its load is consumption the
        fault bookkeeping has to see.
        """
        tenant = fused_tenant()
        addr = word_addr(tenant, 0)
        stored_bit = tenant.space.peek(addr)[0] & 1
        tenant.space.inject_hard_fault(addr, 0, stuck_value=stored_bit)
        calls = count_executes(tenant)

        counts = tenant.serve(40)

        assert calls == [0]
        assert counts["ok"] == 40
        assert tenant.space.fault_consumption(addr) == (1, False)
        decisions(tenant, fused=39, live=1, blocked=1)


class ScratchWorkload(MiniWorkload):
    """Every query stores the same constant to one scratch byte, then
    loads it back: after query 0 the golden stores change nothing."""

    SCRATCH = 4 * WORDS + 4 * WORDS + 64

    def execute(self, query_index: int):
        scratch = heap_word(self._space, 0) + self.SCRATCH
        self._space.write_u8(scratch, 0xAB)
        return self._space.read_u8(scratch) + query_index


class TestHealing:
    def diverge_scratch(self):
        tenant = fused_tenant(ScratchWorkload())
        tenant.serve(4)
        scratch = word_addr(tenant, 0) + ScratchWorkload.SCRATCH
        assert tenant.space.peek(scratch) == b"\xab"
        tenant.space.poke(scratch, b"\x11")  # what a faulty live query leaves
        return tenant, scratch, count_executes(tenant)

    def test_store_first_divergence_fuses_and_is_healed(self):
        tenant, scratch, calls = self.diverge_scratch()

        counts = tenant.serve(4)

        # The scratch byte is in every footprint but in no exposed read.
        assert calls == [] and counts["ok"] == 4
        assert tenant.space.peek(scratch) == b"\xab"
        decisions(tenant, fused=8)

    def test_the_changed_bytes_image_alone_cannot_heal(self, monkeypatch):
        """Golden re-stores 0xAB over 0xAB, so the write image omits it."""
        monkeypatch.setattr(TraceReplay, "_heal", lambda self, start, end: None)
        tenant, scratch, calls = self.diverge_scratch()
        trace = tenant.replay.trace
        assert scratch not in trace.write_image(4, 8)[0]

        tenant.serve(4)

        assert calls == [] and tenant.space.peek(scratch) == b"\x11"


class TestWriteImage:
    def test_byte_written_twice_in_one_run_keeps_the_later_value(self):
        tenant = ServeTenant("mini", CounterWorkload(), requests_per_tick=4)
        tenant.build()
        trace = record_access_trace(tenant.workload, tenant.workload.query_count)
        addrs, _ = trace.write_image(0, 5)
        # Scattered assignment with repeated indices has no documented
        # order: the image of a run must name each address once.
        assert np.unique(addrs).size == addrs.size

        tenant.record_trace()
        calls = count_executes(tenant)
        tenant.serve(5)

        assert calls == []
        assert tenant.space.read_u32(word_addr(tenant, WORDS)) == 5
        tenant.serve(3)
        assert tenant.space.read_u32(word_addr(tenant, WORDS)) == 8

    def test_flip_survives_fused_writes_to_its_page(self):
        tenant = fused_tenant()
        # Same heap page as every word the queries read and write, but a
        # byte no query touches.
        addr = word_addr(tenant, 2 * WORDS + 7)
        golden = tenant.space.peek(addr)[0]
        tenant.apply_fault(addr, 4, FaultKind.SOFT)
        calls = count_executes(tenant)

        counts = tenant.serve(8)

        assert calls == [] and counts["ok"] == 8
        assert tenant.space.peek(addr)[0] == golden ^ (1 << 4)
        assert addr in tenant.space.tracked_addresses()
        decisions(tenant, fused=8)


class TestFusedLatency:
    def test_one_batch_report_per_fused_run_and_live_time_billed_live(self):
        tenant = fused_tenant()
        tenant.apply_fault(word_addr(tenant, 3), 0, FaultKind.SOFT)
        reports = []
        tenant.latency_sink = reports.append
        execute = tenant.workload.execute

        def slow_execute(index):
            time.sleep(0.05)
            return execute(index)

        tenant.workload.execute = slow_execute

        tenant.serve(8)

        # Fused run of 3, the live request alone, fused run of 4.
        assert [len(report) for report in reports] == [3, 1, 4]
        fused_runs = [reports[0], reports[2]]
        assert reports[1][0] >= 0.05
        for run in fused_runs:
            assert len(set(run)) == 1
            # The live request's 50 ms is not spread over fused ones.
            assert 0.0 <= sum(run) < 0.05

    def test_scalar_loop_reports_one_element_per_request(self):
        tenant = build_tenant()
        reports = []
        tenant.latency_sink = reports.append

        tenant.serve_requests(5)

        assert [len(report) for report in reports] == [1] * 5

    def test_whole_epochs_report_one_batch(self):
        tenant = fused_tenant(ShortTrace(3))
        batches = []
        tenant.latency_sink = batches.append

        tenant.serve(3 * 4 + 2)

        # Pristine from the start: four whole epochs and the open one's
        # two requests are one accounting step, billed as one batch.
        assert [len(batch) for batch in batches] == [14]
        assert tenant.epochs == 4 and tenant.cursor == 2
        decisions(tenant, fused=14)


class ForgetfulWorkload(MiniWorkload):
    """Answers depend on how often it was asked: no replay repeats them."""

    asked = 0

    def execute(self, query_index: int):
        self.asked += 1
        return super().execute(query_index) + self.asked


class TestGoldenCheckedRecording:
    def test_golden_responses_are_public_and_read_only(self):
        tenant = build_tenant()
        golden = tenant.golden_responses
        assert isinstance(golden, tuple) and len(golden) == WORDS
        assert golden == tuple(tenant.workload.golden_responses())

    def test_unrepeatable_replay_raises_when_the_trace_is_recorded(self):
        tenant = ServeTenant("mini", ForgetfulWorkload())
        tenant.build()
        with pytest.raises(RuntimeError, match="cannot stand in"):
            tenant.record_trace()


class ScriptedWorkload(MiniWorkload):
    """Each query runs one scripted list of accesses on the heap."""

    def __init__(self, *scripts):
        super().__init__()
        self.scripts = scripts

    @property
    def query_count(self) -> int:
        return len(self.scripts)

    def execute(self, query_index: int):
        for access in self.scripts[query_index]:
            access(self._space, self._space.region_named("heap").base)
        return query_index


def record_scripts(*scripts):
    workload = ScriptedWorkload(*scripts)
    workload.build()
    workload.checkpoint()
    return workload, record_access_trace(workload, len(scripts))


class TestAccessCapture:
    def test_capture_returns_coalesced_byte_intervals(self):
        workload, trace = record_scripts(
            [
                lambda space, heap: space.read_u32(heap + 8),
                lambda space, heap: space.read_u32(heap),
                lambda space, heap: space.read_u32(heap + 4),  # adjacent: [0, 12)
                lambda space, heap: space.read_u8(heap + 10),  # contained
                lambda space, heap: space.write_u32(heap + 100, 7),
            ]
        )
        heap = workload.space.region_named("heap").base
        lo, hi, offsets = trace.footprint
        assert offsets.tolist() == [0, 2]
        assert (lo - heap).tolist() == [0, 100]
        assert (hi - heap).tolist() == [12, 104]
        # The store is in the footprint but not an exposed read.
        lo, hi, offsets = trace.exposed_reads
        assert ((lo - heap).tolist(), (hi - heap).tolist()) == ([0], [12])

    def test_empty_capture(self):
        _, trace = record_scripts([], [])
        lo, hi, offsets = trace.footprint
        assert lo.size == hi.size == 0
        assert offsets.tolist() == [0, 0, 0]
        assert not trace.first_access.any() and not trace.read_seen.any()

    def test_exposed_reads_are_per_query_and_per_byte(self):
        workload, trace = record_scripts(
            [
                lambda space, heap: space.write_u32(heap + 4, 1),
                lambda space, heap: space.read(heap, 12),  # 4..8 stored first
            ],
            [lambda space, heap: space.read_u32(heap + 4)],  # exposed again
        )
        heap = workload.space.region_named("heap").base
        lo, hi, offsets = trace.exposed_reads
        assert offsets.tolist() == [0, 2, 3]
        assert (lo - heap).tolist() == [0, 8, 4]
        assert (hi - heap).tolist() == [4, 12, 8]
        assert trace.first_access[heap : heap + 12].tolist() == [1] * 4 + [2] * 4 + [1] * 4
        assert trace.read_seen[heap : heap + 12].all()

    def test_touching_stabs_a_few_addresses_like_it_searches_many(self, monkeypatch):
        """A few addresses are stabbed interval by interval; the
        per-interval search answers every size. Both say the same."""
        workload, trace = record_scripts(
            [
                lambda space, heap: space.read_u32(heap + 8),
                lambda space, heap: space.write_u32(heap + 100, 7),
            ],
            [lambda space, heap: space.read(heap + 96, 12)],
            [],
            [lambda space, heap: space.write(heap + 4, b"ab")],
        )
        heap = workload.space.region_named("heap").base
        cases = [[heap + offset] for offset in (3, 4, 5, 8, 11, 12, 96, 100, 107, 108)]
        cases += [[heap + 4, heap + 100], [heap + 12, heap + 108]]
        found = [
            (trace.touching(np.asarray(addrs)), trace.touching(np.asarray(addrs), True))
            for addrs in cases
        ]
        monkeypatch.setattr(trace_module, "_FEW_ADDRS", 0)
        searched = [
            (trace.touching(np.asarray(addrs)), trace.touching(np.asarray(addrs), True))
            for addrs in cases
        ]
        for (a, b), (c, d) in zip(found, searched):
            assert a.tolist() == c.tolist() and b.tolist() == d.tolist()
        assert found[0][0].tolist() == [False, False, False, False]
        assert found[1][0].tolist() == [False, False, False, True]
        assert found[6][1].tolist() == [False, True, False, False]
        assert found[7][0].tolist() == [True, True, False, False]

    def test_poke_scattered_marks_pages_and_versions(self):
        space = build_tenant().space
        heap = space.region_named("heap")
        assert space.dirty_pages() == []  # build() left it at the checkpoint
        before = space.region_versions()
        addrs = np.asarray([heap.base + 1, heap.base + 4097], dtype=np.int64)
        space.poke_scattered(addrs, np.asarray([9, 8], dtype=np.uint8))
        assert space.peek(heap.base + 1) == b"\x09"
        assert space.peek(heap.base + 4097) == b"\x08"
        assert space.dirty_pages() == [heap.base // 4096, heap.base // 4096 + 1]
        after = space.region_versions()
        changed = [a != b for a, b in zip(after, before)]
        assert changed.count(True) == 1


class TestDivergedBytes:
    def test_only_differing_pages_contribute_their_differing_bytes(self):
        """A dirty page that still holds golden bytes contributes nothing;
        a differing one exactly the bytes that differ."""
        workload = MiniWorkload()
        workload.build()
        workload.checkpoint()
        replay = TraceReplay(record_access_trace(workload, 4), workload)
        space = workload.space
        heap, private = space.region_named("heap"), space.region_named("private")
        space.poke(heap.base, space.peek(heap.base, 64))  # dirty, unchanged
        assert replay._diverged_bytes(0).size == 0
        changed = [private.base + 5, private.base + 700]
        for addr in changed:
            space.poke(addr, bytes([space.peek(addr)[0] ^ 0x41]))
        assert space.dirty_pages() == sorted(
            {heap.base // PAGE_SIZE, private.base // PAGE_SIZE}
        )
        assert replay._diverged_bytes(0).tolist() == changed


@pytest.mark.parametrize("fast_path", [False, True])
def test_every_request_is_fused_or_live(fast_path):
    """Off the fast path the trace is not recorded: every request is live."""
    tenant = build_tenant()
    tenant.space.set_fast_path(fast_path)
    tenant.record_trace()
    tenant.serve(6)
    tally = tenant.decisions
    assert tally["fused"] + tally["live"] == 6
    assert tally["live"] == (0 if fast_path else 6)
