"""Unit tests for the trial-pruning engine (``backend="pruned"``).

Covers the vectorized decidability rules in isolation (handcrafted
plans against handcrafted traces), the access-trace recorder against
the per-byte oracle recorder it replaced (kept here verbatim as the
test-local oracle), recorded-trial settlement, virtual faults, the
cost-aware shard planner, the codec plumbing, and the pruning
instruments.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.apps.base import Workload
from repro.apps.clients import ClientDriver
from repro.apps.graphmining import GraphMining
from repro.apps.kvstore import KVStoreWorkload
from repro.apps.websearch import WebSearch
from repro.core.campaign import (
    BACKENDS,
    CampaignConfig,
    CharacterizationCampaign,
    FINGERPRINT_SCHEMA_VERSION,
    campaign_fingerprint,
)
from repro.core.taxonomy import ErrorOutcome
from repro.exec.cells import CampaignCell, plan_shards_indexed
from repro.exec.pruning import (
    PruningStats,
    classify_plan,
    corrected_byte_mask,
)
from repro.injection.injector import (
    SINGLE_BIT_HARD,
    SINGLE_BIT_SOFT,
    ErrorSpec,
    ErrorInjector,
)
from repro.kernels.planner import InjectionPlan
from repro.memory import AddressSpace, standard_layout
from repro.memory.faults import FaultKind
from repro.memory.trace import DECISIONS, AccessTrace, record_access_trace
from repro.obs.instruments import CampaignInstruments
from repro.obs.metrics import MetricsRegistry


def make_trace(size=64, read_first=(), write_first=(), read_ever=None):
    """Handcraft a golden trace: byte classes given as address tuples.

    The classes are not set, they are derived like a recorded trace's:
    the event log stores to the write-first bytes, then loads the rest.
    """
    if read_ever is None:
        read_ever = read_first
    addrs = [*write_first, *read_first, *read_ever]
    lo = np.asarray(addrs, dtype=np.int64)
    nothing = np.zeros(0, dtype=np.int64)
    return AccessTrace(
        size=size,
        query_count=4,
        event_query=np.zeros(lo.size, dtype=np.int64),
        event_lo=lo,
        event_hi=lo + 1,
        event_write=np.arange(lo.size) < len(write_first),
        end_time=100,
        clock=np.asarray([0, 25, 50, 75, 100]),
        counters=np.asarray([[0, 0, 0, 0]] * 4 + [[1, 8, 1, 8]]),
        progress=[None] * 5,
        write_addr=nothing,
        write_val=nothing.astype(np.uint8),
        write_until=nothing,
        write_offsets=np.zeros(5, dtype=np.int64),
    )


def make_plan(spec, flips_by_trial):
    """Handcraft an InjectionPlan from [(addr, bit), ...] per trial."""
    flip_addrs = []
    flip_bits = []
    offsets = [0]
    anchors = []
    for flips in flips_by_trial:
        anchors.append(flips[0][0])
        for addr, bit in flips:
            flip_addrs.append(addr)
            flip_bits.append(bit)
        offsets.append(len(flip_addrs))
    return InjectionPlan(
        spec=spec,
        trial_indices=np.arange(len(flips_by_trial), dtype=np.int64),
        anchor_addrs=np.asarray(anchors, dtype=np.int64),
        flip_addrs=np.asarray(flip_addrs, dtype=np.int64),
        flip_bits=np.asarray(flip_bits, dtype=np.int64),
        flip_offsets=np.asarray(offsets, dtype=np.int64),
    )


class TestClassifyPlan:
    def test_soft_never_accessed_is_masked_never(self):
        trace = make_trace()
        plan = make_plan(SINGLE_BIT_SOFT, [[(10, 3)]])
        cls = classify_plan(plan, trace)
        assert cls.decidable.tolist() == [True]
        assert cls.outcomes == (ErrorOutcome.MASKED_NEVER_ACCESSED,)

    def test_soft_write_first_is_masked_overwrite(self):
        trace = make_trace(write_first=[10])
        cls = classify_plan(make_plan(SINGLE_BIT_SOFT, [[(10, 0)]]), trace)
        assert cls.outcomes == (ErrorOutcome.MASKED_OVERWRITE,)

    def test_soft_read_first_is_undecidable(self):
        trace = make_trace(read_first=[10])
        cls = classify_plan(make_plan(SINGLE_BIT_SOFT, [[(10, 0)]]), trace)
        assert cls.decidable.tolist() == [False]
        assert cls.outcomes == (None,)
        assert cls.pruned_count == 0
        assert cls.executed_count == 1

    def test_hard_write_first_but_read_later_is_undecidable(self):
        # A stuck-at fault reasserts itself on reads after the
        # overwrite, so write-first is NOT sufficient for hard faults.
        trace = make_trace(write_first=[10], read_ever=[10])
        cls = classify_plan(make_plan(SINGLE_BIT_HARD, [[(10, 0)]]), trace)
        assert cls.outcomes == (None,)

    def test_hard_never_read_is_decidable(self):
        trace = make_trace(write_first=[10])  # written, never read
        cls = classify_plan(make_plan(SINGLE_BIT_HARD, [[(10, 0)]]), trace)
        assert cls.outcomes == (ErrorOutcome.MASKED_OVERWRITE,)

    def test_multi_flip_outcome_folds_by_precedence(self):
        # never-accessed + write-first flips fold to MASKED_OVERWRITE.
        trace = make_trace(write_first=[11])
        plan = make_plan(ErrorSpec(FaultKind.SOFT, 2), [[(10, 0), (11, 1)]])
        cls = classify_plan(plan, trace)
        assert cls.outcomes == (ErrorOutcome.MASKED_OVERWRITE,)

    def test_multi_flip_any_undecidable_flip_blocks_trial(self):
        trace = make_trace(read_first=[11])
        plan = make_plan(ErrorSpec(FaultKind.SOFT, 2), [[(10, 0), (11, 1)]])
        cls = classify_plan(plan, trace)
        assert cls.outcomes == (None,)

    def test_corrected_single_flip_read_first_is_masked_logic(self):
        trace = make_trace(read_first=[10])
        corrected = np.zeros(64, dtype=bool)
        corrected[10] = True
        cls = classify_plan(
            make_plan(SINGLE_BIT_SOFT, [[(10, 0)]]), trace, corrected
        )
        assert cls.outcomes == (ErrorOutcome.MASKED_LOGIC,)

    def test_corrected_does_not_cover_multi_flip_trials(self):
        trace = make_trace(read_first=[10, 11])
        corrected = np.ones(64, dtype=bool)
        plan = make_plan(ErrorSpec(FaultKind.SOFT, 2), [[(10, 0), (11, 1)]])
        cls = classify_plan(plan, trace, corrected)
        assert cls.outcomes == (None,)

    def test_empty_plan(self):
        cls = classify_plan(make_plan(SINGLE_BIT_SOFT, []), make_trace())
        assert cls.outcomes == ()
        assert cls.pruned_count == 0

    def test_mixed_batch_classifies_per_trial(self):
        trace = make_trace(read_first=[20], write_first=[30])
        plan = make_plan(
            SINGLE_BIT_SOFT, [[(10, 0)], [(20, 1)], [(30, 2)]]
        )
        cls = classify_plan(plan, trace)
        assert cls.outcomes == (
            ErrorOutcome.MASKED_NEVER_ACCESSED,
            None,
            ErrorOutcome.MASKED_OVERWRITE,
        )
        assert cls.pruned_count == 2

    def test_runs_are_maximal_and_cover_the_plan(self):
        trace = make_trace(read_first=[20, 21], write_first=[30])
        flips = [[(10, 0)], [(30, 1)], [(20, 2)], [(11, 3)], [(20, 4)], [(21, 5)]]
        cls = classify_plan(make_plan(SINGLE_BIT_SOFT, flips), trace)
        assert cls.runs() == [
            (0, 2, True), (2, 3, False), (3, 4, True), (4, 6, False)
        ]
        assert cls.codes[:2].tolist() == [0, 1]
        everything = classify_plan(
            make_plan(SINGLE_BIT_SOFT, [[(10, 0)], [(12, 0)]]), trace
        )
        assert everything.runs() == [(0, 2, True)]
        assert classify_plan(make_plan(SINGLE_BIT_SOFT, []), trace).runs() == []


# ----------------------------------------------------------------------
# The parent commit's per-byte recorder (AddressSpace.begin_access_trace /
# end_access_trace, oracle mode, one Python loop per byte), kept verbatim
# as the oracle the array-native recorder is pinned to.
# ----------------------------------------------------------------------
def oracle_begin_access_trace(self):
    if self._fast:
        raise RuntimeError(
            "access tracing requires the oracle path; "
            "call set_fast_path(False) first"
        )
    first = bytearray(self._size)  # 0 never, 1 read-first, 2 write-first
    read_seen = bytearray(self._size)
    self._trace_first = first
    self._trace_read_seen = read_seen
    self._trace_saved = (
        self._time,
        list(self._load_ops),
        list(self._load_bytes),
        list(self._store_ops),
        list(self._store_bytes),
    )
    read_guarded = type(self)._read_guarded.__get__(self)
    write_guarded = type(self)._write_guarded.__get__(self)

    def tracing_read_guarded(addr: int, n: int) -> bytes:
        data = read_guarded(addr, n)
        for a in range(addr, addr + n):
            if not first[a]:
                first[a] = 1
            read_seen[a] = 1
        return data

    def tracing_write_guarded(addr: int, data: bytes) -> None:
        write_guarded(addr, data)
        for a in range(addr, addr + len(data)):
            if not first[a]:
                first[a] = 2

    self._read_guarded = tracing_read_guarded
    self._write_guarded = tracing_write_guarded


def oracle_end_access_trace(self):
    del self._read_guarded
    del self._write_guarded
    first = self._trace_first
    read_seen = self._trace_read_seen
    del self._trace_first
    del self._trace_read_seen
    saved_time, lops, lbytes, sops, sbytes = self._trace_saved
    del self._trace_saved
    end_time = self._time
    per_region = tuple(
        (
            self._load_ops[i] - lops[i],
            self._load_bytes[i] - lbytes[i],
            self._store_ops[i] - sops[i],
            self._store_bytes[i] - sbytes[i],
        )
        for i in range(len(self.regions))
    )
    self._time = saved_time
    self._load_ops = lops
    self._load_bytes = lbytes
    self._store_ops = sops
    self._store_bytes = sbytes
    return {
        "first_access": np.frombuffer(bytes(first), dtype=np.uint8),
        "read_seen": np.frombuffer(bytes(read_seen), dtype=np.uint8),
        "end_time": end_time,
        "per_region": per_region,
    }


def oracle_trace(workload, queries):
    """The parent's ``record_golden_trace`` around the oracle recorder."""
    space = workload.space
    workload.reset()
    was_fast = space.fast_path_enabled
    space.set_fast_path(False)
    oracle_begin_access_trace(space)
    try:
        for index in range(queries):
            workload.execute(index)
    finally:
        raw = oracle_end_access_trace(space)
        space.set_fast_path(was_fast)
    workload.reset()
    return raw


def assert_matches_oracle(trace, raw):
    assert np.array_equal(trace.first_access, raw["first_access"])
    assert np.array_equal(trace.read_seen, raw["read_seen"])
    assert trace.end_time == raw["end_time"]
    assert trace.per_region == raw["per_region"]


class ScriptWorkload(Workload):
    """Each query runs one list of ``access(space, heap_base)`` calls."""

    name = "Script"

    def __init__(self, *scripts):
        super().__init__()
        self.scripts = scripts

    def build(self) -> None:
        self._space = AddressSpace(
            standard_layout(private_size=4096, heap_size=4096, stack_size=4096)
        )
        self.checkpoint()

    query_count = property(lambda self: len(self.scripts))
    time_scale = None

    def execute(self, query_index: int):
        heap = self._space.region_named("heap").base
        for access in self.scripts[query_index]:
            access(self._space, heap)
        return query_index


def record_script(*scripts):
    workload = ScriptWorkload(*scripts)
    workload.build()
    return workload, record_access_trace(workload, len(scripts))


class TestAccessTrace:
    def make_space(self):
        return AddressSpace(
            standard_layout(private_size=4096, heap_size=4096, stack_size=4096)
        )

    def test_trace_classifies_first_access_direction(self):
        workload, trace = record_script(
            [
                lambda space, heap: space.write(heap, b"xy"),  # write-first bytes
                lambda space, heap: space.read(heap + 8, 2),   # read-first bytes
                lambda space, heap: space.read(heap, 1),       # read after write: stays 2
            ]
        )
        heap = workload.space.region_named("heap")
        first, read_seen = trace.first_access, trace.read_seen
        assert first[heap.base] == 2 and first[heap.base + 1] == 2
        assert first[heap.base + 8] == 1 and first[heap.base + 9] == 1
        assert first[heap.base + 16] == 0
        assert read_seen[heap.base] == 1       # read later
        assert read_seen[heap.base + 1] == 0
        assert read_seen[heap.base + 8] == 1

    def test_trace_rolls_back_clock_and_counters(self):
        workload = ScriptWorkload(
            [
                lambda space, heap: space.write(heap, b"abcd"),
                lambda space, heap: space.read(heap, 4),
            ]
        )
        workload.build()
        space = workload.space
        before_time = space.time
        before_stats = space.access_stats()
        before_paths = space.fast_path_stats()
        trace = record_access_trace(workload, 1)
        assert space.time == before_time
        assert space.access_stats() == before_stats
        after_paths = space.fast_path_stats()
        for key in ("fast_accesses", "checked_accesses"):
            assert after_paths[key] == before_paths[key]
        assert trace.end_time > before_time
        # The recorded deltas are what the replay cost.
        deltas = trace.per_region
        assert sum(entry[1] for entry in deltas) == 4   # load bytes
        assert sum(entry[3] for entry in deltas) == 4   # store bytes

    def test_trace_records_on_either_path(self):
        """The recorder follows the space: no forced oracle replay, and
        the bytes it derives are the same on both access paths."""
        script = [
            lambda space, heap: space.write_u32(heap + 4, 9),
            lambda space, heap: space.read_array(heap, 4),
            lambda space, heap: space.write_array(heap + 32, np.arange(3, dtype="<u4")),
        ]
        fast_workload, fast = record_script(script)
        assert fast_workload.space.fast_path_enabled
        slow_workload = ScriptWorkload(script)
        slow_workload.build()
        slow_workload.space.set_fast_path(False)
        slow = record_access_trace(slow_workload, 1)
        assert not slow_workload.space.fast_path_enabled
        assert np.array_equal(fast.first_access, slow.first_access)
        assert np.array_equal(fast.read_seen, slow.read_seen)
        assert (fast.end_time, fast.per_region) == (slow.end_time, slow.per_region)
        assert_matches_oracle(fast, oracle_trace(fast_workload, 1))

    @pytest.mark.parametrize(
        "scripts",
        [
            pytest.param(
                ([lambda space, heap: space.read(heap, 8)],), id="read"
            ),
            pytest.param(
                ([lambda space, heap: space.write(heap, b"12345678")],), id="write"
            ),
            pytest.param(
                (
                    [
                        lambda space, heap: space.read(heap + 2, 6),
                        lambda space, heap: space.write(heap, b"abcd"),
                        lambda space, heap: space.read_u32(heap + 6),
                    ],
                ),
                id="overlap",
            ),
            pytest.param(
                (
                    [lambda space, heap: space.write_u32(heap + 4, 1)],
                    [lambda space, heap: space.read(heap, 12)],
                    [
                        lambda space, heap: space.write(heap + 10, b"zz"),
                        lambda space, heap: space.read_u8(heap + 11),
                    ],
                ),
                id="read-after-write",
            ),
            pytest.param(([], []), id="no-access"),
        ],
    )
    def test_hand_built_cases_match_the_per_byte_oracle(self, scripts):
        workload, trace = record_script(*scripts)
        assert_matches_oracle(trace, oracle_trace(workload, len(scripts)))

    @pytest.mark.parametrize(
        "factory,queries",
        [
            pytest.param(
                lambda: WebSearch(
                    vocabulary_size=200, doc_count=120, query_count=40,
                    heap_size=65536,
                ),
                24,
                id="websearch",
            ),
            pytest.param(
                lambda: KVStoreWorkload(key_count=200, op_count=60), 60, id="kvstore"
            ),
            pytest.param(
                lambda: GraphMining(
                    vertex_count=60, edges_per_vertex=5, iterations=3, jobs=2
                ),
                2,
                id="graphmining",
            ),
        ],
    )
    def test_recorder_matches_the_per_byte_oracle_on_every_app(
        self, factory, queries
    ):
        """Fused driver reads included: the websearch index lookups and
        the graph sweeps are logged from ``charge_reads`` spans."""
        workload = factory()
        workload.build()
        workload.checkpoint()
        raw = oracle_trace(workload, queries)
        trace = record_access_trace(workload, queries)
        assert (trace.first_access != 0).any()
        assert_matches_oracle(trace, raw)

    def test_settle_recorded_trial_matches_executed_accounting(self):
        workload, trace = record_script(
            [
                lambda space, heap: space.write(heap, b"abcd"),
                lambda space, heap: space.read(heap, 4),
            ]
        )
        space = workload.space
        # Execute the same ops for real to get the reference accounting.
        workload.execute(0)
        executed_time = space.time
        executed_stats = space.access_stats()
        # A fresh identical space settled from the trace must agree on
        # the clock and per-region op/byte counters.
        other = self.make_space()
        other.set_fast_path(False)
        other.settle_recorded_trial(trace.end_time, trace.per_region)
        assert other.time == executed_time
        other_stats = other.access_stats()
        for region in ("private", "heap", "stack"):
            for key in ("load_ops", "load_bytes", "store_ops", "store_bytes"):
                assert other_stats[region][key] == executed_stats[region][key]
        # In oracle mode no access is counted as a hit or a fallback; on
        # the fast path the two skipped accesses are credited to it once.
        assert other.fast_path_stats()["fast_accesses"] == 0
        assert other.fast_path_stats()["checked_accesses"] == 0
        fast = self.make_space()
        fast.settle_recorded_trial(trace.end_time, trace.per_region)
        assert fast.time == executed_time
        assert fast.access_stats() == other_stats
        assert fast.fast_path_stats()["fast_accesses"] == 2

    def test_counted_settle_equals_repeated_settles(self):
        per_region = ((3, 24, 1, 8), (0, 0, 0, 0), (2, 2, 5, 40))
        counted, repeated = self.make_space(), self.make_space()
        counted.settle_recorded_trial(77, per_region, trials=4)
        for _ in range(4):
            repeated.settle_recorded_trial(77, per_region)
        assert counted.time == repeated.time == 77
        assert counted.access_stats() == repeated.access_stats()
        assert counted.fast_path_stats() == repeated.fast_path_stats()
        assert counted.fast_path_stats()["fast_accesses"] == 4 * 11


class TestVirtualFault:
    def test_virtual_fault_tracks_without_corrupting(self):
        space = AddressSpace(
            standard_layout(private_size=4096, heap_size=4096, stack_size=4096)
        )
        heap = space.region_named("heap")
        space.write(heap.base, b"\x5a")
        space.track_virtual_fault(heap.base, 3, FaultKind.SOFT)
        assert space.read(heap.base, 1) == b"\x5a"     # data uncorrupted
        reads, overwritten = space.fault_consumption(heap.base)
        assert reads == 1 and not overwritten          # consumption tracked
        space.write(heap.base, b"\x00")
        _, overwritten = space.fault_consumption(heap.base)
        assert overwritten

    def test_injector_applies_virtual_faults_in_corrected_regions(self):
        space = AddressSpace(
            standard_layout(private_size=4096, heap_size=4096, stack_size=4096)
        )
        heap = space.region_named("heap")
        space.write(heap.base, bytes(range(16)))
        golden = space.read(heap.base, 16)
        injector = ErrorInjector(
            space, random.Random(3), corrected_regions=frozenset({"heap"})
        )
        record = injector.inject(SINGLE_BIT_SOFT, addr=heap.base + 2)
        assert space.read(heap.base, 16) == golden     # corrected: no flip
        assert record.anchor_addr == heap.base + 2
        # Multi-bit exceeds single-bit correction: injected raw.
        injector.inject(ErrorSpec(FaultKind.SOFT, 2), addr=heap.base + 8)
        assert space.read(heap.base, 16) != golden


class TestGoldenTraceRecording:
    @pytest.fixture(scope="class")
    def workload(self):
        w = WebSearch(
            vocabulary_size=200, doc_count=120, query_count=40, heap_size=65536
        )
        w.build()
        w.checkpoint()
        return w

    def test_recording_is_invisible_and_reusable(self, workload):
        workload.reset()
        golden = workload.golden_responses()
        workload.reset()
        driver = ClientDriver(workload, golden)
        budget = min(20, workload.query_count)
        trace = record_access_trace(workload, budget, golden)
        assert trace.query_count == budget
        assert trace.first_access.shape == (workload.space.size,)
        assert trace.end_time > 0
        assert (trace.first_access != 0).any()
        # read_seen covers every read-first byte.
        assert (trace.read_seen[trace.first_access == 1] == 1).all()
        # Recording left the workload replayable: a normal trial run
        # still produces golden responses.
        report = driver.run(range(budget))
        assert report.incorrect == 0 and report.failed == 0


class TestCorrectedByteMask:
    def test_mask_covers_named_regions_only(self):
        space = AddressSpace(
            standard_layout(private_size=4096, heap_size=4096, stack_size=4096)
        )
        mask = corrected_byte_mask(space, ["heap"])
        heap = space.region_named("heap")
        assert mask[heap.base : heap.end].all()
        private = space.region_named("private")
        assert not mask[private.base : private.end].any()

    def test_empty_names_is_none(self):
        space = AddressSpace(
            standard_layout(private_size=4096, heap_size=4096, stack_size=4096)
        )
        assert corrected_byte_mask(space, []) is None


class TestPlanShardsIndexed:
    CELL = CampaignCell(name="heap", spec=SINGLE_BIT_SOFT)

    def test_shards_cover_exactly_the_given_indices(self):
        shards = plan_shards_indexed(
            [self.CELL, self.CELL], [[0, 3, 7], [2]], workers=2
        )
        covered = sorted(
            (s.cell_index, i) for s in shards for i in s.indices
        )
        assert covered == [(0, 0), (0, 3), (0, 7), (1, 2)]
        assert all(shard.indices for shard in shards)

    def test_empty_lists_yield_no_shards(self):
        assert plan_shards_indexed([self.CELL], [[]], workers=4) == []

    def test_chunking_balances_by_executed_count(self):
        shards = plan_shards_indexed(
            [self.CELL], [list(range(100))], workers=4
        )
        assert len(shards) == 15  # ceil(100/ceil(100/16)) chunks of 7
        assert max(len(s.indices) for s in shards) <= 7

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            plan_shards_indexed([self.CELL], [[0], [1]], workers=1)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            plan_shards_indexed([self.CELL], [[0]], workers=0)


class TestCampaignPlumbing:
    def test_pruned_backend_registered(self):
        assert "pruned" in BACKENDS

    def test_unknown_codec_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown memory codec"):
            CharacterizationCampaign(
                WebSearch(query_count=10),
                region_codecs={"heap": "HAMMING-9000"},
            )

    def test_unknown_region_rejected_at_prepare(self):
        campaign = CharacterizationCampaign(
            WebSearch(
                vocabulary_size=200, doc_count=120, query_count=20,
                heap_size=65536,
            ),
            region_codecs={"nonexistent": "SEC-DED"},
        )
        with pytest.raises(ValueError, match="unknown regions"):
            campaign.prepare()

    def test_codec_accepts_value_and_name_spellings(self):
        for spelling in ("SEC-DED", "sec_ded", "SEC_DED", "secded", "SECDED"):
            campaign = CharacterizationCampaign(
                WebSearch(query_count=10),
                region_codecs={"heap": spelling},
            )
            assert campaign.region_codecs == {"heap": "SEC-DED"}

    def test_cli_region_codec_validates_at_parse_time(self):
        import argparse

        from repro.__main__ import _region_codec

        assert _region_codec("heap=secded") == ("heap", "SEC-DED")
        assert _region_codec("stack=Parity") == ("stack", "Parity")
        with pytest.raises(argparse.ArgumentTypeError, match="unknown memory"):
            _region_codec("heap=HAMMING")
        with pytest.raises(argparse.ArgumentTypeError, match="REGION=CODEC"):
            _region_codec("heap")

    def test_fingerprint_distinguishes_codecs_and_backend(self):
        config = CampaignConfig(trials_per_cell=2, queries_per_trial=10)
        base = campaign_fingerprint(config, backend="pruned")
        assert base == campaign_fingerprint(config)  # the default
        assert base != campaign_fingerprint(config, backend="scalar")
        assert base != campaign_fingerprint(
            config, backend="pruned", region_codecs={"heap": "SEC-DED"}
        )
        # Spelling variants of the same codec fingerprint identically.
        assert campaign_fingerprint(
            config, backend="pruned", region_codecs={"heap": "sec_ded"}
        ) == campaign_fingerprint(
            config, backend="pruned", region_codecs={"heap": "SEC-DED"}
        )
        assert FINGERPRINT_SCHEMA_VERSION >= 3


class TestPruningStats:
    def test_accumulation_and_rate(self):
        stats = PruningStats()
        assert stats.pruning_rate == 0.0
        stats.add(pruned=6, executed=2)
        stats.add(executed=2, fallback=2)
        assert stats.to_dict() == {
            "pruned": 6, "executed": 4, "fallback": 2, **dict.fromkeys(DECISIONS, 0)
        }
        stats.add(fused=50, live=10, blocked=7, fatal_tail=3)
        assert stats.to_dict()["fused"] + stats.to_dict()["live"] == 60
        with pytest.raises(KeyError):
            stats.add(fussed=1)
        assert stats.pruning_rate == pytest.approx(0.6)

    def test_record_pruning_instrument(self):
        registry = MetricsRegistry()
        instruments = CampaignInstruments(registry)
        instruments.record_pruning({"pruned": 8, "executed": 2, "fallback": 1})
        assert (
            instruments.pruning_trials.labels(disposition="pruned").value == 8
        )
        assert (
            instruments.pruning_trials.labels(disposition="fallback").value == 1
        )
        assert instruments.pruning_rate.labels().value == pytest.approx(0.8)
        # Query decisions ride the same tally, as one labelled family.
        instruments.record_pruning({"fused": 50, "live": 10, "diverged": 0})
        assert instruments.trial_queries.labels(decision="fused").value == 50
        assert instruments.trial_queries.labels(decision="live").value == 10
        assert instruments.pruning_rate.labels().value == pytest.approx(0.8)


class TestPrunedCampaignEndToEnd:
    @pytest.fixture(scope="class")
    def factory(self):
        def make():
            return WebSearch(
                vocabulary_size=200, doc_count=120, query_count=40,
                heap_size=65536,
            )

        return make

    def run_profile(self, factory, backend, **kwargs):
        campaign = CharacterizationCampaign(
            factory(),
            config=CampaignConfig(trials_per_cell=4, queries_per_trial=24, seed=11),
            backend=backend,
            **{k: v for k, v in kwargs.items() if k == "region_codecs"},
        )
        campaign.prepare()
        profile = campaign.run(
            workers=kwargs.get("workers"), workload_factory=factory
        )
        return json.dumps(profile.to_dict(), sort_keys=True), campaign

    def test_pruned_profile_matches_scalar(self, factory):
        scalar, _ = self.run_profile(factory, "scalar")
        pruned, campaign = self.run_profile(factory, "pruned")
        assert scalar == pruned
        stats = campaign.pruning_stats
        assert stats.pruned > 0
        assert stats.pruned + stats.executed == len(campaign.workload.space.regions) * 2 * 4

    def test_pruned_parallel_matches_serial(self, factory):
        serial, _ = self.run_profile(factory, "pruned")
        parallel, campaign = self.run_profile(factory, "pruned", workers=2)
        assert serial == parallel
        assert campaign.pruning_stats.pruned > 0

    def test_secded_everywhere_prunes_every_single_bit_trial(self, factory):
        codecs = {"private": "SEC-DED", "heap": "SEC-DED", "stack": "SEC-DED"}
        scalar, _ = self.run_profile(factory, "scalar", region_codecs=codecs)
        pruned, campaign = self.run_profile(
            factory, "pruned", region_codecs=codecs
        )
        assert scalar == pruned
        assert campaign.pruning_stats.executed == 0
        assert campaign.pruning_stats.pruning_rate == 1.0
