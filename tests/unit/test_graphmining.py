"""Unit tests for the graph-mining workload."""

import json
import random
import struct

import numpy as np
import pytest

from repro.apps.graphmining import (
    CsrGraph,
    GraphMining,
    SyncEngine,
    TunkRank,
    generate_follower_graph,
)
from repro.apps.graphmining.framework import KERNEL_MEMO_ENTRIES
from repro.apps.graphmining.graph import Segments
from repro.apps.graphmining.workload import _quantize_scores
from repro.core.campaign import CampaignConfig, CharacterizationCampaign
from repro.injection import SINGLE_BIT_HARD, SINGLE_BIT_SOFT
from repro.memory import HeapAllocator, StackManager
from repro.obs import NULL_OBSERVER, MetricsRegistry, Observer


@pytest.fixture
def graph():
    return generate_follower_graph(random.Random(5), vertex_count=60, edges_per_vertex=4)


@pytest.fixture
def engine_setup(space, graph):
    allocator = HeapAllocator(space, space.region_named("heap"))
    stack = StackManager(space, space.region_named("stack"))
    csr = CsrGraph(space, allocator, graph)
    return csr, SyncEngine(space, allocator, csr, stack)


class TestGraphGenerator:
    def test_counts(self, graph):
        assert graph.vertex_count == 60
        assert graph.edge_count > 0
        assert len(graph.followers) == 60

    def test_out_degree_at_least_one(self, graph):
        assert all(degree >= 1 for degree in graph.out_degree)

    def test_out_degree_consistent_with_followers(self, graph):
        recount = [0] * graph.vertex_count
        for followers in graph.followers:
            for follower in followers:
                recount[follower] += 1
        assert recount == graph.out_degree

    def test_no_self_follows(self, graph):
        for vertex, followers in enumerate(graph.followers):
            assert vertex not in followers

    def test_heavy_tailed_in_degree(self):
        big = generate_follower_graph(
            random.Random(6), vertex_count=400, edges_per_vertex=8
        )
        in_degrees = sorted((len(f) for f in big.followers), reverse=True)
        # Preferential attachment: the most-followed vertex has many times
        # the median follower count.
        assert in_degrees[0] > 4 * in_degrees[200]

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_follower_graph(random.Random(0), vertex_count=1)
        with pytest.raises(ValueError):
            generate_follower_graph(random.Random(0), edges_per_vertex=0)


class TestCsrGraph:
    def test_slices_match_adjacency(self, space, graph, engine_setup):
        csr, _engine = engine_setup
        import struct

        for vertex in range(graph.vertex_count):
            start, end = csr.follower_slice(vertex)
            count = end - start
            if count:
                block = csr.read_followers_block(start, count)
                followers = list(struct.unpack(f"<{count}I", block))
            else:
                followers = []
            assert followers == graph.followers[vertex]

    def test_out_degrees_roundtrip(self, graph, engine_setup):
        csr, _engine = engine_setup
        raw = csr.read_out_degrees()
        assert np.frombuffer(raw, dtype="<u4").tolist() == graph.out_degree


class TestSyncEngine:
    def test_tunkrank_converges_toward_popularity(self, graph, engine_setup):
        _csr, engine = engine_setup
        values = engine.run(TunkRank(), iterations=6)
        assert len(values) == graph.vertex_count
        most_followed = max(
            range(graph.vertex_count), key=lambda v: len(graph.followers[v])
        )
        least_followed = min(
            range(graph.vertex_count), key=lambda v: len(graph.followers[v])
        )
        assert values[most_followed] > values[least_followed]

    def test_deterministic(self, graph, engine_setup):
        _csr, engine = engine_setup
        first = engine.run(TunkRank(), iterations=4)
        assert first.dtype == np.float64
        assert first.tobytes() == engine.run(TunkRank(), iterations=4).tobytes()

    def test_vertex_with_no_followers_scores_zero(self, space, rng):
        from repro.apps.graphmining.graph import FollowerGraph

        graph = FollowerGraph(
            vertex_count=3,
            followers=[[1, 2], [], []],  # only vertex 0 has followers
            out_degree=[1, 1, 1],
        )
        # out_degree bookkeeping: v1, v2 follow v0; v0 "follows" nothing
        # but needs out_degree >= 1 for the recurrence, keep 1.
        allocator = HeapAllocator(space, space.region_named("heap"))
        stack = StackManager(space, space.region_named("stack"))
        csr = CsrGraph(space, allocator, graph)
        engine = SyncEngine(space, allocator, csr, stack)
        values = engine.run(TunkRank(), iterations=3)
        assert values[1] == 0.0 and values[2] == 0.0
        assert values[0] > 0.0

    def test_bad_iterations_rejected(self, engine_setup):
        _csr, engine = engine_setup
        with pytest.raises(ValueError):
            engine.run(TunkRank(), iterations=0)


class TestTunkRank:
    def test_retweet_probability_validation(self):
        with pytest.raises(ValueError):
            TunkRank(retweet_probability=1.5)

    def test_compute_zero_degree_yields_infinity(self):
        program = TunkRank()
        result = program.compute(0, [1.0], [0])
        assert result == float("inf")

    def test_compute_sums_contributions(self):
        program = TunkRank(retweet_probability=0.5)
        # Two followers with influence 1.0 and out-degree 2 each:
        # 2 * (1 + 0.5) / 2 = 1.5
        assert program.compute(0, [1.0, 1.0], [2, 2]) == pytest.approx(1.5)


def _batch_vs_scalar(program, values, degrees, segments_ids):
    """(compute_batch, per-segment compute) results as float.hex lists."""
    counts = [len(ids) for ids in segments_ids]
    flat = np.array([i for ids in segments_ids for i in ids], dtype=np.uint32)
    batch = program.compute_batch(
        np.array(values, dtype=np.float64),
        np.array(degrees, dtype=np.float64),
        Segments(counts, flat, len(values)),
    )
    scalar = [
        program.compute(
            vertex, [values[i] for i in ids], [degrees[i] for i in ids]
        )
        for vertex, ids in enumerate(segments_ids)
    ]
    return [float(x).hex() for x in batch], [float(x).hex() for x in scalar]


class TestComputeBatchMatchesCompute:
    """compute_batch must equal compute bit for bit on every interpreter
    (builtin sum() is Neumaier-compensated from CPython 3.12 on)."""

    def test_random_segments_with_inf_and_nan(self):
        rng = random.Random(11)
        program = TunkRank(retweet_probability=0.37)
        for _ in range(25):
            n = rng.randrange(1, 40)
            values = [rng.uniform(-50.0, 50.0) for _ in range(n)]
            degrees = [rng.choice([0, 1, 2, 3, 7, 11]) for _ in range(n)]
            # NaN and +-inf contributions, over zero and non-zero degrees
            # (a zero divisor: +inf for positive, -inf for the rest, NaN
            # included).
            for special in (float("nan"), float("inf"), float("-inf")):
                values[rng.randrange(n)] = special
            segments_ids = [
                [rng.randrange(n) for _ in range(rng.choice([0, 0, 1, 2, 5, 9, 30]))]
                for _ in range(n)
            ]
            batch, scalar = _batch_vs_scalar(program, values, degrees, segments_ids)
            assert batch == scalar

    def test_compensated_sum_would_differ(self):
        # Ten quotients of 0.1: naive left-to-right gives 0.999...9,
        # compensated summation (math.fsum, sum() on 3.12+) gives 1.0.
        program = TunkRank(retweet_probability=0.5)
        batch, scalar = _batch_vs_scalar(
            program, [0.0] * 10, [10] * 10, [list(range(10)), [], [3]]
        )
        assert batch == scalar
        assert batch[0] == (0.9999999999999999).hex() != (1.0).hex()
        assert batch[1:] == [(0.0).hex(), (0.1).hex()]

    def test_negative_zero_quotient_at_max_in_degree_one(self):
        # (1 + 1.0 * -(1 + 2**-52)) / 1e308 underflows to -0.0; the scalar
        # loop's 0.0 + -0.0 is +0.0. A fold of the one-row layout seeded
        # with its first row (NumPy versions differ on that without
        # initial=0.0) would return the -0.0 itself.
        program = TunkRank(retweet_probability=1.0)
        values = [0.0, -1.0000000000000002, 2.0]
        degrees = [1, 1e308, 3]
        batch, scalar = _batch_vs_scalar(program, values, degrees, [[1], [], [2]])
        assert batch == scalar
        assert batch[0] == (0.0).hex() != (-0.0).hex()

    def test_graph_without_edges(self):
        program = TunkRank()
        batch, scalar = _batch_vs_scalar(
            program, [1.0, float("nan"), -3.0], [1, 0, 2], [[], [], []]
        )
        assert batch == scalar == [(0.0).hex()] * 3

    def test_one_vertex_followed_by_every_other(self):
        rng = random.Random(8)
        program = TunkRank(retweet_probability=0.21)
        n = 64
        values = [rng.uniform(-1e6, 1e6) for _ in range(n)]
        degrees = [rng.choice([1, 2, 3, 7, 1000]) for _ in range(n)]
        segments_ids = [[]] * n
        segments_ids[5] = [v for v in range(n) if v != 5]
        batch, scalar = _batch_vs_scalar(program, values, degrees, segments_ids)
        assert batch == scalar

    def test_segments_sum_left_to_right(self):
        rng = random.Random(3)
        counts = [rng.choice([0, 1, 2, 3, 8, 17]) for _ in range(50)]
        flat = np.array([rng.uniform(-1e16, 1e16) for _ in range(sum(counts))])
        chunks = iter(flat.tolist())
        expected = []
        for count in counts:
            total = 0.0
            for _ in range(count):
                total += next(chunks)
            expected.append(total.hex())
        segments = Segments(counts, np.arange(flat.size), flat.size)
        assert [x.hex() for x in segments.sums(flat).tolist()] == expected
        assert Segments([], [], 0).sums(np.empty(0)).size == 0

    def test_lone_segment_sums_left_to_right(self):
        """NumPy reduces a one-column table pairwise (eight partial sums);
        the layout keeps a second column so one segment still folds row
        after row."""
        rng = random.Random(4)
        flat = [rng.uniform(-1e16, 1e16) * 10.0 ** rng.randrange(-5, 5)
                for _ in range(200)]
        total = 0.0
        for value in flat:
            total += value
        sums = Segments([len(flat)], np.arange(len(flat)), len(flat)).sums(
            np.array(flat)
        )
        assert [x.hex() for x in sums.tolist()] == [total.hex()]

    def test_ids_gather_per_slot_values(self):
        """Ids index the per-slot values; repeated ids re-read a slot."""
        values = np.array([0.5, -2.0, 1e308, float("inf")])
        segments = Segments([3, 0, 2, 1], [1, 0, 0, 2, 2, 3], 4)
        assert segments.sums(values).tolist() == [
            -1.0, 0.0, float("inf"), float("inf")
        ]


class TestPackArrayMatchesClamp:
    def test_saturation_and_nan_rules(self):
        """The array pack must equal pack(*_clamp(...)) byte for byte."""
        rng = random.Random(2)
        values = [
            0.0, -0.0, 1.0, 1e-45, -1e-46, 0.1, 3.0e38, -3.0e38,
            3.0000001e38, -3.0000001e38, 3.3e38, 1e39, -1e300,
            float("inf"), float("-inf"), float("nan"),
        ] + [rng.uniform(-4e38, 4e38) for _ in range(200)]
        expected = struct.pack(f"<{len(values)}f", *SyncEngine._clamp(values))
        assert SyncEngine._pack_array(np.array(values)) == expected


def _scalar_quantize(score: float) -> float:
    """The per-score narrowing the workload used before it narrowed the
    top scores in one array cast (frozen oracle)."""
    try:
        narrowed = struct.unpack("<f", struct.pack("<f", score))[0]
    except (OverflowError, ValueError):
        narrowed = float("inf") if score > 0 else float("-inf")
    return round(narrowed, 4)


class TestQuantizeScoresMatchesScalar:
    def test_f32_boundary_subnormals_infinities_and_signed_zero(self):
        """The array cast + round must equal the scalar struct round trip
        on every float64, by float.hex (so -0.0 is told from 0.0)."""
        f32_max = 3.4028234663852886e38
        half_ulp = 2.0 ** 103  # half an f32 ulp at the top binade
        rng = random.Random(9)
        values = [
            0.0, -0.0, 1.0, -1.0, 0.12345678, -0.00004999, 0.00005,
            f32_max, -f32_max, 3.4028235e38, -3.4028235e38,
            f32_max + half_ulp * 0.99, -(f32_max + half_ulp * 0.99),
            f32_max + half_ulp, -(f32_max + half_ulp),  # ties round to inf
            3.5e38, -3.5e38, 1e39, -1e300, 1.7976931348623157e308,
            1e-45, 1.401298464324817e-45, -1e-45, 7e-46, -7e-46, 1e-46,
            1.1754943508222875e-38, 1.17549421e-38, 5e-324, -5e-324,
            float("inf"), float("-inf"),
        ] + [rng.uniform(-4e38, 4e38) for _ in range(200)] + [
            rng.uniform(-1.0, 1.0) * 10.0 ** rng.randrange(-46, -30)
            for _ in range(200)
        ]
        expected = [_scalar_quantize(value).hex() for value in values]
        narrowed = _quantize_scores(np.array(values, dtype=np.float64))
        assert [value.hex() for value in narrowed] == expected
        assert all(type(value) is float for value in narrowed)


class TestSweepDispositionCounters:
    @pytest.fixture
    def workload(self):
        workload = GraphMining(
            seed=21, vertex_count=80, edges_per_vertex=5, iterations=3, jobs=2
        )
        workload.build()
        workload.checkpoint()
        return workload

    def test_single_edge_fault_leaves_at_most_two_live_vertices(self, workload):
        workload.reset()
        before = workload.engine.sweep_stats()
        workload.space.inject_hard_fault(workload.csr.edges_addr + 4 * 17, 0)
        workload.execute(0)
        after = workload.fast_path_stats()
        sweeps = after["sweeps_partial"] - before["sweeps_partial"]
        assert sweeps == 3
        assert after["sweeps_fused"] == before["sweeps_fused"]
        assert after["sweeps_per_vertex"] == before["sweeps_per_vertex"]
        live = after["sweep_live_vertices"] - before["sweep_live_vertices"]
        assert 0 < live <= 2 * sweeps
        assert "fast_accesses" in after  # next to the space's counters

    def test_counters_cost_nothing_without_instruments(self, workload):
        """Under NULL_OBSERVER nothing reads the counters (the engine only
        bumps plain ints, once per sweep); with a registry attached the
        same campaign folds them through record_memory — same profile."""
        config = CampaignConfig(trials_per_cell=4, queries_per_trial=2, seed=5)
        specs = (SINGLE_BIT_SOFT, SINGLE_BIT_HARD)

        def run(observer):
            before = workload.fast_path_stats()
            campaign = CharacterizationCampaign(
                workload, config=config, backend="scalar", observer=observer
            )
            campaign.prepare()
            profile = campaign.run(specs=specs)
            after = workload.fast_path_stats()
            delta = {key: after[key] - before[key] for key in after}
            return json.dumps(profile.to_dict(), sort_keys=True), delta

        assert NULL_OBSERVER.instruments is None
        quiet_profile, quiet = run(NULL_OBSERVER)
        observer = Observer(metrics=MetricsRegistry())
        loud_profile, loud = run(observer)
        assert quiet_profile == loud_profile
        # Kernel reuse depends on what the engine ran before (the loud
        # run finds the quiet run's results in the memo); the number of
        # sweeps that reached the kernel does not.
        kernel_keys = ("sweep_kernel_reused", "sweep_kernel_computed")
        sweep_keys = [
            key for key in quiet if key.startswith("sweep") and key not in kernel_keys
        ]
        assert sweep_keys and all(quiet[key] == loud[key] for key in sweep_keys)
        assert sum(quiet[key] for key in kernel_keys) == sum(
            loud[key] for key in kernel_keys
        )
        instruments = observer.instruments
        # prepare()'s golden run happens outside any cell, so the folded
        # cell deltas are bounded by (and here nearly all of) the total.
        folded = sum(
            instruments.graph_sweeps.labels(disposition=name).value
            for name in ("fused", "partial", "per_vertex")
        )
        total = sum(loud[f"sweeps_{name}"] for name in ("fused", "partial", "per_vertex"))
        assert 0 < folded <= total
        assert (
            instruments.graph_sweep_live_vertices.labels().value
            <= loud["sweep_live_vertices"]
        )
        kernel = {
            source: instruments.graph_sweep_kernel.labels(source=source).value
            for source in ("reused", "computed")
        }
        assert kernel["reused"] <= loud["sweep_kernel_reused"]
        assert kernel["computed"] <= loud["sweep_kernel_computed"]
        # Every sweep that did not crash reached the kernel exactly once.
        assert kernel["reused"] + kernel["computed"] == folded


class TestKernelMemo:
    @pytest.fixture
    def workload(self):
        workload = GraphMining(
            seed=4, vertex_count=70, edges_per_vertex=4, iterations=4, jobs=2
        )
        workload.build()
        workload.checkpoint()
        return workload

    def test_repeated_job_reuses_every_sweep(self, workload):
        workload.reset()
        before = workload.engine.sweep_stats()
        first = workload.execute(0)
        workload.reset()
        middle = workload.engine.sweep_stats()
        assert workload.execute(1) == first
        after = workload.engine.sweep_stats()
        # build() ran the same fault-free job: every sweep is in the memo.
        assert after["sweep_kernel_reused"] - before["sweep_kernel_reused"] == 8
        assert after["sweep_kernel_computed"] == middle["sweep_kernel_computed"]

    def test_memo_is_bounded_first_in_first_out(self, workload):
        engine = workload.engine
        memo = engine._kernel_memo
        workload.reset()
        oldest = next(iter(memo))
        values_addr = engine.value_buffer_addrs[0]
        for round_ in range(KERNEL_MEMO_ENTRIES):
            workload.reset()
            # 1.0f with vertex round_'s mantissa LSB stuck at 1: a first
            # sweep no other job reads, so every job inserts a fresh key
            # and none re-inserts a fault-free one.
            workload.space.inject_hard_fault(
                values_addr + 4 * round_, 0, stuck_value=1
            )
            workload.execute(0)
            assert len(memo) <= KERNEL_MEMO_ENTRIES
        assert len(memo) == KERNEL_MEMO_ENTRIES
        assert oldest not in memo

    def test_memo_hands_out_copies(self, workload):
        """The sweep writes recomputed vertices into the kernel result;
        the memo's entry must not see them."""
        workload.reset()
        workload.execute(0)
        snapshot = {key: value.tobytes() for key, value in
                    workload.engine._kernel_memo.items()}
        workload.reset()
        workload.space.inject_hard_fault(workload.csr.edges_addr + 4 * 9, 2)
        workload.execute(0)
        workload.execute(1)
        memo = workload.engine._kernel_memo
        for key, raw in snapshot.items():
            if key in memo:
                assert memo[key].tobytes() == raw


class TestWorkload:
    def test_jobs_reproducible(self, graphmining_small):
        graphmining_small.reset()
        first = graphmining_small.execute(0)
        graphmining_small.reset()
        second = graphmining_small.execute(0)
        assert first == second

    def test_top100_sorted(self, graphmining_small):
        graphmining_small.reset()
        response = graphmining_small.execute(0)
        scores = [score for _vertex, score in response]
        assert scores == sorted(scores, reverse=True)
        assert len(response) == min(100, 150)

    def test_job_index_bounds(self, graphmining_small):
        with pytest.raises(IndexError):
            graphmining_small.execute(99)
