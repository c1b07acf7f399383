"""Equivalence suite: fault-local sweep fusion vs the scalar oracle.

The graph engine's fast path replays every run of vertices whose CSR
bytes are provably pristine and sweeps only the vertices around a
resident fault live (``CsrGraph.sweep_runs``). This module pins that to
the oracle: twin graph-mining workloads — one on the fast path, one built
under ``oracle_mode()`` — get the same fault at every *class* of CSR
location, and after every job their responses (or exceptions), logical
clock, access counters, fault log, fault consumption and stored bytes
must be equal. The crash scenarios pin the clock *at* a dirty vertex: a
replayed run charged after, instead of before, the live vertex that
follows it would go uncharged when that vertex raises.

The engine also reuses a sweep's batch-kernel result when the value
bytes, out-degree bytes and program parameters it reads repeat. The
reuse scenarios pin that the key changes with every input (a stuck-at
in a value buffer, in the out-degree array), that a reused result is a
copy (a fault-free run after a reusing one still matches), and that a
heavy-tailed graph's padded layout sums like the scalar loop.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.graphmining import GraphMining
from repro.memory.fastpath import oracle_mode

JOBS = 2
ITERATIONS = 3


def _build(seed=77, vertex_count=60, edges_per_vertex=4):
    workload = GraphMining(
        seed=seed,
        vertex_count=vertex_count,
        edges_per_vertex=edges_per_vertex,
        iterations=ITERATIONS,
        jobs=JOBS,
    )
    workload.build()
    workload.checkpoint()
    return workload


def _build_twins(**graph):
    fast = _build(**graph)
    with oracle_mode():
        oracle = _build(**graph)
    assert fast.space.fast_path_enabled and not oracle.space.fast_path_enabled
    return fast, oracle


@pytest.fixture(scope="module")
def twins():
    return _build_twins()


@pytest.fixture(scope="module")
def random_twins():
    """Twins of their own for the random faults: their results would
    otherwise crowd the shared twins' 32-entry kernel memo, on which
    the kernel-reuse tests below build."""
    return _build_twins()


def _fault_key(fault):
    return (fault.addr, fault.bit, fault.kind, fault.stuck_value, fault.injected_at)


def _observe(workload, job):
    try:
        return ("ok", workload.execute(job))
    except Exception as error:  # noqa: BLE001 - compared between the twins
        return ("raise", type(error).__name__, str(error))


def run_twins(twins, inject, jobs=None):
    """Reset both twins, apply ``inject(workload)``, compare per job.

    Returns the fast twin's sweep-disposition delta so callers can assert
    the scenario actually exercised the path it is named after; a
    ``jobs`` list receives the delta of each job.
    """
    for workload in twins:
        workload.reset()  # restore keeps counters
        workload.space.reset_access_stats()
        inject(workload)
    fast, oracle = twins
    before = fast.engine.sweep_stats()
    for job in range(JOBS):
        job_before = fast.engine.sweep_stats()
        assert _observe(fast, job) == _observe(oracle, job)
        if jobs is not None:
            job_after = fast.engine.sweep_stats()
            jobs.append({key: job_after[key] - job_before[key] for key in job_after})
        assert fast.space.time == oracle.space.time
        assert fast.space.access_stats() == oracle.space.access_stats()
        assert [_fault_key(f) for f in fast.space.fault_log.entries] == [
            _fault_key(f) for f in oracle.space.fault_log.entries
        ]
        tracked = fast.space.tracked_addresses()
        assert tracked == oracle.space.tracked_addresses()
        for addr in tracked:
            assert fast.space.fault_consumption(
                addr
            ) == oracle.space.fault_consumption(addr)
        size = fast.space.size
        assert fast.space.peek(0, size) == oracle.space.peek(0, size)
    after = fast.engine.sweep_stats()
    assert oracle.engine.sweep_stats()["sweeps_fused"] == 0
    return {key: after[key] - before[key] for key in after}


# -- where things live in the CSR arrays ----------------------------------
def offset_entry(workload, entry):
    return workload.csr.offsets_addr + 4 * entry


def edge(workload, index):
    return workload.csr.edges_addr + 4 * index


def offsets_of(workload):
    csr = workload.csr
    raw = workload.space.peek(csr.offsets_addr, 4 * (csr.vertex_count + 1))
    return list(struct.unpack(f"<{csr.vertex_count + 1}I", raw))


def stored_bit(workload, addr, bit):
    return (workload.space.peek(addr, 1)[0] >> bit) & 1


def first_edge_after_empty_vertex(workload):
    """Edge index owned by the vertex right after a zero-follower vertex."""
    offsets = offsets_of(workload)
    for vertex in range(workload.csr.vertex_count - 1):
        if offsets[vertex] == offsets[vertex + 1] < offsets[vertex + 2]:
            return offsets[vertex + 1]
    raise AssertionError("test graph has no zero-follower vertex")


def entry_between_busy_vertices(workload):
    """An offsets entry whose two readers both have >= 2 followers, so a
    +-1 corruption yields a legal but wrong slice rather than a timeout."""
    offsets = offsets_of(workload)
    for entry in range(1, workload.csr.vertex_count):
        if min(offsets[entry] - offsets[entry - 1],
               offsets[entry + 1] - offsets[entry]) >= 2:
            return entry
    raise AssertionError("test graph has no two adjacent busy vertices")


def soft(addr_of, bit=0):
    return lambda workload: workload.space.inject_soft_flip(
        addr_of(workload), bit
    )


def hard(addr_of, bit=0, stuck=None):
    return lambda workload: workload.space.inject_hard_fault(
        addr_of(workload), bit, stuck_value=stuck
    )


def silent_stuck_at(workload):
    addr = edge(workload, workload.csr.edge_count // 2)
    workload.space.inject_hard_fault(
        addr, 3, stuck_value=stored_bit(workload, addr, 3)
    )


def two_bits_one_word(workload):
    base = edge(workload, workload.csr.edge_count // 3)
    workload.space.inject_hard_fault(base, 1)
    workload.space.inject_hard_fault(base + 1, 2)


def two_distant_soft_flips(workload):
    workload.space.inject_soft_flip(edge(workload, 3), 0)
    workload.space.inject_soft_flip(edge(workload, workload.csr.edge_count - 4), 1)


LAST_ENTRY = lambda w: offset_entry(w, w.csr.vertex_count)  # noqa: E731
LAST_EDGE = lambda w: edge(w, w.csr.edge_count - 1)  # noqa: E731

#: name -> (inject, expects at least one partially fused sweep)
SCENARIOS = {
    "first_offsets_entry_soft": (soft(lambda w: offset_entry(w, 0)), True),
    "first_offsets_entry_hard": (hard(lambda w: offset_entry(w, 0), 1), True),
    "last_offsets_entry_soft": (soft(LAST_ENTRY), True),
    # end + 4: the last vertex reads past the edges array and crashes.
    "last_offsets_entry_hard": (hard(LAST_ENTRY, 2), False),
    "first_edge_soft": (soft(lambda w: edge(w, 0), 1), True),
    "first_edge_hard": (hard(lambda w: edge(w, 0), 0), True),
    "last_edge_soft": (soft(LAST_EDGE, 2), True),
    "last_edge_hard": (hard(LAST_EDGE, 1), True),
    "neighbour_of_empty_vertex": (
        soft(lambda w: edge(w, first_edge_after_empty_vertex(w))),
        True,
    ),
    "silent_stuck_at": (silent_stuck_at, True),
    "two_bits_one_word": (two_bits_one_word, True),
    "two_distant_soft_flips": (two_distant_soft_flips, True),
    # id + 64 >= vertex_count but still mapped: stray loads, no crash.
    "out_of_range_id_stray_loads": (
        soft(lambda w: edge(w, w.csr.edge_count // 2), 6),
        True,
    ),
    # id + 2**31: the stray load leaves the address space (segfault).
    "out_of_range_id_segfault": (
        hard(lambda w: edge(w, w.csr.edge_count // 2) + 3, 7, stuck=1),
        False,
    ),
    # offsets[i] + 2**31: an impossible follower slice (QueryTimeout).
    "corrupted_offset_timeout": (
        soft(lambda w: offset_entry(w, w.csr.vertex_count // 2) + 3, 7),
        False,
    ),
    # a small offset corruption: a legal but wrong slice.
    "corrupted_offset_wrong_slice": (
        soft(lambda w: offset_entry(w, entry_between_busy_vertices(w)), 0),
        True,
    ),
}


class TestPartialFusionMatchesOracle:
    def test_fault_free_sweeps_fuse_whole(self, twins):
        stats = run_twins(twins, lambda workload: None)
        assert stats["sweeps_fused"] > 0
        assert stats["sweeps_partial"] == stats["sweeps_per_vertex"] == 0
        assert stats["sweep_live_vertices"] == 0

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fault_class(self, twins, name):
        inject, expect_partial = SCENARIOS[name]
        stats = run_twins(twins, inject)
        if expect_partial:
            assert stats["sweeps_partial"] > 0, stats

    def test_guard_interval_spanning_clean_vertices_goes_live(self, twins):
        """Between two distant faults the interval-based span check refuses
        the clean run; it must sweep live (and still match), not replay."""
        stats = run_twins(twins, two_distant_soft_flips)
        sweeps = stats["sweeps_partial"] + stats["sweeps_per_vertex"]
        vertices = twins[0].csr.vertex_count
        assert stats["sweep_live_vertices"] > sweeps * vertices // 2

    def test_untracked_corruption_is_still_dirty(self, twins):
        """Bytes that differ from build time with no guard left (a repair
        cleared the fault but not the data) are found by the byte compare."""

        def inject(workload):
            addr = edge(workload, 5)
            workload.space.inject_soft_flip(addr, 2)
            workload.space.clear_faults_in_range(addr, 1)

        stats = run_twins(twins, inject)
        assert stats["sweeps_partial"] > 0
        assert stats["sweeps_fused"] == 0

    @given(
        faults=st.lists(
            st.tuples(
                st.sampled_from(["soft", "hard", "stuck0", "stuck1"]),
                st.sampled_from(["offsets", "edges"]),
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=7),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_csr_faults(self, random_twins, faults):
        def inject(workload):
            csr = workload.csr
            spans = {
                "offsets": (csr.offsets_addr, 4 * (csr.vertex_count + 1)),
                "edges": (csr.edges_addr, 4 * csr.edge_count),
            }
            for kind, array, position, bit in faults:
                base, length = spans[array]
                addr = base + position % length
                if kind == "soft":
                    workload.space.inject_soft_flip(addr, bit)
                elif kind == "hard":
                    workload.space.inject_hard_fault(addr, bit)
                else:
                    workload.space.inject_hard_fault(
                        addr, bit, stuck_value=int(kind[-1])
                    )

        run_twins(random_twins, inject)


# -- batch-kernel reuse ---------------------------------------------------
def value_slot(workload, buffer, vertex):
    return workload.engine.value_buffer_addrs[buffer] + 4 * vertex


def out_degree(workload, vertex):
    return workload.csr.out_degree_addr + 4 * vertex


def kernel_counts(stats):
    return stats["sweep_kernel_reused"], stats["sweep_kernel_computed"]


class TestKernelReuseMatchesOracle:
    def test_persistent_fault_reuses_kernel_in_later_jobs(self, twins):
        """(a) One hard fault across both jobs: the second job reads the
        first job's inputs sweep for sweep, so it reuses every kernel."""
        jobs = []
        run_twins(twins, hard(lambda w: edge(w, 0), 0), jobs=jobs)
        assert kernel_counts(jobs[1]) == (ITERATIONS, 0)
        assert jobs[1]["sweeps_partial"] == ITERATIONS  # the fault is live
        # The reusing job wrote its live vertices into a copy: the
        # fault-free results it started from must still be intact.
        jobs = []
        run_twins(twins, lambda workload: None, jobs=jobs)
        assert all(kernel_counts(job) == (ITERATIONS, 0) for job in jobs)

    def test_value_buffer_stuck_at_changes_the_key(self, twins):
        """(b) A stuck-at in the value buffer the first sweep reads: no
        sweep of the first job may reuse a fault-free result."""
        run_twins(twins, lambda workload: None)  # fault-free results cached
        jobs = []
        # The sign bit of vertex 7's initial 1.0 reads as set: -1.0.
        run_twins(
            twins, hard(lambda w: value_slot(w, 0, 7) + 3, 7, stuck=1), jobs=jobs
        )
        assert kernel_counts(jobs[0]) == (0, ITERATIONS)
        assert kernel_counts(jobs[1]) == (ITERATIONS, 0)

    def test_out_degree_stuck_at_changes_the_key(self, twins):
        """(c) A stuck-at in the out-degree array: the first sweep reads
        fault-free values, so only the degree bytes tell its key apart."""
        run_twins(twins, lambda workload: None)  # fault-free results cached
        jobs = []

        def inject(workload):
            addr = out_degree(workload, 11)
            workload.space.inject_hard_fault(
                addr, 0, stuck_value=1 - stored_bit(workload, addr, 0)
            )

        run_twins(twins, inject, jobs=jobs)
        assert kernel_counts(jobs[0]) == (0, ITERATIONS)
        assert jobs[0]["sweeps_fused"] == ITERATIONS  # CSR arrays are clean


@pytest.fixture(scope="module")
def heavy_twins():
    """(d) A heavy-tailed graph: the padded layout is mostly padding."""
    twins = _build_twins(seed=5, vertex_count=150, edges_per_vertex=3)
    offsets = offsets_of(twins[0])
    in_degrees = [high - low for low, high in zip(offsets, offsets[1:])]
    mean = sum(in_degrees) / len(in_degrees)
    assert max(in_degrees) >= 5 * mean
    assert in_degrees.count(0) > 0
    return twins


HEAVY_SCENARIOS = {
    "fault_free": lambda workload: None,
    "edge_hard": hard(lambda w: edge(w, w.csr.edge_count // 2), 1),
    "offset_soft": soft(lambda w: offset_entry(w, entry_between_busy_vertices(w))),
    "neighbour_of_empty_vertex": hard(
        lambda w: edge(w, first_edge_after_empty_vertex(w)), 2
    ),
    "out_degree_hard": hard(lambda w: out_degree(w, 3), 1),
    "value_buffer_hard": hard(lambda w: value_slot(w, 1, 0) + 2, 0),
}


class TestHeavyTailedGraphMatchesOracle:
    @pytest.mark.parametrize("name", sorted(HEAVY_SCENARIOS))
    def test_scenario(self, heavy_twins, name):
        stats = run_twins(heavy_twins, HEAVY_SCENARIOS[name])
        sweeps = sum(
            stats[key] for key in ("sweeps_fused", "sweeps_partial", "sweeps_per_vertex")
        )
        assert sweeps > 0
        assert sum(kernel_counts(stats)) == sweeps
