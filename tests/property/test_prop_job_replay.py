"""Equivalence suite: replayed graph-mining jobs vs the scalar oracle.

On the fast path, under a resident fault, the graph engine replays a job
whose key (fault state, stored CSR bytes) and exposed loads repeat those
of the last job it ran (``SyncEngine.run``): the recorded clock and
counter deltas, consumption and final stored bytes stand in for running
it. Twin workloads — one on the fast path, one built under
``oracle_mode()`` — go through the same script of resets, fault
injections and jobs, and after every job their responses (or
exceptions), clock, access counters, fault log, fault consumption and
stored bytes must be equal. Each scenario also pins which jobs replayed,
so a key that forgets an input (a replay that should have run) or a
consumption rule that admits too much fails here even where the twins
happen to agree.
"""

import pytest

from repro.apps.graphmining import workload as graphmining_workload
from repro.memory.errors import SegmentationFault
from tests.property.test_prop_sweep_fusion import (
    _build_twins,
    _fault_key,
    _observe,
    edge,
    entry_between_busy_vertices,
    offset_entry,
    out_degree,
    stored_bit,
    value_slot,
)

JOBS = 2  # per trial, as the twins are built


@pytest.fixture(scope="module")
def twins():
    return _build_twins()


def frame_slot(workload, offset):
    """Address of a local of the job's frame (the one frame on the stack)."""
    return workload.space.region_named("stack").end - 64 + offset


def _compare(fast, oracle, job):
    assert _observe(fast, job) == _observe(oracle, job)
    assert fast.space.time == oracle.space.time
    assert fast.space.access_stats() == oracle.space.access_stats()
    assert [_fault_key(f) for f in fast.space.fault_log.entries] == [
        _fault_key(f) for f in oracle.space.fault_log.entries
    ]
    tracked = fast.space.tracked_addresses()
    assert tracked == oracle.space.tracked_addresses()
    for addr in tracked:
        assert fast.space.fault_consumption(addr) == oracle.space.fault_consumption(addr)
    size = fast.space.size
    assert fast.space.peek(0, size) == oracle.space.peek(0, size)


def run_script(twins, script):
    """Apply ``script`` to both twins; returns 1/0 per job: replayed?

    Steps: ``"reset"`` (restore, keeping counters), a callable (applied
    to each workload: an injection or a corruption), or a job index.
    """
    fast, oracle = twins
    replayed = []
    for step in script:
        if step == "reset":
            for workload in twins:
                workload.reset()
                workload.space.reset_access_stats()
        elif callable(step):
            for workload in twins:
                step(workload)
        else:
            before = fast.engine.sweep_stats()["jobs_replayed"]
            _compare(fast, oracle, step)
            replayed.append(fast.engine.sweep_stats()["jobs_replayed"] - before)
    assert oracle.engine.sweep_stats()["jobs_replayed"] == 0
    return replayed


def trial(inject):
    """One trial: reset, inject, every job."""
    return ["reset", inject, *range(JOBS)]


def soft(addr_of, bit=0):
    return lambda workload: workload.space.inject_soft_flip(addr_of(workload), bit)


def hard(addr_of, bit=0, stuck=None):
    return lambda workload: workload.space.inject_hard_fault(
        addr_of(workload), bit, stuck_value=stuck
    )


def flipped(addr_of, bit):
    """A stuck-at at the complement of the stored bit (always visible)."""

    def inject(workload):
        addr = addr_of(workload)
        workload.space.inject_hard_fault(
            addr, bit, stuck_value=1 - stored_bit(workload, addr, bit)
        )

    return inject


MIDDLE_EDGE = lambda w: edge(w, w.csr.edge_count // 2)  # noqa: E731

#: name -> (inject, job 2 of the trial replays job 1)
SCENARIOS = {
    "offsets_soft": (soft(lambda w: offset_entry(w, entry_between_busy_vertices(w))), True),
    "offsets_hard": (
        flipped(lambda w: offset_entry(w, entry_between_busy_vertices(w)), 0),
        True,
    ),
    "edges_soft": (soft(MIDDLE_EDGE, 1), True),
    "edges_hard": (flipped(MIDDLE_EDGE, 1), True),
    "out_degree_soft": (soft(lambda w: out_degree(w, 9), 2), True),
    "out_degree_hard": (flipped(lambda w: out_degree(w, 9), 1), True),
    # Stored over by the job's first write: the fault is never read.
    "value_buffer_soft": (soft(lambda w: value_slot(w, 0, 5) + 2, 3), True),
    "value_buffer_hard": (flipped(lambda w: value_slot(w, 1, 5) + 3, 6), True),
    "frame_soft": (soft(lambda w: frame_slot(w, 0), 0), True),
    # The selector reads 1 in the first sweep: the job loads the second
    # value buffer before storing it — an exposed load, keyed by value.
    "frame_selector_hard": (hard(lambda w: frame_slot(w, 4), 0, stuck=1), None),
    # offsets[i] + 2**31: every job raises QueryTimeout after charging.
    "query_timeout": (soft(lambda w: offset_entry(w, w.csr.vertex_count // 2) + 3, 7), True),
    # id + 64 >= vertex_count: stray loads into the other value buffer
    # before this job stores it, which the first job left different.
    "stray_loads": (soft(MIDDLE_EDGE, 6), False),
}


class TestJobReplayMatchesOracle:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_fault_class(self, twins, name):
        inject, replays = SCENARIOS[name]
        replayed = run_script(twins, trial(inject))
        assert replayed[0] == 0
        if replays is not None:
            assert replayed[1] == int(replays), replayed

    @pytest.mark.parametrize(
        "name", ["edges_hard", "out_degree_hard", "query_timeout", "value_buffer_hard"]
    )
    def test_recurring_fault_replays_across_trials(self, twins, name):
        """The same fault in the next trial: its first job finds the last
        job in the memo, and must leave the value buffers as running it
        would (they hold the checkpoint's bytes when it starts)."""
        inject, _ = SCENARIOS[name]
        replayed = run_script(twins, trial(inject) + trial(inject))
        assert replayed == [0, 1, 1, 1]

    def test_fault_free_jobs_never_replay(self, twins):
        assert run_script(twins, trial(lambda workload: None)) == [0, 0]

    def test_fault_arrival_between_jobs_changes_the_key(self, twins):
        """A serve session's fault arrives between two live jobs."""
        script = [
            "reset",
            flipped(MIDDLE_EDGE, 1),
            0,
            flipped(lambda w: out_degree(w, 9), 1),
            1,
            0,
        ]
        assert run_script(twins, script) == [0, 0, 1]

    def test_csr_corruption_without_a_fault_changes_the_key(self, twins):
        """Same fault state, different stored CSR bytes (a repair that
        cleared a fault but not its data): the job must run."""

        def corrupt(workload):
            addr = edge(workload, 5)
            workload.space.inject_soft_flip(addr, 2)
            workload.space.clear_faults_in_range(addr, 1)

        resident = flipped(lambda w: out_degree(w, 9), 1)
        script = trial(resident) + ["reset", resident, corrupt, 0, 1]
        assert run_script(twins, script) == [0, 1, 0, 1]

    def test_recorded_job_that_started_overwritten_does_not_replay(self, twins):
        """A value-buffer byte is overwritten by every job's first store.
        The job recorded after that store (a second fault arrived, so it
        ran) started with the byte overwritten; the next trial's first
        job starts with it fresh and must run, not replay it."""
        first = soft(lambda w: value_slot(w, 0, 5) + 2, 3)
        second = soft(lambda w: value_slot(w, 1, 8), 1)
        script = ["reset", first, 0, second, 1, "reset", first, second, 0, 1]
        assert run_script(twins, script) == [0, 0, 0, 1]

    def test_crashed_job_is_not_recorded(self, twins):
        """id + 2**31: the stray load leaves the space (segfault)."""
        crash = flipped(lambda w: MIDDLE_EDGE(w) + 3, 7)
        fast, _ = twins
        replayed = run_script(twins, trial(crash))
        assert replayed == [0, 0]
        fast.reset()
        crash(fast)
        with pytest.raises(SegmentationFault):
            fast.execute(0)

    def test_replayed_job_returns_the_recorded_response(self, twins, monkeypatch):
        """The replayed job is not ranked again: it returns the response
        ranked when the recorded job ran (equal to the oracle's, which
        ranks both jobs)."""
        ranked = []
        rank = graphmining_workload._rank
        monkeypatch.setattr(
            graphmining_workload, "_rank", lambda scores: ranked.append(1) or rank(scores)
        )
        assert run_script(twins, trial(SCENARIOS["edges_hard"][0])) == [0, 1]
        assert len(ranked) == 3  # fast twin once, oracle twice
