"""Fused executed trials ≡ the scalar client loop (ISSUE 18).

``backend="pruned"`` on a fast-path space executes, of a trial it cannot
decide, only the queries a fault can reach and serves the clean runs
between them from the campaign's access trace. This module pins that to
the plain loop (``backend="scalar"``, same planned flips, every query
executed) on twin campaigns of each application: for random (region,
kind ∈ soft / hard / multi-bit hard, address, bit) the two must agree on
the ``TrialRecord``, the ``ClientReport`` field for field, the clock,
``access_stats()``, ``fault_consumption`` of every injected byte and every
stored byte after the trial. Named cases cover a trial that dies at
query 0 and the healing step — a live query leaves scratch diverged, a
later fused query stores to it first with the value golden already had —
which is shown to fail when healing is switched off. The campaign-level
contracts ride along: ``workers=2`` (fork and spawn rebuild) and
``oracle_mode()`` against the serial fused profile.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.graphmining import GraphMining
from repro.apps.kvstore import KVStoreWorkload
from repro.apps.websearch import WebSearch
from repro.core.campaign import CampaignConfig, CharacterizationCampaign
from repro.exec import ParallelCampaignRunner
from repro.exec.cells import CampaignCell
from repro.injection.injector import (
    MULTI_BIT_HARD,
    SINGLE_BIT_HARD,
    SINGLE_BIT_SOFT,
    plan_flip_positions,
)
from repro.memory.fastpath import oracle_mode
from repro.memory.trace import DECISIONS, TraceReplay
from tests.property.test_prop_serve_dataplane import WORDS, MiniWorkload

SPECS = (SINGLE_BIT_SOFT, SINGLE_BIT_HARD, MULTI_BIT_HARD)


def make_websearch() -> WebSearch:
    return WebSearch(
        vocabulary_size=200, doc_count=120, query_count=40, heap_size=65536
    )


def make_kvstore() -> KVStoreWorkload:
    return KVStoreWorkload(key_count=200, op_count=60)


def make_graphmining() -> GraphMining:
    return GraphMining(vertex_count=60, edges_per_vertex=5, iterations=3, jobs=3)


#: app -> (factory, queries per trial).
APPS = {
    "websearch": (make_websearch, 24),
    "kvstore": (make_kvstore, 40),
    "graphmining": (make_graphmining, 3),
}


class Twin:
    """One prepared campaign whose client reports are kept."""

    def __init__(self, factory, queries, backend):
        self.campaign = CharacterizationCampaign(
            factory(),
            config=CampaignConfig(trials_per_cell=1, queries_per_trial=queries),
            backend=backend,
        )
        self.campaign.prepare()
        self.space = self.campaign.workload.space
        self.reports = []
        driver = self.campaign._driver
        for name in ("run", "run_fused"):
            setattr(driver, name, self._keeping(getattr(driver, name)))

    def _keeping(self, method):
        def kept(*args, **kwargs):
            report = method(*args, **kwargs)
            self.reports.append(report)
            return report

        return kept

    def trial(self, region, spec, positions):
        """Everything observable about one planned trial."""
        record = self.campaign.measure_trial(
            CampaignCell(name=region, spec=spec), 0, positions
        )
        space = self.space
        return {
            "record": record,
            "report": self.reports[-1],
            "time": space.time,
            "access_stats": space.access_stats(),
            "consumption": [
                space.fault_consumption(addr) for addr, _ in positions
            ],
            "stored": [space.peek(r.base, r.size) for r in space.regions],
        }


class Twins:
    """A fused and a plain-loop campaign over identical workloads."""

    def __init__(self, factory, queries):
        self.queries = queries
        self.fused = Twin(factory, queries, "pruned")
        self.plain = Twin(factory, queries, "scalar")
        self.trace = self.fused.campaign.golden_trace()
        self.trials = 0
        self.totals = dict.fromkeys(DECISIONS, 0)
        #: The fused twin's tally of the last trial alone.
        self.last = dict(self.totals)

    def tally(self):
        return dict(self.totals)

    def check(self, region, spec, positions):
        fused = self.fused.trial(region, spec, positions)
        plain = self.plain.trial(region, spec, positions)
        self.last = self.fused.campaign.take_decisions()
        for decision, count in self.last.items():
            self.totals[decision] += count
        assert not any(self.plain.campaign.take_decisions().values())
        for key in plain:
            assert fused[key] == plain[key], key
        self.trials += 1
        tally = self.tally()
        assert tally["fused"] + tally["live"] == self.trials * self.queries
        # (More only when a trial ran the plain loop: FUSION_MIN_SHARE.)
        assert tally["live"] >= sum(
            tally[key] for key in ("blocked", "diverged", "progress", "fatal_tail")
        )
        return fused["report"]


@pytest.fixture(scope="module", params=sorted(APPS))
def twins(request):
    return Twins(*APPS[request.param])


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    region_pick=st.integers(min_value=0, max_value=5),
    spec_index=st.integers(min_value=0, max_value=len(SPECS) - 1),
    pick=st.integers(min_value=0, max_value=2**31 - 1),
    hot=st.booleans(),
    draws=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fused_trial_equals_the_scalar_loop(
    twins, region_pick, spec_index, pick, hot, draws
):
    space = twins.plain.space
    region = space.regions[region_pick % len(space.regions)]
    spec = SPECS[spec_index]
    live = np.concatenate(
        [
            np.arange(base, end)
            for base, end in twins.plain.campaign.workload.sample_ranges(region)
        ]
    )
    # Uniform draws land in untouched bytes (every query fuses): half
    # the time aim at a byte the golden replay accesses.
    touched = live[twins.trace.first_access[live] != 0]
    pool = touched if hot and touched.size else live
    addr = int(pool[pick % pool.size])
    positions = plan_flip_positions(space, random.Random(draws), spec, addr)
    twins.check(region.name, spec, positions)


def test_the_property_reaches_fused_and_live_queries(twins):
    """Runs after the sweep above on the same twins: not vacuous."""
    tally = twins.tally()
    assert twins.trials >= 25
    assert tally["live"] > 0 and tally["blocked"] > 0
    if twins.queries > 3:  # every graph job reads every CSR byte
        assert tally["fused"] > 0


def test_trial_fatal_at_query_zero():
    """The first query dies: nothing fused, nothing after it issued."""
    twins = Twins(*APPS["websearch"])
    lo, hi, offsets = twins.trace.exposed_reads
    stack = twins.plain.space.region_named("stack")
    first_query = [
        addr
        for k in range(offsets[0], offsets[1])
        for addr in range(int(lo[k]), int(hi[k]))
    ]
    footprint = twins.trace.footprint
    first_query += [
        addr
        for k in range(footprint[2][0], footprint[2][1])
        for addr in range(int(footprint[0][k]), int(footprint[1][k]))
        if stack.base <= addr < stack.end
    ]
    for addr in first_query:
        region = twins.plain.space.region_at(addr).name
        report = twins.check(region, SINGLE_BIT_HARD, [(addr, 7)])
        if report.fatal and report.attempted == 1:
            break
    else:
        pytest.fail("no stuck-at in query 0's footprint killed query 0")
    assert report.failed == 1 and report.correct == 0
    assert twins.last["fatal_tail"] == twins.queries - 1
    assert twins.last["fused"] == 0


def test_all_blocked_trial_runs_the_plain_loop(monkeypatch):
    """Every graph job reads every CSR byte: nothing can fuse, so the
    trial never asks the engine for runs (no image roll, no compare)."""
    twins = Twins(*APPS["graphmining"])
    heap = twins.plain.space.region_named("heap")
    read_by_all = [
        addr
        for addr in range(heap.base, heap.end)
        if twins.trace.touching(np.asarray([addr])).all()
        and twins.trace.first_access[addr] == 1
    ]
    assert read_by_all

    def refuse(self, cursor, limit):
        raise AssertionError("an all-blocked trial consulted the engine")

    monkeypatch.setattr(TraceReplay, "next_runs", refuse)
    report = twins.check("heap", SINGLE_BIT_HARD, [(read_by_all[0], 0)])
    tally = twins.tally()
    assert (tally["fused"], tally["live"]) == (0, twins.queries)
    assert tally["blocked"] == report.attempted


class HealWorkload(MiniWorkload):
    """Query ``i`` stores a flag derived from word ``i`` to one scratch
    byte, then answers from the flag it loads back.

    Every word's top bit is clear, so golden stores 0xAA each time: after
    query 0 the store changes nothing and the write image omits it. A
    flip of word ``i``'s top bit makes query ``i`` store 0xAB instead.
    """

    name = "Heal"
    SCRATCH = 8 * WORDS + 64

    def build(self) -> None:
        super().build()
        heap = self._space.region_named("heap").base
        for index in range(WORDS):
            word = self._space.read_u32(heap + 4 * index)
            self._space.write_u32(heap + 4 * index, word & 0x7FFFFFFF)

    def execute(self, query_index: int):
        heap = self._space.region_named("heap").base
        word = self._space.read_u32(heap + 4 * query_index)
        self._space.write_u8(heap + self.SCRATCH, 0xAA | (word >> 31))
        return (self._space.read_u8(heap + self.SCRATCH), word & 0xFF)


class TestHealing:
    def flip_word_three(self):
        twins = Twins(HealWorkload, 12)
        heap = twins.plain.space.region_named("heap").base
        scratch = heap + HealWorkload.SCRATCH
        assert scratch not in twins.trace.write_image(1, 12)[0]
        return twins, scratch, [(heap + 4 * 3 + 3, 7)]

    def test_scratch_a_live_query_diverged_is_healed_by_the_fused_run(self):
        twins, scratch, positions = self.flip_word_three()
        report = twins.check("heap", SINGLE_BIT_SOFT, positions)
        assert report.incorrect_queries == [3]
        # Query 3 ran live and left 0xAB; queries 4.. store first, fuse,
        # and end on golden scratch exactly as the loop does.
        assert twins.tally() == {
            **dict.fromkeys(DECISIONS, 0), "fused": 11, "live": 1, "blocked": 1,
        }
        assert twins.fused.space.peek(scratch) == b"\xaa"

    def test_fails_when_only_the_changed_bytes_image_is_poked(self, monkeypatch):
        monkeypatch.setattr(TraceReplay, "_heal", lambda self, start, end: None)
        twins, scratch, positions = self.flip_word_three()
        with pytest.raises(AssertionError, match="stored"):
            twins.check("heap", SINGLE_BIT_SOFT, positions)
        assert twins.fused.space.peek(scratch) == b"\xab"


# ----------------------------------------------------------------------
# Campaign-level contracts with fusion on
# ----------------------------------------------------------------------
CONFIG = CampaignConfig(trials_per_cell=5, queries_per_trial=24, seed=11)


def run_pruned(workers=None, start_method=None):
    campaign = CharacterizationCampaign(
        make_websearch(), config=CONFIG, backend="pruned"
    )
    campaign.prepare()
    if start_method is None:
        profile = campaign.run(specs=SPECS, workers=workers)
    else:
        cells = [
            CampaignCell(name=region.name, spec=spec)
            for region in campaign.workload.space.regions
            for spec in SPECS
        ]
        profile = ParallelCampaignRunner(
            workers=workers,
            workload_factory=make_websearch,
            start_method=start_method,
        ).run(campaign, cells, CONFIG.trials_per_cell, campaign.live_region_sizes())
    return json.dumps(profile.to_dict()), campaign


@pytest.fixture(scope="module")
def serial():
    return run_pruned()


def test_serial_run_fuses(serial):
    _, campaign = serial
    stats = campaign.pruning_stats.to_dict()
    assert stats["executed"] > 0 and stats["fused"] > 0
    assert stats["fused"] + stats["live"] == stats["executed"] * 24
    assert sum(
        sum(cell.values()) for cell in campaign.decisions.values()
    ) == sum(stats[decision] for decision in DECISIONS)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_two_workers_match_serial_with_fusion_on(serial, start_method):
    """Forked workers inherit the trace; spawned ones rebuild the
    workload from the factory and record their own."""
    profile, campaign = serial
    parallel, parallel_campaign = run_pruned(workers=2, start_method=start_method)
    assert parallel == profile
    assert (
        parallel_campaign.pruning_stats.to_dict()
        == campaign.pruning_stats.to_dict()
    )
    assert parallel_campaign.decisions == campaign.decisions


def test_pruned_under_oracle_mode_classifies_and_executes_unfused(serial):
    profile, campaign = serial
    with oracle_mode():
        oracle_profile, oracle_campaign = run_pruned()
    assert oracle_profile == profile
    assert not oracle_campaign.workload.space.fast_path_enabled
    stats, fast = oracle_campaign.pruning_stats, campaign.pruning_stats
    # Same trace-based classification, no fused query.
    assert (stats.pruned, stats.executed) == (fast.pruned, fast.executed)
    assert stats.pruned > 0
    assert stats.decisions["fused"] == 0
    assert stats.decisions["live"] == stats.executed * 24
    assert stats.decisions["fatal_tail"] == fast.decisions["fatal_tail"]
