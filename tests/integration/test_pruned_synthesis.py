"""Run-length synthesis ≡ per-trial execution, serial and parallel.

The pruned backend folds each maximal run of decided trials in one step
(:meth:`CharacterizationCampaign.fold_decided_run`, called by the one
cell walker, :func:`repro.exec.parallel.fold_cells`, on any worker
count). Everything observable about a campaign must be what
trial-by-trial execution produces: profile bytes (``outcome_counts``
insertion order and delay lists included), the address space's clock and
counters, the pruning tallies and the emitted trial spans — for cells
that mix decided and executed trials and for cells where nothing
executes. Serial and pooled pruned runs also emit the same cell spans.
"""

from __future__ import annotations

import json
from contextlib import nullcontext

import numpy as np
import pytest

from repro.apps.websearch import WebSearch
from repro.core.campaign import CampaignConfig, CharacterizationCampaign
from repro.exec.cells import CampaignCell
from repro.injection.injector import (
    MULTI_BIT_HARD,
    SINGLE_BIT_HARD,
    SINGLE_BIT_SOFT,
)
from repro.memory.fastpath import oracle_mode
from repro.obs.events import SPAN_CELL, SPAN_TRIAL
from repro.obs.sinks import EventBuffer
from repro.obs.trace import Observer

TRIALS = 10
CONFIG = CampaignConfig(trials_per_cell=TRIALS, queries_per_trial=24, seed=3)

#: name -> (region codecs, specs). ``mixed`` interleaves decided and
#: executed trials inside its cells; under ``all_decided`` every region
#: corrects single-bit errors, so no trial executes.
SCENARIOS = {
    "mixed": (None, (SINGLE_BIT_SOFT, SINGLE_BIT_HARD, MULTI_BIT_HARD)),
    "all_decided": (
        {"private": "SEC-DED", "heap": "SEC-DED", "stack": "SEC-DED"},
        (SINGLE_BIT_SOFT, SINGLE_BIT_HARD),
    ),
}


def make_workload() -> WebSearch:
    return WebSearch(
        vocabulary_size=200, doc_count=120, query_count=40, heap_size=65536
    )


class Run:
    """One campaign run and everything the comparisons read from it."""

    def __init__(self, scenario, backend, workers=None, oracle=False):
        codecs, specs = SCENARIOS[scenario]
        buffer = EventBuffer()
        with oracle_mode() if oracle else nullcontext():
            self.campaign = CharacterizationCampaign(
                make_workload(),
                config=CONFIG,
                observer=Observer(sinks=[buffer]),
                backend=backend,
                region_codecs=codecs,
            )
            self.campaign.prepare()
            space = self.campaign.workload.space
            before = space.fast_path_stats()
            profile = self.campaign.run(
                specs=specs, workers=workers, workload_factory=make_workload
            )
        after = space.fast_path_stats()
        # No sort_keys: dict insertion order is part of the contract.
        self.profile_json = json.dumps(profile.to_dict())
        self.time = space.time
        self.access_stats = space.access_stats()
        self.accesses = sum(
            after[key] - before[key] for key in ("fast_accesses", "checked_accesses")
        )
        self.fast_accesses = after["fast_accesses"]
        self.events = buffer.events

    def trial_spans(self):
        """{span path: attribute items in emission order, minus ``pruned``}."""
        return {
            event.path: [
                item for item in event.attrs.items() if item[0] != "pruned"
            ]
            for event in self.events
            if event.name == SPAN_TRIAL
        }

    def below_cell(self):
        """Every cell span and every trial-level and deeper event,
        order-free, without ts, duration and pid."""
        return sorted(
            (event.path, event.kind, event.parent, json.dumps(event.attrs))
            for event in self.events
            if event.name == SPAN_CELL or "/trial:" in event.path
        )


@pytest.fixture(scope="module", params=sorted(SCENARIOS))
def runs(request):
    scenario = request.param
    return {
        "scenario": scenario,
        "scalar": Run(scenario, "scalar", oracle=True),
        # Every trial executed, on the fast path.
        "scalar_fast": Run(scenario, "scalar"),
        "pruned": Run(scenario, "pruned"),
        "pruned_w2": Run(scenario, "pruned", workers=2),
        # Decided runs settled, executed trials run unfused, no fast path.
        "pruned_oracle": Run(scenario, "pruned", oracle=True),
    }


def test_scenarios_cover_the_run_shapes():
    """``mixed`` has a decided run at the start, middle and end of a cell."""
    campaign = CharacterizationCampaign(
        make_workload(), config=CONFIG, backend="pruned"
    )
    campaign.prepare()
    shapes = set()
    for region in campaign.workload.space.regions:
        for spec in SCENARIOS["mixed"][1]:
            _, verdict = campaign.classify_cell_trials(
                CampaignCell(name=region.name, spec=spec), range(TRIALS)
            )
            cell_runs = verdict.runs()
            assert [stop for _, stop, _ in cell_runs[:-1]] == [
                start for start, _, _ in cell_runs[1:]
            ]
            assert (cell_runs[0][0], cell_runs[-1][1]) == (0, TRIALS)
            if len(cell_runs) < 2:
                continue
            shapes.add(("start", cell_runs[0][2]))
            shapes.add(("end", cell_runs[-1][2]))
            shapes.update(("middle", decided) for _, _, decided in cell_runs[1:-1])
    assert {("start", True), ("middle", True), ("end", True)} <= shapes
    assert {("start", False), ("middle", False), ("end", False)} <= shapes


def test_profile_bytes_identical(runs):
    reference = runs["scalar"].profile_json
    for name in ("scalar_fast", "pruned", "pruned_w2"):
        assert runs[name].profile_json == reference, name


def test_clock_and_counters_identical(runs):
    reference = runs["scalar"]
    for name in ("scalar_fast", "pruned"):
        assert runs[name].time == reference.time, name
        assert runs[name].access_stats == reference.access_stats, name
    if runs["scenario"] == "all_decided":
        # Nothing ran in a worker, and the merge settles decided runs on
        # the parent's space exactly as the serial loop does.
        assert runs["pruned_w2"].time == reference.time
        assert runs["pruned_w2"].access_stats == reference.access_stats


def test_every_access_is_credited_once(runs):
    """fast + checked accesses of a pruned run equal an executed run's."""
    assert runs["pruned"].accesses == runs["scalar_fast"].accesses


def test_pruned_run_in_oracle_mode_credits_no_fast_hits(runs):
    """Settling decided runs in oracle mode counts no fast-path hit, and
    leaves clock, counters and profile where the fast-mode run does."""
    oracle, fast = runs["pruned_oracle"], runs["pruned"]
    assert not oracle.campaign.workload.space.fast_path_enabled
    assert oracle.campaign.pruning_stats.pruned > 0
    assert oracle.fast_accesses == 0
    assert fast.fast_accesses > 0
    assert oracle.time == fast.time == runs["scalar"].time
    assert oracle.access_stats == fast.access_stats
    assert oracle.profile_json == fast.profile_json


def test_pruning_tallies_identical(runs):
    serial = runs["pruned"].campaign.pruning_stats.to_dict()
    assert runs["pruned_w2"].campaign.pruning_stats.to_dict() == serial
    assert serial["pruned"] + serial["executed"] == len(
        runs["pruned"].trial_spans()
    )
    if runs["scenario"] == "all_decided":
        assert serial["executed"] == 0
    else:
        assert serial["pruned"] > 0 and serial["executed"] > 0


def test_trial_spans_identical(runs):
    reference = runs["scalar"].trial_spans()
    assert len(reference) == 3 * len(SCENARIOS[runs["scenario"]][1]) * TRIALS
    for name in ("scalar_fast", "pruned", "pruned_w2"):
        assert runs[name].trial_spans() == reference, name
    # The serial walk measures each executed trial where it reaches it:
    # trials run, and emit, in canonical order, as in the scalar loop.
    assert list(runs["pruned"].trial_spans()) == list(reference)
    pruned_paths = {
        event.path
        for event in runs["pruned"].events
        if event.name == SPAN_TRIAL and event.attrs.get("pruned")
    }
    assert len(pruned_paths) == runs["pruned"].campaign.pruning_stats.pruned
    assert runs["pruned_w2"].below_cell() == runs["pruned"].below_cell()


def test_decided_cell_credits_the_fast_path_once():
    """A cell of never-accessed bytes: fast_accesses ≡ executing it.

    Faults in bytes the replay never touches leave every access on the
    fast path, so the executed (scalar) run's ``fast_accesses`` is
    exactly trials × the replay's access count — which is what the
    settle of a decided run must credit, once.
    """
    probe = CharacterizationCampaign(
        make_workload(), config=CONFIG, backend="pruned"
    )
    probe.prepare()
    heap = probe.workload.space.region_named("heap")
    cold = np.flatnonzero(
        probe.golden_trace().first_access[heap.base : heap.end] == 0
    )
    assert cold.size >= 64
    spans = [(heap.base + int(at), heap.base + int(at) + 1) for at in cold[:64]]
    deltas = {}
    for backend in ("scalar", "pruned"):
        campaign = CharacterizationCampaign(
            make_workload(), config=CONFIG, backend=backend
        )
        campaign.prepare()
        space = campaign.workload.space
        before = space.fast_path_stats()
        profile = campaign.run_custom_cells(
            {"cold": spans}, specs=(SINGLE_BIT_SOFT, SINGLE_BIT_HARD)
        )
        after = space.fast_path_stats()
        deltas[backend] = {key: after[key] - before[key] for key in after}
        for cell in profile.to_dict()["cells"].values():
            assert cell["outcome_counts"] == {"masked_never_accessed": TRIALS}
    assert campaign.pruning_stats.executed == 0
    assert deltas["scalar"]["checked_accesses"] == 0
    assert deltas["pruned"]["fast_accesses"] == deltas["scalar"]["fast_accesses"]
    assert deltas["pruned"]["fast_accesses"] > 0
