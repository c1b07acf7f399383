"""Determinism test harness for the parallel campaign engine.

The headline guarantees of repro.exec, pinned as tests:

* serial and parallel runs merge to *byte-identical* profiles for any
  worker count (the acceptance bar of the parallel engine);
* per-trial child seeds are independent of execution order and of each
  other;
* shard planning covers every (cell, trial) exactly once and merging is
  order-independent;
* worker failures surface as exceptions in the caller;
* the progress points the registry folds account for every trial.
"""

import json
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.apps.websearch import WebSearch
from repro.core.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
    TrialRecord,
)
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.exec import (
    CampaignCell,
    ParallelCampaignRunner,
    ShardResult,
    fold_cells,
    plan_shards_indexed,
)
from repro.exec.pruning import PlanClassification
from repro.injection import SINGLE_BIT_HARD, SINGLE_BIT_SOFT
from repro.obs import MetricsRegistry
from repro.obs.events import POINT_PROGRESS, SPAN_TRIAL
from repro.obs.sinks import EventBuffer
from repro.obs.trace import Observer
from repro.utils.rng import derive_seed

CONFIG = CampaignConfig(trials_per_cell=4, queries_per_trial=15, seed=77)


def make_tiny_websearch() -> WebSearch:
    """Module-level factory: picklable for spawn-based worker pools."""
    return WebSearch(
        vocabulary_size=200, doc_count=120, query_count=40, heap_size=65536
    )


def broken_factory() -> WebSearch:
    """A workload factory that dies during worker bootstrap."""
    raise OSError("simulated workload build failure")


def _fresh_campaign() -> CharacterizationCampaign:
    return CharacterizationCampaign(make_tiny_websearch(), config=CONFIG)


def _profile_bytes(profile: VulnerabilityProfile) -> str:
    return json.dumps(profile.to_dict())


@pytest.fixture(scope="module")
def serial_profile_json() -> str:
    return _profile_bytes(
        _fresh_campaign().run(specs=(SINGLE_BIT_SOFT, SINGLE_BIT_HARD))
    )


class TestSerialParallelEquality:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_profile_bit_identical_to_serial(
        self, workers, serial_profile_json
    ):
        profile = _fresh_campaign().run(
            specs=(SINGLE_BIT_SOFT, SINGLE_BIT_HARD), workers=workers
        )
        assert _profile_bytes(profile) == serial_profile_json

    def test_worker_count_invariance(self):
        two = _fresh_campaign().run(specs=(SINGLE_BIT_SOFT,), workers=2)
        four = _fresh_campaign().run(specs=(SINGLE_BIT_SOFT,), workers=4)
        assert _profile_bytes(two) == _profile_bytes(four)

    def test_parallel_trial_spans_match_serial(self):
        """The trial span is the per-trial record: the same paths and
        attributes for any worker count."""

        def trial_spans(workers):
            buffer = EventBuffer()
            campaign = CharacterizationCampaign(
                make_tiny_websearch(),
                config=CONFIG,
                observer=Observer(sinks=[buffer]),
            )
            campaign.run(
                regions=["stack"], specs=(SINGLE_BIT_SOFT,), workers=workers
            )
            return {
                event.path: event.attrs
                for event in buffer.events
                if event.name == SPAN_TRIAL
            }

        serial = trial_spans(None)
        assert len(serial) == CONFIG.trials_per_cell
        assert trial_spans(2) == serial

    def test_one_walker_for_every_worker_count(self):
        """A pruned campaign folds its cells through ``fold_cells`` with
        one worker (measuring in process) and on a pool (shard results);
        the scalar oracle keeps its own loop."""
        from repro.exec import parallel

        sources = []
        walk = parallel.fold_cells

        def spy(*args):
            sources.append(args[5])
            return walk(*args)

        with mock.patch.object(parallel, "fold_cells", spy):
            for workers in (None, 2):
                _fresh_campaign().run(
                    regions=[EXECUTING_CELL.name],
                    specs=(EXECUTING_CELL.spec,),
                    workers=workers,
                )
            CharacterizationCampaign(
                make_tiny_websearch(), config=CONFIG, backend="scalar"
            ).run(regions=[EXECUTING_CELL.name], specs=(EXECUTING_CELL.spec,))
        assert len(sources) == 2
        assert sources[0] is None
        assert sources[1] and all(
            isinstance(shard, ShardResult) for shard in sources[1]
        )

    def test_custom_cells_parallel_equality(self):
        def run_custom(workers):
            campaign = _fresh_campaign()
            campaign.prepare()
            heap = campaign.workload.space.region_named("heap")
            cells = {
                "window-a": [(heap.base + 16, heap.base + 128)],
                "window-b": [(heap.base + 256, heap.base + 512)],
            }
            return campaign.run_custom_cells(
                cells, specs=(SINGLE_BIT_SOFT,), workers=workers
            )

        assert _profile_bytes(run_custom(None)) == _profile_bytes(run_custom(3))

    def test_parent_workload_untouched_by_pool(self):
        campaign = _fresh_campaign()
        campaign.prepare()
        before = campaign.workload.space.snapshot().mem
        campaign.run(regions=["stack"], specs=(SINGLE_BIT_SOFT,), workers=2)
        assert campaign.workload.space.snapshot().mem == before
        assert len(campaign.workload.space.fault_log) == 0


class TestChildSeeds:
    def test_trial_streams_pairwise_distinct(self):
        campaign = _fresh_campaign()
        campaign.prepare()
        draws = {}
        for cell_name in ("stack", "heap"):
            for label in ("single-bit soft", "single-bit hard"):
                for index in range(5):
                    rng = campaign.trial_rng(cell_name, label, index)
                    draws[(cell_name, label, index)] = rng.random()
        assert len(set(draws.values())) == len(draws)

    def test_trial_stream_independent_of_execution_order(self):
        campaign = _fresh_campaign()
        campaign.prepare()
        first = campaign.trial_rng("stack", "single-bit soft", 3).random()
        # Consume unrelated streams in between; the derived stream must
        # not notice.
        campaign.trial_rng("heap", "single-bit soft", 0).random()
        campaign.trial_rng("stack", "single-bit soft", 2).random()
        assert campaign.trial_rng("stack", "single-bit soft", 3).random() == first

    def test_trial_rng_requires_prepare(self):
        campaign = _fresh_campaign()
        with pytest.raises(RuntimeError):
            campaign.trial_rng("stack", "single-bit soft", 0)

    def test_derive_seed_sensitive_to_every_component(self):
        base = derive_seed(77, "trial:app:stack:single-bit soft:0")
        assert base != derive_seed(78, "trial:app:stack:single-bit soft:0")
        assert base != derive_seed(77, "trial:app:heap:single-bit soft:0")
        assert base != derive_seed(77, "trial:app:stack:single-bit hard:0")
        assert base != derive_seed(77, "trial:app:stack:single-bit soft:1")


class TestShardPlanning:
    def _cells(self, count):
        return [
            CampaignCell(name=f"region-{i}", spec=SINGLE_BIT_SOFT)
            for i in range(count)
        ]

    def _plan(self, cells, budget, workers):
        """The full grid: what a campaign whose trace decides nothing shards."""
        return plan_shards_indexed(
            self._cells(cells), [range(budget)] * cells, workers
        )

    @pytest.mark.parametrize("cells,budget,workers", [
        (1, 1, 1),
        (2, 7, 3),
        (3, 60, 4),
        (6, 5, 16),
    ])
    def test_every_trial_covered_exactly_once(self, cells, budget, workers):
        shards = self._plan(cells, budget, workers)
        seen = set()
        for shard in shards:
            for index in shard.indices:
                key = (shard.cell_index, index)
                assert key not in seen
                seen.add(key)
        assert seen == {
            (c, t) for c in range(cells) for t in range(budget)
        }

    def test_shards_in_canonical_order(self):
        shards = self._plan(3, 10, 2)
        keys = [(s.cell_index, s.indices[0]) for s in shards]
        assert keys == sorted(keys)

    def test_enough_shards_to_feed_the_pool(self):
        shards = self._plan(2, 64, 4)
        assert len(shards) >= 4

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_shards_indexed(self._cells(1), [range(5), range(5)], 2)
        with pytest.raises(ValueError):
            self._plan(1, 5, 0)
        assert self._plan(0, 5, 2) == []
        assert self._plan(1, 0, 2) == []


class TestMerge:
    def _fake_results(self):
        cells = [
            CampaignCell(name="stack", spec=SINGLE_BIT_SOFT),
            CampaignCell(name="heap", spec=SINGLE_BIT_SOFT),
        ]
        outcomes = [
            ErrorOutcome.CRASH,
            ErrorOutcome.MASKED_OVERWRITE,
            ErrorOutcome.INCORRECT,
            ErrorOutcome.MASKED_LOGIC,
        ]
        shard_results = []
        for cell_index in range(2):
            for start in (0, 2):
                results = tuple(
                    TrialRecord(
                        trial_index=start + offset,
                        anchor_addr=1000 * cell_index + start + offset,
                        outcome=outcomes[start + offset],
                        responded=10,
                        incorrect=1 if start + offset == 2 else 0,
                        failed=0,
                        effect_delay_minutes=float(start + offset)
                        if start + offset != 1
                        else None,
                    )
                    for offset in range(2)
                )
                shard_results.append(
                    ShardResult(
                        cell_index=cell_index,
                        cell_name=cells[cell_index].name,
                        error_label="single-bit soft",
                        results=results,
                        worker_pid=1234,
                        seconds=0.0,
                    )
                )
        return cells, shard_results

    @staticmethod
    def _fold(cells, shard_results) -> VulnerabilityProfile:
        """Walk ``cells`` whose every trial executed on the pool."""
        profile = VulnerabilityProfile(app="fake")
        undecided = PlanClassification(
            decidable=np.zeros(4, dtype=bool), codes=np.zeros(4, dtype=np.uint8)
        )
        fold_cells(
            _fresh_campaign(),
            profile,
            cells,
            [(None, undecided)] * len(cells),
            4,
            shard_results,
        )
        return profile

    def test_merge_independent_of_completion_order(self):
        cells, shard_results = self._fake_results()
        baseline = None
        rng = random.Random(5)
        for _ in range(10):
            shuffled = list(shard_results)
            rng.shuffle(shuffled)
            profile = self._fold(cells, shuffled)
            encoded = json.dumps(profile.to_dict())
            if baseline is None:
                baseline = encoded
            assert encoded == baseline

    def test_merge_replays_in_trial_order(self):
        cells, shard_results = self._fake_results()
        profile = self._fold(cells, reversed(shard_results))
        for name in ("stack", "heap"):
            cell = profile.cell(name, "single-bit soft")
            assert cell.trials == 4
            assert list(cell.outcome_counts) == [
                "crash", "masked_overwrite", "incorrect", "masked_logic"
            ]
            assert cell.effect_delay_minutes == [0.0, 2.0, 3.0]
            assert cell.crash_delay_minutes == [0.0]


#: A cell whose first trial the golden trace cannot decide (a stuck-at
#: bit under a read): a pool is only built for trials that execute.
EXECUTING_CELL = CampaignCell(name="private", spec=SINGLE_BIT_HARD)


class TestWorkerFailures:
    def test_crash_in_worker_surfaces_as_exception(self):
        campaign = _fresh_campaign()
        campaign.prepare()
        with pytest.raises(KeyError):
            campaign.run(regions=["no-such-region"], workers=2)

    def test_spawn_without_factory_rejected(self):
        campaign = _fresh_campaign()
        campaign.prepare()
        runner = ParallelCampaignRunner(workers=2, start_method="spawn")
        with pytest.raises(RuntimeError, match="workload_factory"):
            runner.run(campaign, [EXECUTING_CELL], 2, {"private": 1})

    def test_broken_factory_surfaces_from_spawned_pool(self):
        campaign = _fresh_campaign()
        campaign.prepare()
        runner = ParallelCampaignRunner(
            workers=2, start_method="spawn", workload_factory=broken_factory
        )
        with pytest.raises(OSError, match="simulated workload build failure"):
            runner.run(campaign, [EXECUTING_CELL], 2, {"private": 1})

    def test_scalar_campaign_rejected(self):
        campaign = CharacterizationCampaign(
            make_tiny_websearch(), config=CONFIG, backend="scalar"
        )
        campaign.prepare()
        runner = ParallelCampaignRunner(workers=2)
        with pytest.raises(ValueError, match="single-threaded"):
            runner.run(campaign, [EXECUTING_CELL], 2, {"private": 1})

    def test_invalid_worker_counts_rejected(self):
        campaign = _fresh_campaign()
        with pytest.raises(ValueError):
            campaign.run(workers=0)
        with pytest.raises(ValueError):
            campaign.run(workers=-3)
        with pytest.raises(ValueError):
            ParallelCampaignRunner(workers=0)


class TestSeedStability:
    """The per-trial seeding scheme is part of the cache/profile contract.

    A committed golden profile pins it: any change to seed derivation,
    injection order, or trial classification shows up as a diff here.
    Regenerate tests/golden/tiny_websearch_profile.json deliberately
    (see the generator snippet in the golden file's git history) when
    the scheme is versioned up, and bump CACHE_FORMAT_VERSION with it.
    """

    GOLDEN = Path(__file__).parent.parent / "golden" / "tiny_websearch_profile.json"

    def _measure(self, workers=None):
        workload = WebSearch(
            vocabulary_size=150, doc_count=90, query_count=30, heap_size=65536
        )
        campaign = CharacterizationCampaign(
            workload,
            config=CampaignConfig(trials_per_cell=3, queries_per_trial=12, seed=1234),
        )
        return campaign.run(
            regions=["stack", "heap"],
            specs=(SINGLE_BIT_SOFT, SINGLE_BIT_HARD),
            workers=workers,
        )

    def test_serial_matches_committed_golden(self):
        golden = json.loads(self.GOLDEN.read_text())
        assert self._measure().to_dict() == golden

    def test_parallel_matches_committed_golden(self):
        golden = json.loads(self.GOLDEN.read_text())
        assert self._measure(workers=2).to_dict() == golden


def _metered_run(workers, regions, sinks=()):
    """Run on a metrics registry; return its plain-dict dump."""
    registry = MetricsRegistry()
    campaign = CharacterizationCampaign(
        make_tiny_websearch(),
        config=CONFIG,
        observer=Observer(sinks=list(sinks), metrics=registry),
    )
    campaign.run(regions=regions, specs=(SINGLE_BIT_SOFT,), workers=workers)
    return registry.to_dict()


def _values(dump, name):
    return dump[name]["values"]


class TestProgressMetrics:
    def test_serial_progress_accounts_for_every_trial(self):
        dump = _metered_run(1, ["stack", "heap"])
        budget = 2 * CONFIG.trials_per_cell
        assert _values(dump, "campaign_trials_done") == {"": budget}
        assert _values(dump, "campaign_trials_budget") == {"": budget}
        assert _values(dump, "campaign_elapsed_seconds")[""] > 0
        workers = _values(dump, "worker_trials_total")
        assert len(workers) == 1
        assert sum(workers.values()) == budget

    def test_parallel_progress_accounts_for_every_trial(self):
        dump = _metered_run(2, ["stack", "heap"])
        assert _values(dump, "campaign_trials_done") == {"": 8}
        assert sum(_values(dump, "worker_trials_total").values()) == 8
        assert sum(_values(dump, "worker_shards_total").values()) >= 2

    def test_snapshot_shape(self):
        """Every worker that reported has all four per-worker series."""
        dump = _metered_run(2, ["stack"])
        assert _values(dump, "campaign_trials_done") == {"": 4}
        pids = set(_values(dump, "worker_trials_total"))
        assert pids
        for name in (
            "worker_busy_seconds_total",
            "worker_idle_seconds",
            "worker_shards_total",
        ):
            assert set(_values(dump, name)) == pids, name

    def test_a_sink_sees_the_progress_points(self):
        buffer = EventBuffer()
        dump = _metered_run(2, ["stack", "heap"], sinks=[buffer])
        points = [e for e in buffer.events if e.name == POINT_PROGRESS]
        assert list(points[0].attrs) == [
            "trials_done", "trials_total", "elapsed_seconds", "worker_pid",
            "shard_trials", "shard_seconds", "cell_name", "error_label",
        ]
        assert points[-1].attrs["trials_done"] == 8
        assert sum(p.attrs["shard_trials"] for p in points) == 8
        assert len(points) == sum(_values(dump, "worker_shards_total").values())
