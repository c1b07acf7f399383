"""Unit tests for campaign plumbing (config, trials, custom cells)."""

import pickle

import pytest

from repro.core.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
    TrialRecord,
)
from repro.core.taxonomy import ErrorOutcome
from repro.exec.cells import CampaignCell
from repro.injection import SINGLE_BIT_HARD, SINGLE_BIT_SOFT


class TestCampaignConfig:
    def test_defaults_valid(self):
        config = CampaignConfig()
        assert config.trials_per_cell > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(trials_per_cell=0)
        with pytest.raises(ValueError):
            CampaignConfig(queries_per_trial=0)


class TestCampaignLifecycle:
    def test_measure_trial_requires_prepare(self, websearch_small):
        campaign = CharacterizationCampaign(websearch_small, config=CampaignConfig())
        with pytest.raises(RuntimeError):
            campaign.measure_trial(CampaignCell("private", SINGLE_BIT_SOFT), 0)

    def test_prepare_reuses_built_workload(self, websearch_small):
        space_before = websearch_small.space
        campaign = CharacterizationCampaign(websearch_small, config=CampaignConfig())
        campaign.prepare()
        assert websearch_small.space is space_before  # not rebuilt

    def test_measure_trial_returns_a_picklable_record(self, websearch_small):
        """The one per-trial record: returned, never kept on the campaign."""
        campaign = CharacterizationCampaign(
            websearch_small,
            config=CampaignConfig(trials_per_cell=2, queries_per_trial=20, seed=3),
        )
        campaign.prepare()
        cell = CampaignCell("stack", SINGLE_BIT_HARD)
        trial = campaign.measure_trial(cell, 1)
        assert isinstance(trial, TrialRecord)
        assert trial.trial_index == 1
        assert isinstance(trial.outcome, ErrorOutcome)
        assert pickle.loads(pickle.dumps(trial)) == trial
        assert campaign.measure_trial(cell, 1) == trial  # derived seed
        for removed in ("trials", "run_trial", "_rng"):
            assert not hasattr(campaign, removed), removed

    def test_unknown_region_rejected(self, websearch_small):
        campaign = CharacterizationCampaign(websearch_small, config=CampaignConfig())
        campaign.prepare()
        with pytest.raises(KeyError):
            campaign.measure_trial(CampaignCell("nope", SINGLE_BIT_SOFT), 0)


class TestCustomCells:
    def test_custom_cells_profile_shape(self, websearch_small):
        campaign = CharacterizationCampaign(
            websearch_small,
            config=CampaignConfig(trials_per_cell=3, queries_per_trial=20, seed=6),
        )
        campaign.prepare()
        heap = websearch_small.space.region_named("heap")
        cells = {"first-16": [(heap.base + 8, heap.base + 24)]}
        profile = campaign.run_custom_cells(cells, specs=(SINGLE_BIT_SOFT,))
        assert profile.region_sizes == {"first-16": 16}
        cell = profile.cells[("first-16", "single-bit soft")]
        assert cell.trials == 3

    def test_custom_cells_sampling_confined(self, websearch_small):
        campaign = CharacterizationCampaign(
            websearch_small,
            config=CampaignConfig(trials_per_cell=5, queries_per_trial=10, seed=7),
        )
        campaign.prepare()
        heap = websearch_small.space.region_named("heap")
        span = (heap.base + 64, heap.base + 96)
        campaign.run_custom_cells({"window": [span]}, specs=(SINGLE_BIT_SOFT,))
        # Spot check: inject again with the same seed-derived sampler and
        # assert confinement (the classifier consumed these already; use
        # a fresh run to observe anchors directly).
        from repro.injection import ErrorInjector
        import random

        websearch_small.reset()
        injector = ErrorInjector(websearch_small.space, random.Random(1))
        for _ in range(20):
            record = injector.inject(SINGLE_BIT_SOFT, ranges=[span])
            assert span[0] <= record.anchor_addr < span[1]
            websearch_small.space.clear_faults()

    def test_custom_cells_on_fresh_workload(self):
        from repro.apps.websearch import WebSearch

        workload = WebSearch(
            vocabulary_size=200, doc_count=120, query_count=40,
            heap_size=65536,
        )
        campaign = CharacterizationCampaign(
            workload,
            config=CampaignConfig(trials_per_cell=2, queries_per_trial=10, seed=8),
        )
        campaign.prepare()
        stack = workload.space.region_named("stack")
        spans = workload.sample_ranges(stack)
        profile = campaign.run_custom_cells(
            {"stack-top": spans}, specs=(SINGLE_BIT_SOFT,)
        )
        assert profile.cells[("stack-top", "single-bit soft")].trials == 2
