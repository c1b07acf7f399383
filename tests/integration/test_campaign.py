"""Integration: the characterization campaign end-to-end (Figure 2)."""

import json

import pytest

from repro.apps.websearch import WebSearch
from repro.core.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
    campaign_fingerprint,
    load_or_run_profile,
)
from repro.injection.injector import ErrorSpec
from repro.memory.faults import FaultKind
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.exec.cells import CampaignCell
from repro.injection import SINGLE_BIT_HARD, SINGLE_BIT_SOFT

CONFIG = CampaignConfig(trials_per_cell=6, queries_per_trial=40, seed=7)


@pytest.fixture(scope="module")
def campaign(websearch_small_module):
    runner = CharacterizationCampaign(websearch_small_module, config=CONFIG)
    runner.prepare()
    return runner


@pytest.fixture(scope="module")
def websearch_small_module():
    workload = WebSearch(
        vocabulary_size=300, doc_count=200, query_count=80, heap_size=65536
    )
    return workload


class TestCampaign:
    def test_trials_classified_exhaustively(self, campaign):
        trial = campaign.measure_trial(CampaignCell("private", SINGLE_BIT_SOFT), 0)
        assert isinstance(trial.outcome, ErrorOutcome)
        assert trial.trial_index == 0
        assert trial.responded + trial.failed <= CONFIG.queries_per_trial

    def test_run_produces_full_profile(self, campaign):
        profile = campaign.run(
            regions=["private", "stack"],
            specs=(SINGLE_BIT_SOFT, SINGLE_BIT_HARD),
            trials_per_cell=4,
        )
        assert set(profile.regions()) == {"private", "stack"}
        assert set(profile.error_labels()) == {
            "single-bit soft",
            "single-bit hard",
        }
        for cell in profile.cells.values():
            assert cell.trials == 4
            counted = sum(cell.outcome_counts.values())
            assert counted == 4  # taxonomy partitions every trial

    def test_campaign_deterministic(self):
        def run_once():
            workload = WebSearch(
                vocabulary_size=300, doc_count=200, query_count=80, heap_size=65536
            )
            runner = CharacterizationCampaign(workload, config=CONFIG)
            runner.prepare()
            profile = runner.run(regions=["stack"], specs=(SINGLE_BIT_SOFT,),
                                 trials_per_cell=5)
            return profile.to_dict()

        assert run_once() == run_once()

    def test_live_region_sizes_positive(self, campaign):
        sizes = campaign.live_region_sizes()
        assert all(size > 0 for size in sizes.values())
        heap = campaign.workload.space.region_named("heap")
        assert sizes["heap"] < heap.size  # live data only, not slack

    def test_trial_resets_leave_no_faults(self, campaign):
        campaign.measure_trial(CampaignCell("heap", SINGLE_BIT_SOFT), 0)
        campaign.workload.reset()
        assert len(campaign.workload.space.fault_log) == 0

    def test_effect_delay_only_for_visible_outcomes(self, campaign):
        profile = campaign.run(
            regions=["stack"], specs=(SINGLE_BIT_HARD,), trials_per_cell=8
        )
        cell = profile.cell("stack", "single-bit hard")
        visible = cell.crashes + cell.incorrect_trials
        assert len(cell.effect_delay_minutes) >= 0
        assert len(cell.effect_delay_minutes) <= cell.trials
        assert len(cell.crash_delay_minutes) <= max(1, cell.crashes)
        assert visible >= len(cell.crash_delay_minutes) - cell.crashes


class TestProfileCache:
    def test_cache_roundtrip(self, tmp_path):
        cache = tmp_path / "profile.json"

        def factory():
            return WebSearch(
                vocabulary_size=300, doc_count=200, query_count=80,
                heap_size=65536,
            )

        config = CampaignConfig(trials_per_cell=3, queries_per_trial=30, seed=5)
        first = load_or_run_profile(
            factory, config, cache_path=cache, regions=["stack"]
        )
        assert cache.exists()
        second = load_or_run_profile(
            factory, config, cache_path=cache, regions=["stack"]
        )
        assert second.to_dict() == first.to_dict()

    def test_corrupt_cache_remeasured(self, tmp_path):
        def factory():
            return WebSearch(
                vocabulary_size=300, doc_count=200, query_count=80,
                heap_size=65536,
            )

        config = CampaignConfig(trials_per_cell=2, queries_per_trial=20, seed=5)
        fingerprint = campaign_fingerprint(config, regions=["stack"])
        cache = tmp_path / "profile.json"
        for payload in (
            "{not json",
            # Well-formed, fingerprint matches, profile unusable.
            json.dumps({"fingerprint": fingerprint, "profile": None}),
            json.dumps({"fingerprint": fingerprint, "profile": []}),
        ):
            cache.write_text(payload)
            profile = load_or_run_profile(
                factory, config, cache_path=cache, regions=["stack"]
            )
            assert isinstance(profile, VulnerabilityProfile)
            # cache rewritten valid
            assert json.loads(cache.read_text())["profile"] == profile.to_dict()


class TestCacheInvalidation:
    """Stale caches (measured under different knobs) must re-measure."""

    @staticmethod
    def factory():
        return WebSearch(
            vocabulary_size=300, doc_count=200, query_count=80, heap_size=65536
        )

    BASE = CampaignConfig(trials_per_cell=2, queries_per_trial=20, seed=5)

    def test_cache_embeds_matching_fingerprint(self, tmp_path):
        cache = tmp_path / "profile.json"
        load_or_run_profile(self.factory, self.BASE, cache_path=cache,
                            regions=["stack"])
        data = json.loads(cache.read_text())
        assert data["fingerprint"] == campaign_fingerprint(
            self.BASE, regions=["stack"]
        )
        assert "profile" in data

    def test_matching_fingerprint_reuses_cache(self, tmp_path):
        cache = tmp_path / "profile.json"
        first = load_or_run_profile(
            self.factory, self.BASE, cache_path=cache, regions=["stack"]
        )
        # Plant a sentinel so a re-measure (which would overwrite it)
        # is detectable.
        data = json.loads(cache.read_text())
        data["profile"]["app"] = "SentinelApp"
        cache.write_text(json.dumps(data))
        second = load_or_run_profile(
            self.factory, self.BASE, cache_path=cache, regions=["stack"]
        )
        assert second.app == "SentinelApp"
        assert first.app != "SentinelApp"

    @pytest.mark.parametrize(
        "changed",
        [
            {"trials_per_cell": 3},
            {"queries_per_trial": 25},
            {"seed": 6},
        ],
        ids=["trials", "queries", "seed"],
    )
    def test_config_change_invalidates_cache(self, tmp_path, changed):
        cache = tmp_path / "profile.json"
        load_or_run_profile(self.factory, self.BASE, cache_path=cache,
                            regions=["stack"])
        stale_fingerprint = json.loads(cache.read_text())["fingerprint"]
        altered = CampaignConfig(**{
            "trials_per_cell": self.BASE.trials_per_cell,
            "queries_per_trial": self.BASE.queries_per_trial,
            "seed": self.BASE.seed,
            **changed,
        })
        profile = load_or_run_profile(
            self.factory, altered, cache_path=cache, regions=["stack"]
        )
        fresh = json.loads(cache.read_text())
        assert fresh["fingerprint"] != stale_fingerprint  # re-measured
        cell = profile.cell("stack", "single-bit soft")
        assert cell.trials == altered.trials_per_cell

    def test_spec_and_region_changes_invalidate_cache(self, tmp_path):
        cache = tmp_path / "profile.json"
        load_or_run_profile(
            self.factory, self.BASE, cache_path=cache, regions=["stack"],
            specs=(ErrorSpec(FaultKind.SOFT, 1),),
        )
        first = json.loads(cache.read_text())["fingerprint"]
        load_or_run_profile(
            self.factory, self.BASE, cache_path=cache, regions=["stack"],
            specs=(ErrorSpec(FaultKind.HARD, 1),),
        )
        second = json.loads(cache.read_text())["fingerprint"]
        assert second != first
        load_or_run_profile(
            self.factory, self.BASE, cache_path=cache, regions=["heap"],
            specs=(ErrorSpec(FaultKind.HARD, 1),),
        )
        assert json.loads(cache.read_text())["fingerprint"] != second

    def test_legacy_fingerprintless_cache_remeasured(self, tmp_path):
        cache = tmp_path / "profile.json"
        profile = load_or_run_profile(
            self.factory, self.BASE, cache_path=cache, regions=["stack"]
        )
        # Rewrite in the pre-fingerprint format: the bare profile dict.
        cache.write_text(json.dumps(profile.to_dict()))
        again = load_or_run_profile(
            self.factory, self.BASE, cache_path=cache, regions=["stack"]
        )
        data = json.loads(cache.read_text())
        assert "fingerprint" in data  # upgraded to the new format
        assert again.to_dict() == profile.to_dict()
