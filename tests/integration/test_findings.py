"""Integration: the paper's qualitative findings (§V-B) hold end-to-end.

Each test reproduces one finding with a scaled-down campaign. Trial
budgets are kept small for CI speed, so assertions target robust
qualitative orderings rather than tight quantitative bands.
"""

import pytest

from repro.apps.graphmining import GraphMining
from repro.apps.kvstore import KVStoreWorkload
from repro.apps.websearch import WebSearch
from repro.core.campaign import CampaignConfig, CharacterizationCampaign
from repro.core.taxonomy import ErrorOutcome
from repro.injection import MULTI_BIT_HARD, SINGLE_BIT_HARD, SINGLE_BIT_SOFT
from repro.monitoring import monitor, safe_ratio_report

CONFIG = CampaignConfig(trials_per_cell=20, queries_per_trial=60, seed=43)


@pytest.fixture(scope="module")
def websearch_profile():
    campaign = CharacterizationCampaign(
        WebSearch(vocabulary_size=400, doc_count=300, query_count=150,
                  heap_size=65536),
        config=CONFIG,
    )
    campaign.prepare()
    profile = campaign.run(
        specs=(SINGLE_BIT_SOFT, SINGLE_BIT_HARD, MULTI_BIT_HARD)
    )
    return campaign, profile


class TestFinding2RegionVariation:
    def test_stack_more_crash_prone_than_data_regions(self, websearch_profile):
        _campaign, profile = websearch_profile
        stack = profile.region_crash_probability("stack", "single-bit hard")
        private = profile.region_crash_probability("private", "single-bit hard")
        heap = profile.region_crash_probability("heap", "single-bit hard")
        assert stack >= max(private, heap)

    def test_regions_differ_in_tolerance(self, websearch_profile):
        _campaign, profile = websearch_profile
        masked = {
            region: profile.cells[(region, "single-bit hard")].masked_trials
            for region in profile.regions()
        }
        assert len(set(masked.values())) > 1


class TestFinding4SafeRegions:
    def test_stack_masks_by_overwrite_data_regions_by_logic(
        self, websearch_profile
    ):
        _campaign, profile = websearch_profile
        stack = profile.cells[("stack", "single-bit soft")]
        private = profile.cells[("private", "single-bit soft")]
        stack_overwrite = stack.outcome_counts.get(
            ErrorOutcome.MASKED_OVERWRITE.value, 0
        )
        private_overwrite = private.outcome_counts.get(
            ErrorOutcome.MASKED_OVERWRITE.value, 0
        )
        # The stack is rewritten per query; the read-only index never is.
        assert stack_overwrite > private_overwrite
        assert private_overwrite == 0

    def test_safe_ratio_distribution_matches_mechanism(self, websearch_profile):
        campaign, _profile = websearch_profile
        workload = campaign.workload
        workload.reset()
        stack_region = workload.space.region_named("stack")
        stack_window = workload.sample_ranges(stack_region)[0]
        addresses = list(range(stack_window[0], stack_window[1], 16))
        private = workload.space.region_named("private")
        addresses += [private.base + 64 + i * 512 for i in range(16)]

        reports = safe_ratio_report(monitor(workload, addresses, queries=60))
        stack_ratio = reports["stack"].mean_safe_ratio
        private_ratio = reports["private"].mean_safe_ratio
        assert stack_ratio is not None and private_ratio is not None
        assert stack_ratio > private_ratio  # Figure 5(b) ordering


class TestFinding5Severity:
    def test_severity_increases_incorrectness(self, websearch_profile):
        _campaign, profile = websearch_profile
        single = profile.app_level("single-bit soft")
        multi = profile.app_level("2-bit hard")
        single_rate = single.incorrect_per_billion_queries
        multi_rate = multi.incorrect_per_billion_queries
        assert multi_rate >= single_rate  # Figure 6(b) trend

    def test_hard_errors_at_least_as_harmful_as_soft(self, websearch_profile):
        _campaign, profile = websearch_profile
        soft = profile.app_level("single-bit soft")
        hard = profile.app_level("single-bit hard")
        soft_visible = soft.crashes + soft.incorrect_trials
        hard_visible = hard.crashes + hard.incorrect_trials
        assert hard_visible >= soft_visible


class TestFinding1InterApp:
    @pytest.mark.slow
    def test_applications_differ(self):
        config = CampaignConfig(trials_per_cell=12, queries_per_trial=50, seed=13)
        profiles = {}
        for workload in (
            WebSearch(vocabulary_size=300, doc_count=200, query_count=100,
                      heap_size=65536),
            KVStoreWorkload(key_count=400, op_count=150, heap_size=262144),
            GraphMining(vertex_count=120, edges_per_vertex=5, iterations=3,
                        jobs=2),
        ):
            campaign = CharacterizationCampaign(workload, config=config)
            campaign.prepare()
            profiles[workload.name] = campaign.run(specs=(SINGLE_BIT_HARD,))
        visible = {
            name: profile.app_level("single-bit hard").crashes
            + profile.app_level("single-bit hard").incorrect_trials
            for name, profile in profiles.items()
        }
        # Finding 1: tolerance varies across applications.
        assert len(set(visible.values())) > 1
