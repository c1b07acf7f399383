"""Unit tests for the lightweight (injection-free) estimator."""

import random

import pytest

from repro.core.lightweight import (
    MaskingEstimate,
    estimate_masking,
    validate_against_profile,
)
from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from tests.unit.test_monitoring import scripted

HEAP = 8192


def heap_estimate(*accesses):
    """Masking estimate of the heap under one query of ``accesses``."""
    workload = scripted(list(accesses))
    estimates = estimate_masking(
        workload, queries=1, samples_per_region=16, rng=random.Random(1),
        regions=["heap"],
    )
    return estimates["heap"]


class TestFirstAccessClassification:
    def test_never(self):
        estimate = heap_estimate()
        assert estimate.never_accessed_fraction == 1.0

    def test_overwrite(self):
        estimate = heap_estimate(
            lambda space, heap: space.write(heap, bytes(HEAP)),
            lambda space, heap: space.read(heap, HEAP),
        )
        assert estimate.masked_overwrite_fraction == 1.0

    def test_consumed(self):
        estimate = heap_estimate(
            lambda space, heap: space.read(heap, HEAP),
            lambda space, heap: space.write(heap, bytes(HEAP)),
        )
        assert estimate.consumed_fraction == 1.0


class TestMaskingEstimate:
    def test_fractions_partition(self):
        estimate = MaskingEstimate("r", 10, 0.5, 0.3, 0.2)
        assert estimate.predicted_masked_fraction == pytest.approx(0.8)
        assert estimate.vulnerability_upper_bound == pytest.approx(0.2)


class TestEstimateMasking:
    def test_websearch_regions(self, websearch_small):
        estimates = estimate_masking(
            websearch_small, queries=80, samples_per_region=48,
            rng=random.Random(5),
        )
        assert set(estimates) == {"private", "heap", "stack"}
        for estimate in estimates.values():
            total = (
                estimate.never_accessed_fraction
                + estimate.masked_overwrite_fraction
                + estimate.consumed_fraction
            )
            assert total == pytest.approx(1.0)

    def test_read_only_region_never_masked_by_overwrite(self, websearch_small):
        estimates = estimate_masking(
            websearch_small, queries=60, samples_per_region=48,
            rng=random.Random(6),
        )
        assert estimates["private"].masked_overwrite_fraction == 0.0
        # The stack is rewritten every query: overwhelmingly overwrite.
        assert estimates["stack"].masked_overwrite_fraction > 0.5

    def test_deterministic_given_rng(self, websearch_small):
        first = estimate_masking(
            websearch_small, queries=50, samples_per_region=24,
            rng=random.Random(9),
        )
        second = estimate_masking(
            websearch_small, queries=50, samples_per_region=24,
            rng=random.Random(9),
        )
        assert first == second

    def test_validation(self, websearch_small):
        with pytest.raises(ValueError):
            estimate_masking(websearch_small, queries=0)
        with pytest.raises(ValueError):
            estimate_masking(websearch_small, samples_per_region=0)


class TestValidateAgainstProfile:
    def make_profile(self):
        profile = VulnerabilityProfile(app="X")
        profile.region_sizes = {"r": 100}
        cell = profile.cell("r", "single-bit soft")
        for _ in range(4):
            cell.record(ErrorOutcome.MASKED_NEVER_ACCESSED, 10, 0, 0, None)
        for _ in range(3):
            cell.record(ErrorOutcome.MASKED_OVERWRITE, 10, 0, 0, None)
        for _ in range(2):
            cell.record(ErrorOutcome.MASKED_LOGIC, 10, 0, 0, None)
        cell.record(ErrorOutcome.INCORRECT, 10, 1, 0, 1.0)
        return profile

    def test_rows_compare_fractions(self):
        estimates = {
            "r": MaskingEstimate("r", 50, 0.4, 0.3, 0.3),
        }
        rows = validate_against_profile(estimates, self.make_profile())
        assert len(rows) == 1
        row = rows[0]
        assert row.measured_never == pytest.approx(0.4)
        assert row.measured_overwrite == pytest.approx(0.3)
        assert row.measured_visible == pytest.approx(0.1)
        assert row.never_error == pytest.approx(0.0)
        assert row.bound_holds  # 0.1 <= 0.3

    def test_bound_violation_detected(self):
        estimates = {"r": MaskingEstimate("r", 50, 0.9, 0.09, 0.01)}
        rows = validate_against_profile(estimates, self.make_profile())
        assert not rows[0].bound_holds  # visible 0.1 > consumed 0.01 + margin

    def test_unknown_region_skipped(self):
        estimates = {"ghost": MaskingEstimate("ghost", 10, 1.0, 0.0, 0.0)}
        assert validate_against_profile(estimates, self.make_profile()) == []


class TestEndToEndAgreement:
    def test_prediction_matches_small_campaign(self, websearch_small):
        """The headline property: monitoring predicts injection outcomes."""
        from repro.core.campaign import CampaignConfig, CharacterizationCampaign
        from repro.injection import SINGLE_BIT_SOFT

        campaign = CharacterizationCampaign(
            websearch_small,
            config=CampaignConfig(trials_per_cell=40, queries_per_trial=60, seed=77),
        )
        campaign.prepare()  # reuses the already-built fixture
        profile = campaign.run(
            regions=["private"], specs=(SINGLE_BIT_SOFT,), trials_per_cell=40
        )
        estimates = estimate_masking(
            websearch_small, queries=60, samples_per_region=120,
            rng=random.Random(78),
        )
        rows = validate_against_profile(estimates, profile)
        row = next(r for r in rows if r.region == "private")
        # Never-accessed prediction within sampling noise of ground truth.
        assert row.never_error < 0.2
        assert row.bound_holds
