"""Unit tests for repro.dram fault models and page retirement."""

import random

import pytest

from repro.dram import (
    DramFaultModel,
    DramGeometry,
    FailureMode,
    PageRetirementPolicy,
)
from repro.memory.faults import FaultKind


@pytest.fixture
def geometry():
    return DramGeometry(channels=1, dimms_per_channel=1, rows_per_bank=256)


@pytest.fixture
def rng():
    return random.Random(7)


class TestFaultModel:
    def test_footprint_modes_respect_weights(self, rng):
        model = DramFaultModel(
            geometry=DramGeometry(channels=1),
            mode_weights={FailureMode.SINGLE_BIT: 1.0},
        )
        for _ in range(20):
            footprint = model.draw(rng)
            assert footprint.mode is FailureMode.SINGLE_BIT
            assert len(footprint.addresses) == 1

    def test_large_footprints_are_hard(self, rng):
        model = DramFaultModel(
            geometry=DramGeometry(channels=1),
            mode_weights={FailureMode.ROW: 1.0},
            hard_fraction=0.0,  # even with 0 hard fraction...
        )
        footprint = model.draw(rng)
        assert footprint.kind is FaultKind.HARD  # ...rows are persistent
        assert len(footprint.addresses) > 1

    def test_word_mode_stays_in_word(self, rng):
        model = DramFaultModel(
            geometry=DramGeometry(channels=1),
            mode_weights={FailureMode.SINGLE_WORD: 1.0},
        )
        footprint = model.draw(rng)
        words = {addr // 8 for addr in footprint.addresses}
        assert len(words) == 1
        assert 2 <= len(footprint.addresses) <= 4

    def test_addresses_in_range(self, rng):
        model = DramFaultModel(geometry=DramGeometry(channels=1))
        for _ in range(50):
            footprint = model.draw(rng)
            for addr in footprint.addresses:
                assert 0 <= addr < model.geometry.total_size

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            DramFaultModel(mode_weights={})
        with pytest.raises(ValueError):
            DramFaultModel(mode_weights={FailureMode.ROW: -1.0})

    def test_invalid_hard_fraction_rejected(self):
        with pytest.raises(ValueError):
            DramFaultModel(hard_fraction=1.5)


class TestPageRetirementPolicy:
    def test_threshold_retirement(self, geometry, rng):
        model = DramFaultModel(
            geometry=geometry,
            mode_weights={FailureMode.SINGLE_BIT: 1.0},
            hard_fraction=1.0,
        )
        addr = model.draw(rng).addresses[0]
        policy = PageRetirementPolicy(geometry=geometry, error_threshold=2)
        first = policy.observe_error(addr)
        assert not first.pages_retired
        second = policy.observe_error(addr)
        assert second.pages_retired == [addr // 4096]
        assert policy.retired_pages == {addr // 4096}

    def test_budget_exhaustion(self, geometry):
        policy = PageRetirementPolicy(
            geometry=geometry, error_threshold=1, max_retired_fraction=1e-9
        )
        assert policy.max_retired_pages == 1
        outcomes = [policy.observe_error(addr) for addr in (0, 4096, 8192)]
        assert [outcome.pages_retired for outcome in outcomes] == [[0], [], []]
        assert [outcome.budget_exhausted for outcome in outcomes] == [
            False,
            True,
            True,
        ]
        assert len(policy.retired_pages) == 1

    def test_retired_page_not_recounted(self, geometry):
        policy = PageRetirementPolicy(geometry=geometry, error_threshold=1)
        policy.observe_error(0)
        outcome = policy.observe_error(0)
        assert not outcome.pages_retired

    def test_capacity_fraction(self, geometry):
        policy = PageRetirementPolicy(geometry=geometry, error_threshold=1)
        policy.observe_error(0)
        assert policy.retired_capacity_fraction > 0

    def test_invalid_params_rejected(self, geometry):
        with pytest.raises(ValueError):
            PageRetirementPolicy(geometry=geometry, error_threshold=0)
        with pytest.raises(ValueError):
            PageRetirementPolicy(geometry=geometry, max_retired_fraction=0.0)
