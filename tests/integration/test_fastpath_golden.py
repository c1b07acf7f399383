"""Golden bit-identity: memory fast path on == fast path off (oracle).

The trial-loop fast path (dirty-page restore, fused accessors, batched
workload drivers, pristine-replay fusion) must never change what a
characterization campaign measures. These tests pin the same workload
instance to each path in turn and require the serialized vulnerability
profiles — outcome counts, safe ratios, every piece of bookkeeping —
to match byte for byte, across serial and parallel execution and both
trial backends. Fault-free query responses are compared as well, since
profile equality could in principle mask compensating errors.
"""

import json

import pytest

from repro.core.campaign import CampaignConfig, CharacterizationCampaign
from repro.injection import SINGLE_BIT_HARD, SINGLE_BIT_SOFT

CONFIG = CampaignConfig(trials_per_cell=3, queries_per_trial=20, seed=29)
SPECS = (SINGLE_BIT_SOFT, SINGLE_BIT_HARD)


def _profile_json(profile):
    return json.dumps(profile.to_dict(), sort_keys=True)


def _run(workload, *, fast, backend="pruned", workers=None):
    previous = workload.space.fast_path_enabled
    workload.space.set_fast_path(fast)
    try:
        campaign = CharacterizationCampaign(
            workload, config=CONFIG, backend=backend
        )
        campaign.prepare()
        return campaign.run(specs=SPECS, workers=workers)
    finally:
        workload.space.set_fast_path(previous)


class TestFastPathBitIdentity:
    def test_serial_fast_matches_serial_oracle(self, app_workload):
        oracle = _run(app_workload, fast=False)
        fast = _run(app_workload, fast=True)
        assert _profile_json(fast) == _profile_json(oracle)

    def test_scalar_backend_fast_matches_oracle(self, websearch_small):
        oracle = _run(websearch_small, fast=False, backend="scalar")
        fast = _run(websearch_small, fast=True, backend="scalar")
        assert _profile_json(fast) == _profile_json(oracle)

    def test_two_worker_fast_matches_serial_oracle(self, websearch_small):
        oracle = _run(websearch_small, fast=False)
        fast = _run(websearch_small, fast=True, workers=2)
        assert _profile_json(fast) == _profile_json(oracle)

    def test_golden_responses_identical(self, app_workload):
        """Fault-free per-query responses and accounting match exactly."""
        space = app_workload.space
        previous = space.fast_path_enabled
        try:
            space.set_fast_path(False)
            app_workload.reset()
            time_before = space.time
            oracle_responses = app_workload.golden_responses()
            oracle_elapsed = space.time - time_before

            space.set_fast_path(True)
            app_workload.reset()
            time_before = space.time
            fast_responses = app_workload.golden_responses()
            fast_elapsed = space.time - time_before
        finally:
            space.set_fast_path(previous)

        assert fast_responses == oracle_responses
        assert fast_elapsed == oracle_elapsed


@pytest.fixture(params=["websearch_small", "kvstore_small", "graphmining_small"])
def app_workload(request):
    return request.getfixturevalue(request.param)
