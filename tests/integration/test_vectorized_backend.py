"""Golden bit-identity: the production backend == ``backend="scalar"``.

The production engine (``pruned``; these tests predate it and keep the
IDs they had when the batched planner was a backend of its own) plans
injections a cell at a time, decides what the access trace can decide
and executes the rest, but the measured profile must be byte-for-byte
the profile the scalar reference path produces — serial or parallel,
region cells or custom structure-granularity cells. Serialized JSON
(sorted keys) is the comparison so any drift in counts, outcomes, or
bookkeeping fails loudly.
"""

import json

import pytest

from repro.core.campaign import CampaignConfig, CharacterizationCampaign
from repro.injection import SINGLE_BIT_HARD, SINGLE_BIT_SOFT

CONFIG = CampaignConfig(trials_per_cell=3, queries_per_trial=20, seed=29)
SPECS = (SINGLE_BIT_SOFT, SINGLE_BIT_HARD)


def _profile_json(profile):
    return json.dumps(profile.to_dict(), sort_keys=True)


def _run(workload, *, backend, workers=None):
    campaign = CharacterizationCampaign(
        workload, config=CONFIG, backend=backend
    )
    campaign.prepare()
    return campaign.run(specs=SPECS, workers=workers)


class TestVectorizedBitIdentity:
    def test_serial_vectorized_matches_serial_scalar(self, app_workload):
        scalar = _run(app_workload, backend="scalar")
        vectorized = _run(app_workload, backend="pruned")
        assert _profile_json(vectorized) == _profile_json(scalar)

    def test_two_worker_vectorized_matches_serial_scalar(self, websearch_small):
        """The golden cross-check: parallel+pruned vs serial+scalar."""
        scalar = _run(websearch_small, backend="scalar")
        vectorized = _run(websearch_small, backend="pruned", workers=2)
        assert _profile_json(vectorized) == _profile_json(scalar)

    def test_custom_cells_match(self, websearch_small):
        profiles = {}
        for backend in ("scalar", "pruned"):
            campaign = CharacterizationCampaign(
                websearch_small, config=CONFIG, backend=backend
            )
            campaign.prepare()
            structures = websearch_small.data_structure_ranges()
            profiles[backend] = campaign.run_custom_cells(
                structures, specs=(SINGLE_BIT_HARD,), trials_per_cell=3
            )
        assert _profile_json(profiles["pruned"]) == _profile_json(
            profiles["scalar"]
        )


@pytest.fixture(params=["websearch_small", "kvstore_small", "graphmining_small"])
def app_workload(request):
    return request.getfixturevalue(request.param)
