"""Hypothesis equivalence suite: pruned backend vs the scalar oracle.

``backend="pruned"`` claims its analytically resolved trials are
indistinguishable from executed ones. This module enforces the claim
mechanically: for randomized campaign knobs (seed, trial budget, error
specs, codec protection, worker count) the pruned profile must serialize
to exactly the same JSON as the scalar-oracle profile, and — the safety
regression — every trial the pre-classifier marks decidable must be one
the oracle scores as masked, never crash/incorrect.

The workload is small on purpose: each hypothesis example runs three
whole campaigns (scalar, pruned serial, pruned parallel).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.websearch import WebSearch
from repro.core.campaign import (
    CampaignConfig,
    CharacterizationCampaign,
    DEFAULT_SPECS,
)
from repro.injection.injector import (
    MULTI_BIT_HARD,
    SINGLE_BIT_HARD,
    SINGLE_BIT_SOFT,
)

SPEC_SETS = (
    (SINGLE_BIT_SOFT,),
    (SINGLE_BIT_HARD,),
    DEFAULT_SPECS,
    (SINGLE_BIT_SOFT, MULTI_BIT_HARD),
)

CODEC_SETS = (
    None,
    {"heap": "SEC-DED"},
    {"private": "SEC-DED", "heap": "SEC-DED", "stack": "SEC-DED"},
    {"stack": "Parity"},  # detects but does not correct: no pruning boost
)


def make_workload():
    return WebSearch(
        vocabulary_size=150, doc_count=100, query_count=30, heap_size=49152
    )


def run_campaign(backend, seed, trials, specs, codecs, workers=None):
    campaign = CharacterizationCampaign(
        make_workload(),
        config=CampaignConfig(
            trials_per_cell=trials, queries_per_trial=16, seed=seed
        ),
        backend=backend,
        region_codecs=codecs,
    )
    campaign.prepare()
    profile = campaign.run(
        specs=specs, workers=workers, workload_factory=make_workload
    )
    return profile, campaign


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    trials=st.integers(min_value=1, max_value=4),
    spec_index=st.integers(min_value=0, max_value=len(SPEC_SETS) - 1),
    codec_index=st.integers(min_value=0, max_value=len(CODEC_SETS) - 1),
)
def test_pruned_profile_byte_identical_to_oracle(
    seed, trials, spec_index, codec_index
):
    specs = SPEC_SETS[spec_index]
    codecs = CODEC_SETS[codec_index]
    oracle, _ = run_campaign("scalar", seed, trials, specs, codecs)
    pruned, campaign = run_campaign("pruned", seed, trials, specs, codecs)
    assert json.dumps(oracle.to_dict(), sort_keys=True) == json.dumps(
        pruned.to_dict(), sort_keys=True
    )
    stats = campaign.pruning_stats
    assert stats.pruned + stats.executed == len(oracle.cells) * trials


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    workers=st.integers(min_value=2, max_value=3),
    codec_index=st.integers(min_value=0, max_value=len(CODEC_SETS) - 1),
)
def test_pruned_parallel_byte_identical_to_serial(seed, workers, codec_index):
    codecs = CODEC_SETS[codec_index]
    serial, _ = run_campaign("pruned", seed, 3, DEFAULT_SPECS, codecs)
    parallel, campaign = run_campaign(
        "pruned", seed, 3, DEFAULT_SPECS, codecs, workers=workers
    )
    assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
        parallel.to_dict(), sort_keys=True
    )


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    spec_index=st.integers(min_value=0, max_value=len(SPEC_SETS) - 1),
    codec_index=st.integers(min_value=0, max_value=len(CODEC_SETS) - 1),
)
def test_classifier_never_prunes_a_harmful_trial(seed, spec_index, codec_index):
    """Safety regression: decidable ⇒ the oracle scores the trial masked.

    Every trial the pre-classifier resolves analytically is re-run for
    real through the scalar execution path; the executed outcome must be
    masked (never crash / incorrect) and must equal the analytic one.
    """
    specs = SPEC_SETS[spec_index]
    codecs = CODEC_SETS[codec_index]
    campaign = CharacterizationCampaign(
        make_workload(),
        config=CampaignConfig(
            trials_per_cell=3, queries_per_trial=16, seed=seed
        ),
        backend="pruned",
        region_codecs=codecs,
    )
    campaign.prepare()
    regions = [region.name for region in campaign.workload.space.regions]
    from repro.exec.cells import CampaignCell

    checked = 0
    for region in regions:
        for spec in specs:
            cell = CampaignCell(name=region, spec=spec)
            plan, classification = campaign.classify_cell_trials(
                cell, range(3)
            )
            for local, trial_index in enumerate(plan.trial_indices):
                analytic = classification.outcomes[local]
                if analytic is None:
                    continue
                executed = campaign.measure_trial(
                    cell, int(trial_index), plan.flips_for(local)
                )
                assert executed.outcome.is_masked, (
                    f"pruned a harmful trial: {region}/{spec.label} "
                    f"#{trial_index} actually scored {executed.outcome}"
                )
                assert executed.outcome is analytic
                assert executed.incorrect == 0
                assert executed.failed == 0
                checked += 1
    # The suite is vacuous if nothing was ever decidable.
    assert checked > 0 or all(
        spec.kind.value not in ("soft", "hard") for spec in specs
    )
