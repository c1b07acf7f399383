"""Integration: observability must never perturb campaign results.

The PR's acceptance criteria, asserted end-to-end on a small websearch
campaign:

* a 2-worker parallel run with tracing enabled produces a profile
  byte-identical to the untraced serial run;
* the JSONL trace contains exactly one trial span per budgeted trial;
* the trace's outcome counters reconcile exactly with the profile's
  taxonomy totals (and so does the metrics registry);
* serial and parallel traces cover the same deterministic span paths.
"""

import json

import pytest

from repro.core.campaign import CampaignConfig, CharacterizationCampaign
from repro.injection import SINGLE_BIT_HARD, SINGLE_BIT_SOFT
from repro.obs import (
    SPAN_CAMPAIGN,
    SPAN_CELL,
    SPAN_CONSUME,
    SPAN_INJECTION,
    SPAN_TRIAL,
    SPAN_VERIFY,
    EventBuffer,
    JsonlSink,
    MetricsRegistry,
    Observer,
    load_events,
)

TRIALS_PER_CELL = 3
CONFIG = CampaignConfig(
    trials_per_cell=TRIALS_PER_CELL, queries_per_trial=20, seed=29
)
SPECS = (SINGLE_BIT_SOFT, SINGLE_BIT_HARD)


def _profile_bytes(profile):
    return json.dumps(profile.to_dict(), sort_keys=True).encode()


def _run(workload, observer=None, workers=None, **kwargs):
    if observer is not None:
        kwargs["observer"] = observer
    campaign = CharacterizationCampaign(workload, config=CONFIG, **kwargs)
    campaign.prepare()
    return campaign.run(specs=SPECS, workers=workers)


def _outcome_totals(profile):
    totals = {}
    for cell in profile.cells.values():
        for outcome, count in cell.outcome_counts.items():
            totals[outcome] = totals.get(outcome, 0) + count
    return totals


class TestTracedCampaignDeterminism:
    def test_traced_parallel_profile_is_byte_identical_to_untraced_serial(
        self, websearch_small, tmp_path
    ):
        baseline = _run(websearch_small)
        trace_path = tmp_path / "trace.jsonl"
        observer = Observer(sinks=[JsonlSink(trace_path)])
        traced = _run(websearch_small, observer=observer, workers=2)
        observer.close()
        assert _profile_bytes(traced) == _profile_bytes(baseline)

        events = load_events(trace_path)
        trial_spans = [e for e in events if e.name == SPAN_TRIAL]
        budget = len(websearch_small.space.regions) * len(SPECS) * TRIALS_PER_CELL
        assert len(trial_spans) == budget

        trace_totals = {}
        for span in trial_spans:
            outcome = span.attrs["outcome"]
            trace_totals[outcome] = trace_totals.get(outcome, 0) + 1
        assert trace_totals == _outcome_totals(traced)

    def test_traced_serial_profile_is_byte_identical_to_untraced(
        self, websearch_small
    ):
        baseline = _run(websearch_small)
        buffer = EventBuffer()
        traced = _run(websearch_small, observer=Observer(sinks=[buffer]))
        assert _profile_bytes(traced) == _profile_bytes(baseline)
        assert len(buffer.events) > 0

    def test_serial_and_parallel_traces_cover_identical_span_paths(
        self, websearch_small
    ):
        serial_buffer = EventBuffer()
        _run(websearch_small, observer=Observer(sinks=[serial_buffer]))
        parallel_buffer = EventBuffer()
        _run(
            websearch_small,
            observer=Observer(sinks=[parallel_buffer]),
            workers=2,
        )
        serial_paths = {e.path for e in serial_buffer.events}
        parallel_paths = {e.path for e in parallel_buffer.events}
        assert serial_paths == parallel_paths

    def test_span_hierarchy_shape(self, websearch_small):
        # The oracle executes every trial: each has its inject /
        # consume / verify spans, which a decided trial does not.
        buffer = EventBuffer()
        _run(websearch_small, observer=Observer(sinks=[buffer]), backend="scalar")
        by_name = {}
        for event in buffer.events:
            by_name.setdefault(event.name, []).append(event)
        cells = len(websearch_small.space.regions) * len(SPECS)
        budget = cells * TRIALS_PER_CELL
        assert len(by_name[SPAN_CAMPAIGN]) == 1
        assert len(by_name[SPAN_CELL]) == cells
        assert len(by_name[SPAN_TRIAL]) == budget
        assert len(by_name[SPAN_INJECTION]) == budget
        assert len(by_name[SPAN_CONSUME]) == budget
        assert len(by_name[SPAN_VERIFY]) == budget
        for trial in by_name[SPAN_TRIAL]:
            assert trial.parent in {c.path for c in by_name[SPAN_CELL]}
            assert "outcome" in trial.attrs
            assert isinstance(trial.attrs["masked"], bool)

    def test_metrics_registry_reconciles_with_profile(self, websearch_small):
        registry = MetricsRegistry()
        observer = Observer(metrics=registry)
        profile = _run(websearch_small, observer=observer, workers=2)
        values = registry.to_dict()["campaign_trials_total"]["values"]
        registry_totals = {
            key.split("=", 1)[1]: int(count) for key, count in values.items()
        }
        assert registry_totals == _outcome_totals(profile)


class TestObserverDisabled:
    def test_disabled_observer_default_matches_explicit_null(
        self, websearch_small
    ):
        implicit = _run(websearch_small)
        explicit = _run(websearch_small, observer=Observer())
        assert _profile_bytes(implicit) == _profile_bytes(explicit)


@pytest.mark.parametrize("workers", [None, 2])
def test_trace_does_not_consume_rng(websearch_small, workers):
    # Two traced runs of the same config are identical to each other —
    # tracing reads the RNG stream nowhere.
    first = _run(websearch_small, observer=Observer(sinks=[EventBuffer()]),
                 workers=workers)
    second = _run(websearch_small, observer=Observer(sinks=[EventBuffer()]),
                  workers=workers)
    assert _profile_bytes(first) == _profile_bytes(second)
