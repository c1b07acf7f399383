"""``CampaignInstruments.update_batch`` does not depend on batching.

The fold pre-sums counters and writes each gauge once; the registry
end-state of one whole-stream batch (``Observer.replay``) must be
identical to one-event batches (``Observer.emit``) for any event mix
(trial spans, injection spans, progress points).
"""

import random

from repro.obs.events import (
    KIND_POINT,
    KIND_SPAN,
    POINT_PROGRESS,
    SPAN_INJECTION,
    SPAN_TRIAL,
    TraceEvent,
)
from repro.obs.instruments import CampaignInstruments
from repro.obs.metrics import MetricsRegistry

OUTCOMES = ["masked", "correct:degraded", "crash", "incorrect"]


def _trial_event(i, rng):
    outcome = rng.choice(OUTCOMES)
    return TraceEvent(
        kind=KIND_SPAN, name=SPAN_TRIAL, path=f"campaign/cell:heap/trial:{i}",
        parent="campaign/cell:heap", ts=float(i), duration_seconds=0.01,
        pid=4242,
        attrs={
            "outcome": outcome,
            "cell": rng.choice(["heap|soft", "stack|soft"]),
            "masked": outcome == "masked",
            "responded": rng.randrange(0, 20),
            "incorrect": rng.randrange(0, 3),
            "failed": rng.randrange(0, 2),
        },
    )


def _injection_event(i):
    return TraceEvent(
        kind=KIND_SPAN, name=SPAN_INJECTION,
        path=f"campaign/cell:heap/trial:{i}/injection",
        parent=f"campaign/cell:heap/trial:{i}", ts=float(i),
        duration_seconds=0.0005 * (i + 1), pid=4242, attrs={},
    )


def _progress_event(i, done):
    return TraceEvent(
        kind=KIND_POINT, name=POINT_PROGRESS, path=f"campaign/progress:{i}",
        parent="campaign", ts=float(i), duration_seconds=None, pid=4242,
        attrs={
            "worker_pid": 4242, "shard_seconds": 0.2, "shard_trials": 3,
            "elapsed_seconds": 0.5 * (i + 1), "trials_done": done,
            "trials_total": 60,
        },
    )


def _event_mix(seed):
    rng = random.Random(seed)
    events = []
    done = 0
    for i in range(40):
        events.append(_trial_event(i, rng))
        events.append(_injection_event(i))
        if i % 5 == 4:
            done += 5
            events.append(_progress_event(i, done))
    return events


def _snapshot(registry):
    return registry.to_dict()


class TestUpdateBatchEquivalence:
    def test_end_state_matches_scalar_fold(self):
        events = _event_mix(seed=31)

        scalar_registry = MetricsRegistry()
        scalar = CampaignInstruments(scalar_registry)
        for event in events:
            scalar.update_batch((event,))

        batch_registry = MetricsRegistry()
        batch = CampaignInstruments(batch_registry)
        batch.update_batch(events)

        assert _snapshot(batch_registry) == _snapshot(scalar_registry)

    def test_sequential_batches_accumulate(self):
        """Splitting one stream into two batches changes nothing."""
        events = _event_mix(seed=77)
        one_registry = MetricsRegistry()
        CampaignInstruments(one_registry).update_batch(events)
        two_registry = MetricsRegistry()
        split = CampaignInstruments(two_registry)
        split.update_batch(events[:33])
        split.update_batch(events[33:])
        assert _snapshot(two_registry) == _snapshot(one_registry)

    def test_empty_batch_is_noop(self):
        registry = MetricsRegistry()
        instruments = CampaignInstruments(registry)
        before = _snapshot(registry)
        instruments.update_batch([])
        assert _snapshot(registry) == before
