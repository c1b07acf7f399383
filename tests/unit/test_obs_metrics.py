"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs import (
    INJECTION_LATENCY_BUCKETS,
    CampaignInstruments,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.events import (
    KIND_POINT,
    KIND_SPAN,
    POINT_PROGRESS,
    SPAN_INJECTION,
    SPAN_TRIAL,
    TraceEvent,
)
from repro.utils.stats import safe_div


def _span(name, duration=0.001, attrs=None, pid=100):
    return TraceEvent(
        kind=KIND_SPAN, name=name, path=f"campaign/{name}", parent="campaign",
        ts=0.0, duration_seconds=duration, pid=pid, attrs=attrs or {},
    )


class TestInstruments:
    def test_counter_rejects_negative(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_goes_both_ways(self):
        gauge = Gauge()
        gauge.set(5.0)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_cumulative_buckets(self):
        histogram = Histogram(buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [1, 2, 3]  # cumulative
        assert histogram.count == 4
        assert histogram.sum == 555.5
        assert histogram.mean == pytest.approx(138.875)

    def test_histogram_requires_sorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(10.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_injection_latency_buckets_are_fixed_powers_of_ten(self):
        assert INJECTION_LATENCY_BUCKETS == (
            1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
        )


class TestRegistry:
    def test_labels_partition_children(self):
        registry = MetricsRegistry()
        trials = registry.counter("trials_total", labels=("outcome",))
        trials.labels(outcome="crash").inc()
        trials.labels(outcome="crash").inc()
        trials.labels(outcome="incorrect").inc()
        values = registry.to_dict()["trials_total"]["values"]
        assert values == {"outcome=crash": 2, "outcome=incorrect": 1}

    def test_wrong_labels_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("c", labels=("outcome",))
        with pytest.raises(ValueError):
            family.labels(region="heap")

    def test_registration_idempotent_but_kind_conflict_raises(self):
        registry = MetricsRegistry()
        first = registry.counter("n")
        assert registry.counter("n") is first
        with pytest.raises(ValueError):
            registry.gauge("n")

    def test_to_dict_deterministic_across_insertion_order(self):
        def build(order):
            registry = MetricsRegistry()
            family = registry.counter("t", labels=("outcome",))
            for outcome in order:
                family.labels(outcome=outcome).inc()
            registry.gauge("g").labels().set(1.0)
            return registry.to_dict()

        assert build(["b", "a", "c"]) == build(["c", "a", "b"])

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter(
            "trials_total", "Completed trials", labels=("outcome",)
        ).labels(outcome="crash").inc(3)
        registry.histogram(
            "latency_seconds", buckets=(0.1, 1.0)
        ).labels().observe(0.05)
        text = registry.render_prometheus()
        assert "# HELP repro_trials_total Completed trials" in text
        assert "# TYPE repro_trials_total counter" in text
        assert 'repro_trials_total{outcome="crash"} 3' in text
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_latency_seconds_sum 0.05" in text
        assert "repro_latency_seconds_count 1" in text
        assert text.endswith("\n")


class TestCampaignInstruments:
    def test_trial_events_update_outcome_counters_and_safe_ratio(self):
        registry = MetricsRegistry()
        instruments = CampaignInstruments(registry)
        for outcome, masked in (
            ("masked_overwrite", True),
            ("masked_overwrite", True),
            ("crash", False),
        ):
            instruments.update_batch([
                _span(
                    SPAN_TRIAL,
                    attrs={
                        "cell": "heap|single-bit soft",
                        "outcome": outcome,
                        "masked": masked,
                        "responded": 10,
                        "incorrect": 0,
                        "failed": 0,
                    },
                )
            ])
        dump = registry.to_dict()
        assert dump["campaign_trials_total"]["values"] == {
            "outcome=crash": 1,
            "outcome=masked_overwrite": 2,
        }
        ratio = dump["cell_safe_ratio"]["values"]["cell=heap|single-bit soft"]
        assert ratio == pytest.approx(2 / 3)

    def test_injection_span_feeds_latency_histogram(self):
        registry = MetricsRegistry()
        instruments = CampaignInstruments(registry)
        instruments.update_batch([_span(SPAN_INJECTION, duration=5e-4)])
        family = registry.to_dict()["injection_latency_seconds"]["values"][""]
        assert family["count"] == 1
        assert family["sum"] == pytest.approx(5e-4)

    def test_progress_point_updates_worker_gauges(self):
        registry = MetricsRegistry()
        instruments = CampaignInstruments(registry)
        event = TraceEvent(
            kind=KIND_POINT, name=POINT_PROGRESS, path="campaign/progress",
            parent="campaign", ts=0.0, duration_seconds=None, pid=1,
            attrs={
                "worker_pid": 42,
                "shard_seconds": 1.5,
                "shard_trials": 4,
                "elapsed_seconds": 2.0,
                "trials_done": 4,
                "trials_total": 8,
            },
        )
        instruments.update_batch([event])
        instruments.update_batch([event])
        dump = registry.to_dict()
        assert dump["worker_busy_seconds_total"]["values"]["pid=42"] == 3.0
        assert dump["worker_trials_total"]["values"]["pid=42"] == 8
        assert dump["worker_shards_total"]["values"]["pid=42"] == 2
        assert dump["campaign_trials_done"]["values"][""] == 4
        assert dump["campaign_trials_budget"]["values"][""] == 8


class TestSafeDiv:
    def test_safe_div_defaults(self):
        assert safe_div(1.0, 0.0) == 0.0
        assert safe_div(1.0, 0.0, default=1.0) == 1.0
        assert safe_div(3.0, 2.0) == 1.5


class TestLabelEscaping:
    """Regression: label values must follow the exposition escape rules."""

    def _render_with_tenant(self, tenant):
        registry = MetricsRegistry()
        gauge = registry.gauge("tenant_gauge", "g", labels=("tenant",))
        gauge.labels(tenant=tenant).set(1.0)
        return registry.render_prometheus()

    def test_quote_is_escaped(self):
        text = self._render_with_tenant('evil"tenant')
        assert 'tenant="evil\\"tenant"' in text
        assert 'tenant="evil"tenant"' not in text

    def test_backslash_is_escaped(self):
        text = self._render_with_tenant("back\\slash")
        assert 'tenant="back\\\\slash"' in text

    def test_newline_is_escaped(self):
        text = self._render_with_tenant("two\nlines")
        assert 'tenant="two\\nlines"' in text
        # The rendered body must stay one sample per line.
        sample_lines = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert len(sample_lines) == 1

    def test_hostile_tenant_scrape_parses(self):
        from repro.obs import parse_prometheus

        hostile = 'a"b\\c\nd'
        samples = parse_prometheus(self._render_with_tenant(hostile))
        assert len(samples) == 1
        assert samples[0].labels["tenant"] == hostile

    def test_plain_values_unchanged(self):
        text = self._render_with_tenant("websearch")
        assert 'tenant_gauge{tenant="websearch"} 1' in text


class TestHistogramQuantile:
    def test_rejects_out_of_range(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="quantile"):
            histogram.quantile(1.5)

    def test_empty_returns_zero(self):
        histogram = Histogram(buckets=(1.0, 2.0))
        assert histogram.quantile(0.5) == 0.0

    def test_matches_exact_scalar_quantiles(self):
        """Interpolated estimate within one bucket width of the truth."""
        import statistics

        boundaries = tuple(0.1 * i for i in range(1, 21))  # 0.1 .. 2.0
        histogram = Histogram(buckets=boundaries)
        values = [0.05 + 0.001 * i for i in range(0, 1900, 7)]
        for value in values:
            histogram.observe(value)
        for q in (0.5, 0.9, 0.99):
            exact = statistics.quantiles(values, n=1000)[int(q * 1000) - 1]
            estimate = histogram.quantile(q)
            assert abs(estimate - exact) <= 0.1, (q, estimate, exact)

    def test_uniform_bucket_interpolation(self):
        histogram = Histogram(buckets=(1.0, 2.0, 3.0, 4.0))
        for value in (0.5, 1.5, 2.5, 3.5):
            histogram.observe(value)
        # Rank 2 of 4 lands at the boundary of the second bucket.
        assert histogram.quantile(0.5) == pytest.approx(2.0)
        assert histogram.quantile(0.25) == pytest.approx(1.0)

    def test_overflow_clamps_to_top_boundary(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(50.0)
        assert histogram.quantile(0.99) == 1.0

    def test_median_of_single_bucket_interpolates_from_zero(self):
        histogram = Histogram(buckets=(10.0,))
        histogram.observe(1.0)
        histogram.observe(2.0)
        assert histogram.quantile(0.5) == pytest.approx(5.0)


class TestHistogramObserveMany:
    def test_matches_repeated_observe(self):
        values = [0.5, 5.0, 50.0, 500.0, 1.0, 10.0, 0.25]
        one_by_one = Histogram(buckets=(1.0, 10.0, 100.0))
        for value in values:
            one_by_one.observe(value)
        batched = Histogram(buckets=(1.0, 10.0, 100.0))
        batched.observe_many(values)
        assert batched.bucket_counts == one_by_one.bucket_counts
        assert batched.count == one_by_one.count
        assert batched.sum == pytest.approx(one_by_one.sum)
        for q in (0.25, 0.5, 0.9, 0.99):
            assert batched.quantile(q) == pytest.approx(one_by_one.quantile(q))

    def test_empty_batch_is_a_no_op(self):
        histogram = Histogram(buckets=(1.0, 10.0))
        histogram.observe(5.0)
        histogram.observe_many([])
        assert histogram.count == 1
        assert histogram.sum == 5.0
        assert histogram.bucket_counts == [0, 1]

    def test_unsorted_input_and_boundary_values(self):
        histogram = Histogram(buckets=(1.0, 10.0, 100.0))
        histogram.observe_many([100.0, 1.0, 10.0, 0.0])
        # Boundaries are inclusive (le semantics), matching observe().
        assert histogram.bucket_counts == [2, 3, 4]
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(111.0)

    def test_accumulates_across_batches(self):
        histogram = Histogram(buckets=(1.0, 10.0))
        histogram.observe_many([0.5, 5.0])
        histogram.observe_many([50.0])
        assert histogram.count == 3
        assert histogram.bucket_counts == [1, 2]
        assert histogram.sum == pytest.approx(55.5)
