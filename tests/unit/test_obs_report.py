"""Unit tests for trace summarization and rendering (repro.obs.report)."""

import pytest

from repro.obs import (
    CampaignInstruments,
    MetricsRegistry,
    render_run_summary,
    render_trace_report,
    summarize_trace,
)
from repro.obs.events import (
    KIND_POINT,
    KIND_SPAN,
    POINT_PROGRESS,
    SPAN_CAMPAIGN,
    SPAN_CELL,
    SPAN_FLEET,
    SPAN_INJECTION,
    SPAN_TRIAL,
    TraceEvent,
)


def _event(kind, name, attrs=None, duration=0.01, pid=100):
    return TraceEvent(
        kind=kind, name=name, path=f"campaign/{name}", parent="campaign",
        ts=0.0, duration_seconds=duration, pid=pid, attrs=attrs or {},
    )


def _trial(outcome, cell="heap|single-bit soft", pid=100):
    return _event(
        KIND_SPAN, SPAN_TRIAL, attrs={"cell": cell, "outcome": outcome}, pid=pid
    )


def _small_trace():
    return [
        _event(KIND_SPAN, SPAN_INJECTION, duration=2e-5),
        _trial("crash", pid=101),
        _event(KIND_SPAN, SPAN_INJECTION, duration=4e-5),
        _trial("masked_overwrite", pid=102),
        _trial("incorrect", cell="stack|single-bit soft", pid=101),
        _event(
            KIND_POINT, POINT_PROGRESS, duration=None,
            attrs={"worker_pid": 101, "shard_seconds": 1.25},
        ),
        _event(KIND_SPAN, SPAN_CAMPAIGN, attrs={"app": "websearch"}, duration=3.5),
    ]


class TestSummarizeTrace:
    def test_empty_trace(self):
        summary = summarize_trace([])
        assert summary.events == 0
        assert summary.trials == 0
        assert summary.cells == {}
        assert summary.mean_injection_seconds == 0.0

    def test_counts_and_taxonomy(self):
        summary = summarize_trace(_small_trace())
        assert summary.app == "websearch"
        assert summary.events == 7
        assert summary.trials == 3
        assert summary.campaign_seconds == 3.5
        assert summary.outcome_totals == {
            "crash": 1,
            "masked_overwrite": 1,
            "incorrect": 1,
        }
        assert summary.worker_pids == [101, 102]
        assert summary.injection_count == 2
        assert summary.mean_injection_seconds == pytest.approx(3e-5)
        assert summary.worker_busy_seconds == {101: 1.25}

    def test_cell_fractions(self):
        summary = summarize_trace(_small_trace())
        heap = summary.cells["heap|single-bit soft"]
        assert heap.trials == 2
        assert heap.crash_fraction == 0.5
        assert heap.masked_fraction == 0.5
        assert heap.incorrect_fraction == 0.0
        stack = summary.cells["stack|single-bit soft"]
        assert stack.incorrect_fraction == 1.0


class TestRenderTraceReport:
    def test_report_contains_table_and_totals(self):
        text = render_trace_report(summarize_trace(_small_trace()))
        assert "campaign: websearch" in text
        assert "trial spans: 3" in text
        assert "workers: 2" in text
        assert "heap|single-bit soft" in text
        assert "outcome taxonomy totals:" in text
        assert "masked_overwrite" in text
        assert "worker 101: 1.25s" in text

    def test_empty_trace_renders(self):
        text = render_trace_report(summarize_trace([]))
        assert "trial spans: 0" in text

    def test_query_decisions_of_pruned_cells_are_summed_and_printed(self):
        cells = [
            _event(KIND_SPAN, SPAN_CELL, attrs={"decisions": decisions})
            for decisions in (
                {"fused": 50, "live": 10, "blocked": 7, "fatal_tail": 3},
                {"fused": 5, "live": 1, "blocked": 1, "fatal_tail": 0},
            )
        ]
        summary = summarize_trace(_small_trace() + cells)
        assert summary.query_decisions == {
            "fused": 55, "live": 11, "blocked": 8, "fatal_tail": 3
        }
        text = render_trace_report(summary)
        assert "queries of executed trials (pruned backend):" in text
        assert "fused                    55" in text
        # Other backends set no decisions: the section is left out.
        plain = render_trace_report(summarize_trace(_small_trace()))
        assert "queries of executed trials" not in plain


    def test_fleet_simulate_spans_say_which_path_ran(self):
        runs = [
            _event(KIND_SPAN, SPAN_FLEET, attrs=attrs)
            for attrs in (
                {
                    "backend": "vectorized", "servers": 8000, "months": 120,
                    "aggregated_chunks": 1, "per_server_chunks": 0,
                    "clip_log10_bound": -326.3,
                },
                {
                    "backend": "vectorized", "servers": 60, "months": 24,
                    "aggregated_chunks": 0, "per_server_chunks": 2,
                    "clip_log10_bound": 0.0,
                },
                {
                    "backend": "scalar", "servers": 5, "months": 2,
                    "aggregated_chunks": 0, "per_server_chunks": 0,
                    "clip_log10_bound": None,
                },
                # analyze / optimize spans carry no path and are skipped.
                {"evaluated": 10626},
            )
        ]
        summary = summarize_trace(runs)
        assert len(summary.fleet_simulations) == 3
        text = render_trace_report(summary)
        assert (
            "8000 servers x 120 months (vectorized): 1 aggregated + "
            "0 per-server chunks, P(clip binds) <= 10^-326.3"
        ) in text
        assert (
            "0 aggregated + 2 per-server chunks, P(clip binds) <= 10^0.0"
        ) in text
        assert (
            "(scalar): 0 aggregated + 0 per-server chunks, "
            "P(clip binds) <= 0"
        ) in text
        assert "fleet simulations" not in render_trace_report(
            summarize_trace(_small_trace())
        )
        # That optimize span predates the scoring counts: nothing to say.
        assert "optimizer" not in text

    def test_fleet_optimize_spans_say_how_much_was_scored(self):
        search = _event(
            KIND_SPAN,
            SPAN_FLEET,
            attrs={
                "evaluated": 10626, "scored": 533,
                "skipped_at_ceiling": 8348, "distinct_blocks": 735,
                "found": True, "mixed_dominates_singles": True,
            },
        )
        # A span from before the ceiling stop has no skipped count.
        older = _event(
            KIND_SPAN,
            SPAN_FLEET,
            attrs={
                "evaluated": 10626, "scored": 5426, "distinct_blocks": 735,
                "found": True, "mixed_dominates_singles": True,
            },
        )
        summary = summarize_trace(_small_trace() + [search, older])
        assert summary.fleet_simulations == []
        assert len(summary.fleet_optimizations) == 2
        text = render_trace_report(summary)
        assert (
            "optimizer: scored 533 of 10626 compositions "
            "(8348 skipped at the 1.0 ceiling, 735 distinct blocks)"
        ) in text
        assert (
            "optimizer: scored 5426 of 10626 compositions "
            "(735 distinct blocks)"
        ) in text
        assert "optimizer" not in render_trace_report(
            summarize_trace(_small_trace())
        )


class TestRenderRunSummary:
    def test_summary_lists_workers_with_idle(self):
        """Read from the registry the progress points were folded into;
        idle is measured against the final elapsed time."""
        instruments = CampaignInstruments(MetricsRegistry())
        instruments.update_batch([
            _event(KIND_POINT, POINT_PROGRESS, duration=None, attrs={
                "trials_done": done, "trials_total": 8,
                "elapsed_seconds": elapsed, "worker_pid": pid,
                "shard_trials": 4, "shard_seconds": 1.5,
                "cell_name": "heap", "error_label": "single-bit soft",
            })
            for done, elapsed, pid in ((4, 2.0, 11), (8, 4.0, 7))
        ])
        lines = render_run_summary(instruments).splitlines()
        assert lines == [
            "8/8 trials in 4.0s (2.0 trials/sec, 2 workers)",
            "  worker 7: 1 shards, 4 trials, 1.5s busy, 2.5s idle",
            "  worker 11: 1 shards, 4 trials, 1.5s busy, 2.5s idle",
        ]
