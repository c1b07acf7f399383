"""Campaign observability: tracing spans, metrics, and structured logs.

The paper's methodology is as much about *watching* the injection
schedule as running it: every trial outcome must be attributable to a
region, error type, and time. This package provides that layer for the
reproduction:

* hierarchical **tracing spans** (``campaign → cell → trial →
  injection/consume/verify``) via :class:`Observer`'s context-manager
  API (:mod:`repro.obs.trace`), relayed from parallel workers through
  the existing result pipe;
* a **metrics registry** of counters/gauges/fixed-bucket histograms
  (:mod:`repro.obs.metrics`) pre-wired with campaign instruments
  (:mod:`repro.obs.instruments`);
* **sinks/exporters**: a JSONL structured event log, a
  Prometheus-style text exposition, and human-readable summaries
  (:mod:`repro.obs.sinks`, :mod:`repro.obs.report`);
* the **live telemetry plane**: an embedded HTTP server exposing
  ``/metrics``, ``/status``, ``/slo``, and ``/ledger/tail``
  (:mod:`repro.obs.live`), the deterministic multi-window SLO
  burn-rate engine feeding it (:mod:`repro.obs.slo`), and a minimal
  exposition-format parser for scrape sanity checks
  (:mod:`repro.obs.promtext`).

The observer is the one campaign telemetry channel: each completed cell
or shard is a ``progress`` point event, which sinks receive like any
span and the instruments fold into ``campaign_trials_done`` and the
per-worker ``worker_*`` series. A caller that wants live progress
passes a sink.

Instrumentation is zero-cost when disabled (the default
:data:`NULL_OBSERVER` allocates nothing on the hot path) and never
perturbs determinism: a traced campaign's profile is byte-identical to
an untraced one.
"""

from repro.obs.events import (
    KIND_POINT,
    KIND_SPAN,
    POINT_PROGRESS,
    SPAN_CAMPAIGN,
    SPAN_CELL,
    SPAN_CONSUME,
    SPAN_EXPLORE,
    SPAN_EXPLORE_PHASE,
    SPAN_FLEET,
    SPAN_FLEET_PHASE,
    SPAN_INJECTION,
    SPAN_MONITOR,
    SPAN_SERVE,
    SPAN_TRIAL,
    SPAN_VERIFY,
    TraceEvent,
)
from repro.obs.instruments import (
    SERVE_LATENCY_BUCKETS,
    CampaignInstruments,
    ExplorationInstruments,
    FleetInstruments,
    ServeInstruments,
)
from repro.obs.live import ObservabilityServer
from repro.obs.metrics import (
    INJECTION_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.promtext import (
    PromParseError,
    PromSample,
    assert_scrape_parses,
    parse_prometheus,
    sample_value,
)
from repro.obs.report import (
    TraceSummary,
    render_fleet_draw_path,
    render_run_summary,
    render_serve_report,
    render_trace_report,
    summarize_trace,
)
from repro.obs.sinks import EventBuffer, JsonlSink, load_events
from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    DEFAULT_SLO_TARGET,
    BurnWindow,
    SloConfig,
    SloEngine,
    SloReplay,
    audit_slo,
    parse_burn_windows,
    slo_from_ledger,
)
from repro.obs.trace import NULL_OBSERVER, Observer, Span

__all__ = [
    "KIND_POINT",
    "KIND_SPAN",
    "POINT_PROGRESS",
    "SPAN_CAMPAIGN",
    "SPAN_CELL",
    "SPAN_CONSUME",
    "SPAN_EXPLORE",
    "SPAN_EXPLORE_PHASE",
    "SPAN_FLEET",
    "SPAN_FLEET_PHASE",
    "SPAN_INJECTION",
    "SPAN_MONITOR",
    "SPAN_SERVE",
    "SPAN_TRIAL",
    "SPAN_VERIFY",
    "TraceEvent",
    "CampaignInstruments",
    "ExplorationInstruments",
    "FleetInstruments",
    "SERVE_LATENCY_BUCKETS",
    "ServeInstruments",
    "ObservabilityServer",
    "INJECTION_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PromParseError",
    "PromSample",
    "assert_scrape_parses",
    "parse_prometheus",
    "sample_value",
    "DEFAULT_BURN_WINDOWS",
    "DEFAULT_SLO_TARGET",
    "BurnWindow",
    "SloConfig",
    "SloEngine",
    "SloReplay",
    "audit_slo",
    "parse_burn_windows",
    "slo_from_ledger",
    "TraceSummary",
    "render_fleet_draw_path",
    "render_run_summary",
    "render_serve_report",
    "render_trace_report",
    "summarize_trace",
    "EventBuffer",
    "JsonlSink",
    "load_events",
    "NULL_OBSERVER",
    "Observer",
    "Span",
]
