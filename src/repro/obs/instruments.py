"""Pre-wired campaign-level instruments over the metrics registry.

:class:`CampaignInstruments` is the bridge from the event stream to the
registry: an :class:`~repro.obs.trace.Observer` with a metrics registry
attached routes every emitted event through
:meth:`~CampaignInstruments.update_batch` (a one-event batch for a
single span or point), which keeps the paper-relevant aggregates
current:

* ``campaign_trials_total{outcome}`` — the Figure 1 outcome taxonomy;
* ``campaign_responses_total{disposition}`` — responded / incorrect /
  failed client requests observed while errors were resident;
* ``injection_latency_seconds`` — fixed-bucket injection-latency
  histogram;
* ``cell_safe_ratio{cell}`` — running masked-fraction estimate per
  campaign cell (the live counterpart of Figure 5b);
* ``worker_busy_seconds_total{pid}`` / ``worker_idle_seconds{pid}`` /
  ``worker_trials_total{pid}`` / ``worker_shards_total{pid}`` — pool
  utilization;
* ``campaign_trials_done`` / ``campaign_trials_budget`` /
  ``campaign_elapsed_seconds`` — overall progress gauges.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.events import (
    KIND_POINT,
    KIND_SPAN,
    POINT_PROGRESS,
    SPAN_INJECTION,
    SPAN_TRIAL,
    TraceEvent,
)
from repro.obs.metrics import (
    INJECTION_LATENCY_BUCKETS,
    MetricsRegistry,
)
from repro.utils.stats import safe_div

__all__ = [
    "CampaignInstruments",
    "ExplorationInstruments",
    "FleetInstruments",
    "SERVE_LATENCY_BUCKETS",
    "ServeInstruments",
]

#: Fixed bucket upper bounds (seconds) for per-request serve latency.
#: Simulated request execution runs tens of µs to tens of ms depending
#: on the workload; a decade ladder keeps quantile interpolation sane
#: across that range.
SERVE_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 1.0,
)


class ServeInstruments:
    """Live gauges/counters for the HRM serving layer (``repro serve``).

    Updated directly by the multiplexer at each tick barrier (the
    ``record_*`` style of :class:`ExplorationInstruments`). The ledger —
    not these instruments — is the system of record: the availability
    gauge here uses exactly the arithmetic of
    ``repro.serve.ledger.replay_ledger`` (``ok / offered`` over the same
    integers), and the audit test asserts the two agree bit-for-bit.

    * ``serve_requests_total{tenant,disposition}`` — request outcomes
      (ok / incorrect / failed / shed / down);
    * ``serve_faults_total{tenant,kind}`` — fault events by hard/soft;
    * ``serve_responses_total{tenant,action}`` — Table 2 responses;
    * ``serve_pages_retired_total{tenant}`` — pages retired;
    * ``serve_tenant_availability{tenant}`` — ok / offered so far;
    * ``serve_backlog_depth{tenant}`` — pending error-response work;
    * ``serve_shedding{tenant}`` — 1 while admission control sheds;
    * ``serve_plane_requests_total{tenant,decision}`` — how the data
      plane served each request (``repro.serve.dataplane.DECISIONS``:
      fused / live, and why a live one was not fused). Provenance only:
      deterministic for a seed, never written to the ledger.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.requests = registry.counter(
            "serve_requests_total",
            "Serve-session requests by tenant and disposition",
            labels=("tenant", "disposition"),
        )
        self.faults = registry.counter(
            "serve_faults_total",
            "Fault events routed to a tenant, by fault kind",
            labels=("tenant", "kind"),
        )
        self.responses_total = registry.counter(
            "serve_responses_total",
            "Table 2 software responses applied, by action",
            labels=("tenant", "action"),
        )
        self.pages_retired = registry.counter(
            "serve_pages_retired_total",
            "Pages retired on behalf of a tenant",
            labels=("tenant",),
        )
        self.availability = registry.gauge(
            "serve_tenant_availability",
            "Fraction of offered requests answered correctly so far",
            labels=("tenant",),
        )
        self.backlog_depth = registry.gauge(
            "serve_backlog_depth",
            "Detected faults awaiting a software response",
            labels=("tenant",),
        )
        self.shedding = registry.gauge(
            "serve_shedding",
            "1 while admission control sheds the tenant's load",
            labels=("tenant",),
        )
        self.request_latency = registry.histogram(
            "serve_request_latency_seconds",
            "Wall-clock execution latency of one served request",
            labels=("tenant",),
            buckets=SERVE_LATENCY_BUCKETS,
        )
        self.plane_requests = registry.counter(
            "serve_plane_requests_total",
            "Requests by how the data plane served them (fused, live, "
            "and the reason a live request was not fused)",
            labels=("tenant", "decision"),
        )
        # tenant -> (ok, offered) backing the availability gauge.
        self._counts: Dict[str, Tuple[int, int]] = {}
        # tenant -> data-plane decision totals published so far.
        self._decisions: Dict[str, Dict[str, int]] = {}

    def record_requests(self, tenant: str, counts: Dict[str, int]) -> None:
        """Fold one tick's request dispositions for a tenant."""
        ok, offered = self._counts.get(tenant, (0, 0))
        for disposition, count in counts.items():
            if count:
                self.requests.labels(
                    tenant=tenant, disposition=disposition
                ).inc(count)
            offered += int(count)
        ok += int(counts.get("ok", 0))
        self._counts[tenant] = (ok, offered)
        self.availability.labels(tenant=tenant).set(
            ok / offered if offered else 1.0
        )

    def record_decisions(self, tenant: str, totals: Dict[str, int]) -> None:
        """Publish a tenant's cumulative data-plane decision counts.

        The first call creates every decision's series, zeros included.
        """
        seen = self._decisions.setdefault(tenant, {})
        for decision, total in totals.items():
            if total != seen.get(decision):
                self.plane_requests.labels(
                    tenant=tenant, decision=decision
                ).inc(total - seen.get(decision, 0))
                seen[decision] = total

    def decisions_of(self, tenant: str) -> Dict[str, int]:
        """Data-plane decision counts published for one tenant so far."""
        return dict(self._decisions.get(tenant, {}))

    def record_fault(self, tenant: str, kind: str) -> None:
        """Count one routed fault event."""
        self.faults.labels(tenant=tenant, kind=kind).inc()

    def record_response(
        self, tenant: str, action: str, pages_retired: int = 0
    ) -> None:
        """Count one applied Table 2 response."""
        self.responses_total.labels(tenant=tenant, action=action).inc()
        if pages_retired:
            self.pages_retired.labels(tenant=tenant).inc(pages_retired)

    def set_backlog(self, tenant: str, depth: int) -> None:
        """Publish a tenant's current error-response backlog depth."""
        self.backlog_depth.labels(tenant=tenant).set(float(depth))

    def set_shedding(self, tenant: str, shedding: bool) -> None:
        """Publish a tenant's admission-control state."""
        self.shedding.labels(tenant=tenant).set(1.0 if shedding else 0.0)

    def record_latency_many(
        self, tenant: str, seconds: Sequence[float]
    ) -> None:
        """Observe requests' wall-clock execution latencies in one fold.

        The tenant's one latency sink: the scalar loop reports each
        request as a one-element list, the batched data plane a fused
        run's requests at once. :meth:`Histogram.observe_many` leaves the
        same state as one ``observe`` per request, in one bucket pass.

        Observational only: latency is wall-clock and therefore lives in
        the registry (a convenience view), never in the ledger — the
        determinism invariant covers ledger bytes, not these buckets.
        """
        if seconds:
            self.request_latency.labels(tenant=tenant).observe_many(seconds)

    def latency_quantiles(self, tenant: str) -> Dict[str, float]:
        """p50/p99 request latency for one tenant (0.0 when unobserved)."""
        histogram = self.request_latency.labels(tenant=tenant)
        return {
            "p50": histogram.quantile(0.50),
            "p99": histogram.quantile(0.99),
        }

    def availability_of(self, tenant: str) -> float:
        """Current availability gauge value for one tenant."""
        ok, offered = self._counts.get(tenant, (0, 0))
        return ok / offered if offered else 1.0


class ExplorationInstruments:
    """Instruments for design-space exploration (``repro.explore``).

    Updated directly by the exploration engine (not from the event
    stream — exploration emits a handful of spans, not per-design
    events, so batch-incrementing counters at phase boundaries keeps
    instrument cost off the search hot path):

    * ``explore_designs_evaluated_total{backend}`` — designs whose exact
      metrics were computed;
    * ``explore_designs_pruned_total{reason}`` — designs eliminated by a
      branch-and-bound bound without exact evaluation (reasons:
      ``availability`` / ``incorrectness`` / ``cost`` / ``dominated``);
    * ``explore_feasible_designs`` — feasible count of the last search;
    * ``explore_space_designs`` — size of the last explored space.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.designs_evaluated = registry.counter(
            "explore_designs_evaluated_total",
            "Designs exactly evaluated during design-space exploration",
            labels=("backend",),
        )
        self.designs_pruned = registry.counter(
            "explore_designs_pruned_total",
            "Designs eliminated by branch-and-bound pruning, by bound",
            labels=("reason",),
        )
        self.feasible_designs = registry.gauge(
            "explore_feasible_designs",
            "Feasible designs found by the last exploration",
        )
        self.space_designs = registry.gauge(
            "explore_space_designs",
            "Total assignment-space size of the last exploration",
        )

    def record_search(
        self,
        backend: str,
        evaluated: int,
        feasible: int,
        total_designs: int,
        pruned_by: Dict[str, int] = None,
    ) -> None:
        """Fold one completed search into the registry."""
        self.designs_evaluated.labels(backend=backend).inc(evaluated)
        for reason, count in (pruned_by or {}).items():
            if count:
                self.designs_pruned.labels(reason=reason).inc(count)
        self.feasible_designs.labels().set(float(feasible))
        self.space_designs.labels().set(float(total_designs))


class FleetInstruments:
    """Instruments for fleet simulation/optimization (``repro.fleet``).

    Updated directly by the fleet engine at run boundaries (the
    ``record_*`` style of :class:`ExplorationInstruments` — a fleet run
    emits a handful of spans, not per-server events):

    * ``fleet_server_months_total{backend}`` — simulated server-months;
    * ``fleet_availability`` — mean routed availability of the last run;
    * ``fleet_machine_availability`` — mean server uptime of the last
      run (routing ignored);
    * ``fleet_downtime_minutes`` — total downtime of the last run;
    * ``fleet_compositions_evaluated_total`` — candidate compositions
      on the mixed-fleet optimizer's grids;
    * ``fleet_compositions_scored_total`` — those that went through the
      shortfall kernel (the rest were provably off the front);
    * ``fleet_compositions_skipped_at_ceiling_total`` — those never
      scored or bounded because a composition saving more had already
      reached availability 1.0;
    * ``fleet_distinct_blocks_total`` — distinct ``(design, start,
      count)`` blocks their moments were gathered from;
    * ``fleet_best_cost_savings`` — server-cost savings of the last
      optimizer winner (0 when no composition was feasible).
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.server_months = registry.counter(
            "fleet_server_months_total",
            "Server-months simulated by the fleet engine",
            labels=("backend",),
        )
        self.availability = registry.gauge(
            "fleet_availability",
            "Mean routed fleet availability of the last simulation",
        )
        self.machine_availability = registry.gauge(
            "fleet_machine_availability",
            "Mean server uptime fraction of the last simulation",
        )
        self.downtime_minutes = registry.gauge(
            "fleet_downtime_minutes",
            "Total downtime minutes of the last simulation",
        )
        self.compositions_evaluated = registry.counter(
            "fleet_compositions_evaluated_total",
            "Candidate compositions on the fleet optimizer's grids",
        )
        self.compositions_scored = registry.counter(
            "fleet_compositions_scored_total",
            "Compositions the fleet optimizer ran the shortfall kernel on",
        )
        self.compositions_skipped_at_ceiling = registry.counter(
            "fleet_compositions_skipped_at_ceiling_total",
            "Compositions the fleet optimizer skipped at the 1.0 ceiling",
        )
        self.distinct_blocks = registry.counter(
            "fleet_distinct_blocks_total",
            "Distinct design blocks tabulated by the fleet optimizer",
        )
        self.best_cost_savings = registry.gauge(
            "fleet_best_cost_savings",
            "Cost savings of the last optimizer winner (0 if none)",
        )

    def record_simulation(self, result) -> None:
        """Fold one completed fleet simulation into the registry."""
        self.server_months.labels(backend=result.backend).inc(
            result.server_months
        )
        self.availability.labels().set(result.mean_fleet_availability)
        self.machine_availability.labels().set(
            result.mean_machine_availability
        )
        self.downtime_minutes.labels().set(sum(result.downtime_by_month))

    def record_optimization(self, result) -> None:
        """Fold one completed composition search into the registry."""
        self.compositions_evaluated.labels().inc(result.evaluated)
        self.compositions_scored.labels().inc(result.scored)
        self.compositions_skipped_at_ceiling.labels().inc(
            result.skipped_at_ceiling
        )
        self.distinct_blocks.labels().inc(result.distinct_blocks)
        self.best_cost_savings.labels().set(
            result.best.cost_savings if result.best is not None else 0.0
        )


class CampaignInstruments:
    """Keeps campaign-level instruments updated from the event stream."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.trials = registry.counter(
            "campaign_trials_total",
            "Completed injection trials by outcome taxonomy",
            labels=("outcome",),
        )
        self.responses = registry.counter(
            "campaign_responses_total",
            "Client requests observed during trials by disposition",
            labels=("disposition",),
        )
        self.injection_latency = registry.histogram(
            "injection_latency_seconds",
            "Wall-clock latency of one error-injection event",
            buckets=INJECTION_LATENCY_BUCKETS,
        )
        self.cell_safe_ratio = registry.gauge(
            "cell_safe_ratio",
            "Running masked fraction per campaign cell",
            labels=("cell",),
        )
        self.worker_busy = registry.counter(
            "worker_busy_seconds_total",
            "Cumulative shard-execution time per worker",
            labels=("pid",),
        )
        self.worker_idle = registry.gauge(
            "worker_idle_seconds",
            "Campaign elapsed time minus busy time per worker",
            labels=("pid",),
        )
        self.worker_trials = registry.counter(
            "worker_trials_total",
            "Trials completed per worker",
            labels=("pid",),
        )
        self.worker_shards = registry.counter(
            "worker_shards_total",
            "Progress points (completed shards or walked cells) per worker",
            labels=("pid",),
        )
        self.memory_fastpath = registry.counter(
            "memory_fastpath_accesses_total",
            "Simulated-memory accesses by dispatch path",
            labels=("path",),
        )
        self.memory_restores = registry.counter(
            "memory_restores_total",
            "Snapshot restores by mode",
            labels=("mode",),
        )
        self.memory_restore_bytes = registry.counter(
            "memory_restore_bytes_total",
            "Snapshot-restore byte traffic by disposition",
            labels=("disposition",),
        )
        self.memory_fastpath_hit_ratio = registry.gauge(
            "memory_fastpath_hit_ratio",
            "Fraction of simulated-memory accesses served by the fast path",
        )
        self.graph_sweeps = registry.counter(
            "graph_sweeps_total",
            "Graph-engine fast-path sweeps by disposition",
            labels=("disposition",),
        )
        self.graph_sweep_live_vertices = registry.counter(
            "graph_sweep_live_vertices_total",
            "Vertices swept live (not replayed) by the graph engine",
        )
        self.graph_sweep_kernel = registry.counter(
            "graph_sweep_kernel_total",
            "Graph-engine sweeps by where their batch kernel result came "
            "from (reused from the engine's memo, or computed)",
            labels=("source",),
        )
        self.graph_jobs = registry.counter(
            "graph_jobs_total",
            "Graph-engine fast-path jobs by how they were served (replayed "
            "from the engine's one-job memo, or run)",
            labels=("source",),
        )
        self.websearch_scans_partial = registry.counter(
            "websearch_scans_partial_total",
            "WebSearch posting-chain scans of a chain that was not wholly "
            "pristine, served block by block: pristine blocks from the "
            "memo, the others live",
        )
        self.pruning_trials = registry.counter(
            "campaign_pruning_trials_total",
            "Trials by pruning disposition (pruned backend only)",
            labels=("disposition",),
        )
        self.pruning_rate = registry.gauge(
            "campaign_pruning_rate",
            "Running fraction of trials resolved analytically",
        )
        self.trial_queries = registry.counter(
            "campaign_trial_queries_total",
            "Queries of executed trials by how they were served "
            "(pruned backend only)",
            labels=("decision",),
        )
        self.trials_done = registry.gauge(
            "campaign_trials_done", "Trials completed so far"
        )
        self.trials_budget = registry.gauge(
            "campaign_trials_budget", "Total trial budget of the campaign"
        )
        self.elapsed = registry.gauge(
            "campaign_elapsed_seconds", "Campaign wall-clock time so far"
        )
        # cell key -> (trials, masked) backing the running safe ratio.
        self._cell_counts: Dict[str, Tuple[int, int]] = {}

    def update_batch(self, events: Iterable[TraceEvent]) -> None:
        """Fold telemetry events into the registry, one touch per aggregate.

        The one fold: :meth:`Observer.emit` hands it a one-event batch,
        :meth:`Observer.replay` whole trial shards (a pruned campaign's
        cells, parallel merges). Trial outcomes and response
        dispositions are pre-summed in plain dicts so each counter label
        is incremented once per batch, and each cell's safe-ratio gauge
        is set once with its final value. Counter sums commute and
        gauges take the last write, so the registry end-state does not
        depend on how a stream is split into batches; progress points
        are replayed in order because the idle gauge reads the busy
        counter as it goes.
        """
        outcome_counts: Dict[str, int] = {}
        disposition_totals: Dict[str, float] = {}
        durations: List[float] = []
        progress_events: List[TraceEvent] = []
        touched_cells: List[str] = []
        for event in events:
            if event.kind == KIND_SPAN:
                if event.name == SPAN_TRIAL:
                    attrs = event.attrs
                    outcome = str(attrs.get("outcome", "unknown"))
                    outcome_counts[outcome] = outcome_counts.get(outcome, 0) + 1
                    for disposition in ("responded", "incorrect", "failed"):
                        count = attrs.get(disposition)
                        if count:
                            disposition_totals[disposition] = (
                                disposition_totals.get(disposition, 0.0)
                                + float(count)
                            )
                    cell = str(attrs.get("cell", "?"))
                    trials, masked = self._cell_counts.get(cell, (0, 0))
                    trials += 1
                    if attrs.get("masked"):
                        masked += 1
                    self._cell_counts[cell] = (trials, masked)
                    if cell not in touched_cells:
                        touched_cells.append(cell)
                elif event.name == SPAN_INJECTION:
                    if event.duration_seconds is not None:
                        durations.append(event.duration_seconds)
            elif event.kind == KIND_POINT and event.name == POINT_PROGRESS:
                progress_events.append(event)
        for outcome, count in outcome_counts.items():
            self.trials.labels(outcome=outcome).inc(count)
        for disposition, total in disposition_totals.items():
            self.responses.labels(disposition=disposition).inc(total)
        for cell in touched_cells:
            trials, masked = self._cell_counts[cell]
            self.cell_safe_ratio.labels(cell=cell).set(safe_div(masked, trials))
        if durations:
            histogram = self.injection_latency.labels()
            for duration in durations:
                histogram.observe(duration)
        for event in progress_events:
            self._update_progress(event)

    def record_memory(self, stats: Dict[str, int]) -> None:
        """Fold one memory fast-path stats delta into the registry.

        Updated directly (like :meth:`ExplorationInstruments.record_search`)
        rather than from the event stream: the address space counts
        accesses and restore bytes itself, and campaigns fold the deltas
        at scalar-cell, shard and pruned-run boundaries to keep
        instrument cost off the trial hot path. Keys match ``Workload.fast_path_stats()``: the
        ``AddressSpace`` counters plus, for the graph engine, its sweep
        dispositions (why a graph trial was slow: ``per_vertex`` sweeps
        and many live vertices mean faults kept runs from replaying),
        and where each sweep's batch-kernel result came from
        (``graph_sweep_kernel_total{source=reused|computed}``) and each
        job (``graph_jobs_total{source=replayed|run}``); for the search
        engine, its chain scans served partially from the memo
        (``websearch_scans_partial_total``). Kernel reuse and job replay
        depend on process history — each engine, so each pool worker,
        warms its own memo — so those counters are reported, never
        compared between serial and pooled runs (each one's sum is
        history-free).
        """
        fast = int(stats.get("fast_accesses", 0))
        checked = int(stats.get("checked_accesses", 0))
        if fast:
            self.memory_fastpath.labels(path="fast").inc(fast)
        if checked:
            self.memory_fastpath.labels(path="checked").inc(checked)
        full = int(stats.get("restores_full", 0))
        incremental = int(stats.get("restores_incremental", 0))
        if full:
            self.memory_restores.labels(mode="full").inc(full)
        if incremental:
            self.memory_restores.labels(mode="incremental").inc(incremental)
        copied = int(stats.get("restore_bytes_copied", 0))
        saved = int(stats.get("restore_bytes_saved", 0))
        if copied:
            self.memory_restore_bytes.labels(disposition="copied").inc(copied)
        if saved:
            self.memory_restore_bytes.labels(disposition="saved").inc(saved)
        for disposition in ("fused", "partial", "per_vertex"):
            sweeps = int(stats.get(f"sweeps_{disposition}", 0))
            if sweeps:
                self.graph_sweeps.labels(disposition=disposition).inc(sweeps)
        live = int(stats.get("sweep_live_vertices", 0))
        if live:
            self.graph_sweep_live_vertices.labels().inc(live)
        for source in ("reused", "computed"):
            sweeps = int(stats.get(f"sweep_kernel_{source}", 0))
            if sweeps:
                self.graph_sweep_kernel.labels(source=source).inc(sweeps)
        for source in ("replayed", "run"):
            jobs = int(stats.get(f"jobs_{source}", 0))
            if jobs:
                self.graph_jobs.labels(source=source).inc(jobs)
        partial = int(stats.get("scans_partial", 0))
        if partial:
            self.websearch_scans_partial.labels().inc(partial)
        fast_total = self.memory_fastpath.labels(path="fast").value
        checked_total = self.memory_fastpath.labels(path="checked").value
        self.memory_fastpath_hit_ratio.labels().set(
            safe_div(fast_total, fast_total + checked_total)
        )

    def record_pruning(self, stats: Dict[str, int]) -> None:
        """Fold one pruning tally into the registry.

        Updated directly (like :meth:`record_memory`): the campaign's
        pre-classifier counts dispositions itself and folds them once
        per run, after classifying every cell; the walker folds each
        cell's query decisions. Keys match
        ``PruningStats.to_dict()`` — ``pruned`` trials were resolved
        analytically, ``executed`` ran the workload, and ``fallback``
        is always 0 (every fault kind has a pruning rule); the
        :data:`~repro.memory.trace.DECISIONS` keys say how the
        queries of executed trials were served.
        """
        for name, count in stats.items():
            if not count:
                continue
            if name in ("pruned", "executed", "fallback"):
                self.pruning_trials.labels(disposition=name).inc(int(count))
            else:
                self.trial_queries.labels(decision=name).inc(int(count))
        pruned_total = self.pruning_trials.labels(disposition="pruned").value
        executed_total = self.pruning_trials.labels(disposition="executed").value
        self.pruning_rate.labels().set(
            safe_div(pruned_total, pruned_total + executed_total)
        )

    def _update_progress(self, event: TraceEvent) -> None:
        attrs = event.attrs
        pid = str(attrs.get("worker_pid", event.pid))
        busy = self.worker_busy.labels(pid=pid)
        busy.inc(float(attrs.get("shard_seconds", 0.0)))
        self.worker_trials.labels(pid=pid).inc(
            float(attrs.get("shard_trials", 0))
        )
        self.worker_shards.labels(pid=pid).inc()
        elapsed = float(attrs.get("elapsed_seconds", 0.0))
        self.worker_idle.labels(pid=pid).set(max(0.0, elapsed - busy.value))
        self.trials_done.labels().set(float(attrs.get("trials_done", 0)))
        self.trials_budget.labels().set(float(attrs.get("trials_total", 0)))
        self.elapsed.labels().set(elapsed)
