"""Parallel campaign execution over a multiprocessing worker pool.

The paper ran its characterization on 40+ servers for two months
because the Figure 2 loop is embarrassingly parallel across
(region × error type × trial) cells. This module reproduces that
scale-out in-process: :class:`ParallelCampaignRunner` pre-classifies
every cell against the golden access trace, shards the trials that
still need executing (:func:`repro.exec.cells.plan_shards_indexed`),
executes the shards on a ``multiprocessing`` pool, and merges decided
and executed trials back into a
:class:`~repro.core.vulnerability.VulnerabilityProfile` in canonical
campaign order.

Determinism guarantee
---------------------
Every trial draws from its own seed stream, derived from the campaign
root seed and the trial's (app, cell, error type, trial index) identity
— never from pool scheduling. Merging replays trial results in
canonical (cell, trial index) order, so the profile returned for *any*
worker count — including the serial path — is bit-identical:
``profile.to_dict()`` serializes to the same JSON bytes.

Worker bootstrap
----------------
On platforms with the ``fork`` start method (Linux), workers inherit
the parent's fully prepared campaign — built workload, checkpoint, and
golden responses — at zero marshalling cost. Elsewhere (``spawn``),
each worker rebuilds the campaign from a picklable
``workload_factory``; the build is deterministic, so the inherited and
rebuilt campaigns measure identical trials.

Failures inside a worker (a bad region name, a broken workload factory)
propagate: the pool is torn down and the original exception is raised
in the caller.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.taxonomy import ErrorOutcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.exec.cells import CampaignCell, CellShard, plan_shards_indexed
from repro.obs.events import SPAN_CELL, TraceEvent
from repro.obs.progress import ProgressClock, emit_progress
from repro.obs.sinks import EventBuffer
from repro.obs.trace import NULL_OBSERVER, Observer

logger = logging.getLogger("repro.parallel")

#: Campaign executing shards in this worker process. Populated either by
#: fork inheritance (the parent sets it just before creating the pool)
#: or by :func:`_worker_initializer` under the spawn start method.
_WORKER_CAMPAIGN = None

#: Exception raised while bootstrapping this worker's campaign. Kept
#: instead of raising from the initializer itself: a Pool initializer
#: that raises makes the pool respawn workers forever, so the error is
#: surfaced from the first shard task instead.
_WORKER_BOOTSTRAP_ERROR: Optional[BaseException] = None

#: Whether workers should capture trace events for relay to the parent.
#: Set by fork inheritance (the parent assigns it just before creating
#: the pool) or by :func:`_worker_initializer` under spawn.
_WORKER_TRACE = False


@dataclass(frozen=True)
class TrialResult:
    """Picklable result of one trial, tagged with its grid position."""

    cell_index: int
    trial_index: int
    anchor_addr: int
    outcome: str
    responded: int
    incorrect: int
    failed: int
    effect_delay_minutes: Optional[float]


@dataclass(frozen=True)
class ShardResult:
    """All trial results of one shard plus worker timing and telemetry.

    ``events`` carries the worker's captured trace events back to the
    parent through the result pipe (empty when tracing is disabled).
    ``memory_stats`` is the shard's delta of the worker space's
    ``fast_path_stats()`` counters, folded into the parent's metrics
    registry at merge time; ``decisions`` is the worker campaign's
    query-level tally of the shard, folded into the parent campaign's.
    """

    cell_index: int
    cell_name: str
    error_label: str
    results: Tuple[TrialResult, ...]
    worker_pid: int
    seconds: float
    events: Tuple[TraceEvent, ...] = field(default=())
    memory_stats: Dict[str, int] = field(default_factory=dict)
    decisions: Dict[str, int] = field(default_factory=dict)


def _worker_initializer(
    workload_factory, config, trace_enabled=False, region_codecs=None
) -> None:
    """Build and prepare a fresh campaign in a spawned worker.

    Never raises — see :data:`_WORKER_BOOTSTRAP_ERROR`.
    """
    global _WORKER_CAMPAIGN, _WORKER_BOOTSTRAP_ERROR, _WORKER_TRACE
    from repro.core.campaign import CharacterizationCampaign

    _WORKER_TRACE = trace_enabled
    try:
        campaign = CharacterizationCampaign(
            workload_factory(), config=config, region_codecs=region_codecs
        )
        campaign.prepare()
    except BaseException as exc:  # surfaced by _execute_shard
        _WORKER_BOOTSTRAP_ERROR = exc
        _WORKER_CAMPAIGN = None
    else:
        _WORKER_CAMPAIGN = campaign


def run_shard_on(
    campaign, shard: CellShard, capture_events: bool = False
) -> ShardResult:
    """Execute one shard's trials on a prepared campaign.

    With ``capture_events`` the campaign's observer is swapped for a
    buffering one rooted at the shard's cell path, so trial spans are
    captured in memory (never written to the parent's sinks from a
    worker process) and returned inside the :class:`ShardResult` for
    canonical-order replay by the parent.
    """
    # Pre-draw the whole shard's injections before the trial loop
    # (positions identical to what the scalar loop would draw). Only
    # undecidable trials are dispatched to workers, so shards execute
    # their plan unconditionally here.
    plan = campaign.plan_cell_trials(shard.cell, shard.indices)
    buffer: Optional[EventBuffer] = None
    original_observer = campaign.observer
    if capture_events:
        buffer = EventBuffer()
        cell_key = f"{shard.cell.name}|{shard.cell.spec.label}"
        campaign.observer = Observer(
            sinks=[buffer], root_path=f"campaign/cell:{cell_key}"
        )
    stats_before = campaign.workload.fast_path_stats()
    start = time.perf_counter()
    results = []
    try:
        for local, trial_index in enumerate(shard.indices):
            trial = campaign.measure_trial(
                shard.cell, trial_index, plan.flips_for(local)
            )
            results.append(
                TrialResult(
                    cell_index=shard.cell_index,
                    trial_index=trial_index,
                    anchor_addr=trial.anchor_addr,
                    outcome=trial.outcome.value,
                    responded=trial.responded,
                    incorrect=trial.incorrect,
                    failed=trial.failed,
                    effect_delay_minutes=trial.effect_delay_minutes,
                )
            )
    finally:
        if capture_events:
            campaign.observer = original_observer
    stats_after = campaign.workload.fast_path_stats()
    return ShardResult(
        cell_index=shard.cell_index,
        cell_name=shard.cell.name,
        error_label=shard.cell.spec.label,
        results=tuple(results),
        worker_pid=os.getpid(),
        seconds=time.perf_counter() - start,
        events=tuple(buffer.events) if buffer is not None else (),
        memory_stats={
            key: stats_after[key] - stats_before.get(key, 0)
            for key in stats_after
        },
        decisions=campaign.take_decisions(),
    )


def _execute_shard(shard: CellShard) -> ShardResult:
    """Pool task: run one shard on this worker's campaign."""
    campaign = _WORKER_CAMPAIGN
    if campaign is None:
        if _WORKER_BOOTSTRAP_ERROR is not None:
            raise _WORKER_BOOTSTRAP_ERROR
        raise RuntimeError(
            "worker process has no campaign: the pool was started without "
            "fork inheritance or a workload_factory initializer"
        )
    return run_shard_on(campaign, shard, capture_events=_WORKER_TRACE)


def merge_shard_results(
    profile: VulnerabilityProfile,
    cells: Sequence[CampaignCell],
    shard_results: Iterable[ShardResult],
    campaign=None,
    classified: Optional[Dict[int, Tuple]] = None,
    decided_progress: Optional[Callable[[str, str, int, float], None]] = None,
) -> List[TrialResult]:
    """Fold shard results into ``profile`` in canonical campaign order.

    Results may arrive in any completion order; they are re-sorted by
    (cell index, trial index) before being recorded, which makes the
    merged profile independent of pool scheduling — the property pinned
    by the determinism test harness.

    ``classified`` carries the trace's verdicts as
    ``{cell index: (plan, classification)}``. Each maximal run of
    decided trials is folded by the campaign's
    :meth:`~repro.core.campaign.CharacterizationCampaign.fold_decided_run`
    — the routine the serial cell loop uses — at its place in trial
    order between the executed results, which is what keeps
    ``workers=N`` byte-identical to the serial pruned run. A cell that
    folded decided trials reports them to ``decided_progress`` as
    ``(cell name, error label, decided trials, seconds its merge
    took)``: no worker ever saw them, so this is where they count as
    done.

    With a ``campaign``, each cell's merge is wrapped in a ``cell``
    tracing span on its observer, worker-captured events are replayed
    into the parent's sinks when their shard is first reached in
    canonical order — so a parallel run's trace has the same span paths
    as a serial run's — executed trials are mirrored into
    ``campaign.trials`` at their place in that order, and the campaign
    takes each cell's worker-side query decisions.

    Returns the executed trial results, flattened in canonical order.
    """
    from repro.core.campaign import TrialRecord

    obs = campaign.observer if campaign is not None else NULL_OBSERVER
    by_cell: Dict[int, List[ShardResult]] = {}
    for shard_result in shard_results:
        by_cell.setdefault(shard_result.cell_index, []).append(shard_result)
    ordered: List[TrialResult] = []
    for cell_index, cell_def in enumerate(cells):
        cell = profile.cell(cell_def.name, cell_def.spec.label)
        cell_key = f"{cell_def.name}|{cell_def.spec.label}"
        merge_start = time.perf_counter()
        entries = sorted(
            (
                (shard_result, result)
                for shard_result in by_cell.get(cell_index, [])
                for result in shard_result.results
            ),
            key=lambda entry: entry[1].trial_index,
        )
        plan, classification = (classified or {}).get(cell_index, (None, None))
        runs = (
            classification.runs()
            if classification is not None
            else [(0, len(entries), False)]
        )
        with obs.span(
            SPAN_CELL,
            key=cell_key,
            attrs={"region": cell_def.name, "error_label": cell_def.spec.label},
        ) as cell_span:
            if campaign is not None:
                cell_span.set(
                    decisions=campaign.note_decisions(
                        cell_def,
                        [shard.decisions for shard in by_cell.get(cell_index, [])],
                    )
                )
            pending = iter(entries)
            replayed: set = set()
            for start, stop, decided in runs:
                if decided:
                    campaign.fold_decided_run(
                        cell_def, cell, plan, classification, start, stop
                    )
                    continue
                for shard_result, result in islice(pending, stop - start):
                    if id(shard_result) not in replayed:
                        replayed.add(id(shard_result))
                        obs.replay(shard_result.events)
                        instruments = obs.instruments
                        if instruments is not None and shard_result.memory_stats:
                            instruments.record_memory(shard_result.memory_stats)
                    outcome = ErrorOutcome(result.outcome)
                    cell.record(
                        outcome=outcome,
                        responded=result.responded,
                        incorrect=result.incorrect,
                        failed=result.failed,
                        effect_delay_minutes=result.effect_delay_minutes,
                    )
                    if campaign is not None and cell_def.spans is None:
                        campaign.trials.append(
                            TrialRecord(
                                region=cell_def.name,
                                error_label=cell_def.spec.label,
                                anchor_addr=result.anchor_addr,
                                outcome=outcome,
                                responded=result.responded,
                                incorrect=result.incorrect,
                                failed=result.failed,
                                effect_delay_minutes=result.effect_delay_minutes,
                            )
                        )
                    ordered.append(result)
        folded = classification.pruned_count if classification is not None else 0
        if folded and decided_progress is not None:
            decided_progress(
                cell_def.name,
                cell_def.spec.label,
                folded,
                time.perf_counter() - merge_start,
            )
    return ordered


def resolve_start_method(preferred: Optional[str] = None) -> str:
    """Pick the multiprocessing start method (fork when available)."""
    available = multiprocessing.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise ValueError(
                f"start method {preferred!r} not available (have {available})"
            )
        return preferred
    return "fork" if "fork" in available else available[0]


class ParallelCampaignRunner:
    """Runs a campaign's cell grid on a multiprocessing worker pool."""

    def __init__(
        self,
        workers: int,
        workload_factory: Optional[Callable] = None,
        progress: Optional[Callable] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.workload_factory = workload_factory
        self.progress = progress
        self.start_method = resolve_start_method(start_method)

    def run(
        self,
        campaign,
        cells: Sequence[CampaignCell],
        trials_per_cell: int,
        region_sizes: Dict[str, int],
    ) -> VulnerabilityProfile:
        """Execute the grid and return the merged profile.

        ``campaign`` must already be prepared; its workload is never
        mutated by the pool (workers operate on forked or rebuilt
        copies), so shared workload fixtures stay pristine. Progress
        accounts for the whole budget, as the serial loop does: executed
        trials as their shards complete, decided ones as their cell is
        merged. No pool is built when the trace decides every trial.

        Raises:
            ValueError: for a ``scalar`` campaign, which runs serially.
        """
        global _WORKER_CAMPAIGN, _WORKER_TRACE
        if campaign.backend == "scalar":
            raise ValueError(
                "the scalar backend is single-threaded; "
                "workers > 1 needs backend='pruned'"
            )
        observer = campaign.observer
        shards, classified = self._plan_pruned_shards(
            campaign, cells, trials_per_cell
        )
        profile = VulnerabilityProfile(app=campaign.workload.name)
        profile.region_sizes = dict(region_sizes)

        trials_total = len(cells) * trials_per_cell
        trials_done = 0
        clock = ProgressClock()

        def report(
            cell_name, error_label, trials, seconds, worker_pid=os.getpid()
        ) -> None:
            """One progress event; the parent's pid for decided trials."""
            nonlocal trials_done
            trials_done += trials
            emit_progress(
                self.progress,
                clock,
                trials_done=trials_done,
                trials_total=trials_total,
                worker_pid=worker_pid,
                shard_trials=trials,
                shard_seconds=seconds,
                cell_name=cell_name,
                error_label=error_label,
                observer=observer,
            )

        shard_results: List[ShardResult] = []
        if shards:
            context = multiprocessing.get_context(self.start_method)
            if self.start_method == "fork":
                initializer, initargs = None, ()
                _WORKER_CAMPAIGN = campaign  # inherited by forked workers
                _WORKER_TRACE = observer.enabled
            else:
                if self.workload_factory is None:
                    raise RuntimeError(
                        f"start method {self.start_method!r} cannot inherit the "
                        "prepared campaign; pass a picklable workload_factory"
                    )
                initializer = _worker_initializer
                initargs = (
                    self.workload_factory,
                    campaign.config,
                    observer.enabled,
                    campaign.region_codecs,
                )

            pool_size = min(self.workers, len(shards))
            logger.info(
                "pool: %d workers (%s), %d shards, %d trials",
                pool_size, self.start_method, len(shards),
                sum(len(shard.indices) for shard in shards),
            )
            try:
                with context.Pool(
                    processes=pool_size, initializer=initializer, initargs=initargs
                ) as pool:
                    for shard_result in pool.imap_unordered(_execute_shard, shards):
                        shard_results.append(shard_result)
                        report(
                            shard_result.cell_name,
                            shard_result.error_label,
                            len(shard_result.results),
                            shard_result.seconds,
                            shard_result.worker_pid,
                        )
            finally:
                if self.start_method == "fork":
                    _WORKER_CAMPAIGN = None
                    _WORKER_TRACE = False

        merge_shard_results(
            profile, cells, shard_results, campaign, classified, report
        )
        return profile

    def _plan_pruned_shards(
        self,
        campaign,
        cells: Sequence[CampaignCell],
        trials_per_cell: int,
    ) -> Tuple[List[CellShard], Dict[int, Tuple]]:
        """Pre-classify every cell and shard only the executed residue.

        Runs in the parent process before the pool exists: the golden
        trace is recorded once, each classified cell's ``(plan,
        classification)`` is returned by cell index (its decided runs
        are folded at merge time), and the remaining trial indices are
        cut into cost-aware shards so the pool is balanced by actual
        execution work.
        """
        classified: Dict[int, Tuple] = {}
        indices_by_cell: List[List[int]] = []
        run_pruned = run_executed = run_fallback = 0
        for cell_index, cell_def in enumerate(cells):
            plan, classification = campaign.classify_cell_trials(
                cell_def, range(trials_per_cell)
            )
            if classification is None:
                indices_by_cell.append(list(range(trials_per_cell)))
                run_executed += trials_per_cell
                run_fallback += trials_per_cell
                continue
            classified[cell_index] = (plan, classification)
            indices_by_cell.append(
                plan.trial_indices[~classification.decidable].tolist()
            )
            run_pruned += classification.pruned_count
            run_executed += classification.executed_count
        campaign.pruning_stats.add(
            pruned=run_pruned, executed=run_executed, fallback=run_fallback
        )
        instruments = campaign.observer.instruments
        if instruments is not None:
            instruments.record_pruning(
                {
                    "pruned": run_pruned,
                    "executed": run_executed,
                    "fallback": run_fallback,
                }
            )
        logger.info(
            "pruning: %d/%d trials resolved analytically (%d fallback)",
            run_pruned, run_pruned + run_executed, run_fallback,
        )
        shards = plan_shards_indexed(cells, indices_by_cell, self.workers)
        return shards, classified
