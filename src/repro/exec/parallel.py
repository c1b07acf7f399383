"""Pruned campaign execution: one cell walker, in process or on a pool.

The paper ran its characterization on 40+ servers for two months
because the Figure 2 loop is embarrassingly parallel across
(region × error type × trial) cells. :class:`ParallelCampaignRunner`
runs every pruned campaign, on any worker count: it pre-classifies
every cell against the golden access trace, then :func:`fold_cells`
walks the cells in canonical campaign order, folds each run of decided
trials analytically and takes the executed trials from one of two
sources. With one worker it measures each executed trial in this
process when the walk reaches it. With more, the executed trials are
sharded (:func:`repro.exec.cells.plan_shards_indexed`) and run on a
``multiprocessing`` pool first, and the walk takes their results in
trial order.

Determinism guarantee
---------------------
Every trial draws from its own seed stream, derived from the campaign
root seed and the trial's (app, cell, error type, trial index) identity
— never from pool scheduling — and the walker folds trials in canonical
(cell, trial index) order whatever their source. So the profile
returned for *any* worker count is bit-identical (``profile.to_dict()``
serializes to the same JSON bytes), and a traced run emits the same
``cell`` and ``trial`` spans.

Worker bootstrap
----------------
On platforms with the ``fork`` start method (Linux), workers inherit
the parent's fully prepared campaign — built workload, checkpoint,
golden responses and the golden access trace recorded while
classifying — at zero marshalling cost. Elsewhere (``spawn``), each
worker rebuilds the campaign from a picklable ``workload_factory``; the
build is deterministic, so the inherited and rebuilt campaigns measure
identical trials.

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
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.vulnerability import VulnerabilityProfile
from repro.exec.cells import CampaignCell, CellShard, plan_shards_indexed
from repro.obs.events import POINT_PROGRESS, SPAN_CELL, TraceEvent
from repro.obs.sinks import EventBuffer
from repro.obs.trace import Observer

if TYPE_CHECKING:
    from repro.core.campaign import TrialRecord

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
    results: Tuple["TrialRecord", ...]
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
    try:
        results = tuple(
            campaign.measure_trial(shard.cell, trial_index, plan.flips_for(local))
            for local, trial_index in enumerate(shard.indices)
        )
    finally:
        if capture_events:
            campaign.observer = original_observer
    stats_after = campaign.workload.fast_path_stats()
    return ShardResult(
        cell_index=shard.cell_index,
        cell_name=shard.cell.name,
        error_label=shard.cell.spec.label,
        results=results,
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


def _measured(campaign, cell: CampaignCell, plan, classification) -> Iterator:
    """A cell's executed trials, each measured in this process when the
    walk reaches it."""
    for local in (~classification.decidable).nonzero()[0].tolist():
        yield campaign.measure_trial(
            cell, int(plan.trial_indices[local]), plan.flips_for(local)
        )


def _replayed(
    shard_results: Sequence[ShardResult], observer: Observer, instruments
) -> Iterator:
    """A cell's executed trials from the pool, in trial order; a shard's
    captured events and memory stats are replayed when its first trial
    is reached."""
    entries = sorted(
        (
            (shard_result, trial)
            for shard_result in shard_results
            for trial in shard_result.results
        ),
        key=lambda entry: entry[1].trial_index,
    )
    replayed: set = set()
    for shard_result, trial in entries:
        if id(shard_result) not in replayed:
            replayed.add(id(shard_result))
            observer.replay(shard_result.events)
            if instruments is not None and shard_result.memory_stats:
                instruments.record_memory(shard_result.memory_stats)
        yield trial


def fold_cells(
    campaign,
    profile: VulnerabilityProfile,
    cells: Sequence[CampaignCell],
    classified: Sequence[Tuple],
    trials_per_cell: int,
    shard_results: Optional[Iterable[ShardResult]] = None,
    report: Optional[Callable[[str, str, int, float], None]] = None,
) -> None:
    """Fold every cell of a pruned campaign into ``profile``, in order.

    The one walker of the pruned backend, for any worker count.
    ``classified`` holds each cell's ``(plan, classification)``. Each
    maximal run of decided trials is folded by
    :meth:`~repro.core.campaign.CharacterizationCampaign.fold_decided_run`;
    each run of the rest takes that many executed trials, in trial
    order, from one of two sources:

    * ``shard_results is None``: ``campaign.measure_trial``, called when
      the walk reaches the trial — so the space's clock and counters
      advance exactly as trial-by-trial execution advances them;
    * otherwise the pool's shard results, in any completion order: they
      are sorted by trial index, which makes the profile independent of
      pool scheduling.

    Each cell is walked inside a ``cell`` span (carrying the cell's
    query decisions). Its trial-level events are buffered and replayed
    into the campaign's observer in one call: sinks see them in order,
    and the metrics instruments take one batched update per cell.

    ``report`` is called after each cell with ``(cell name, error label,
    trials, seconds)`` for the trials the walk itself settled: decided
    ones, and those it measured. Pool trials were reported as their
    shards completed.
    """
    observer = campaign.observer
    by_cell: Dict[int, List[ShardResult]] = {}
    for shard_result in shard_results or ():
        by_cell.setdefault(shard_result.cell_index, []).append(shard_result)
    for cell_index, cell_def in enumerate(cells):
        stats = profile.cell(cell_def.name, cell_def.spec.label)
        plan, classification = classified[cell_index]
        shards = by_cell.get(cell_index, [])
        runs = classification.runs()
        walk_start = time.perf_counter()
        with observer.span(
            SPAN_CELL,
            key=f"{cell_def.name}|{cell_def.spec.label}",
            attrs={
                "region": cell_def.name,
                "error_label": cell_def.spec.label,
                "trials": trials_per_cell,
            },
        ) as cell_span:
            buffer = None
            if observer.enabled:
                buffer = EventBuffer()
                campaign.observer = Observer(
                    sinks=[buffer], root_path=observer.current_path()
                )
            if shard_results is None:
                executed = _measured(campaign, cell_def, plan, classification)
            else:
                executed = _replayed(shards, campaign.observer, observer.instruments)
            try:
                for start, stop, decided in runs:
                    if decided:
                        campaign.fold_decided_run(
                            cell_def, stats, plan, classification, start, stop
                        )
                        continue
                    for trial in islice(executed, stop - start):
                        trial.record_into(stats)
            finally:
                campaign.observer = observer
            if buffer is not None:
                observer.replay(buffer.events)
            cell_span.set(
                decisions=campaign.note_decisions(
                    cell_def,
                    [shard.decisions for shard in shards]
                    + [campaign.take_decisions()],
                )
            )
        settled = trials_per_cell - sum(len(shard.results) for shard in shards)
        if settled and report is not None:
            report(
                cell_def.name,
                cell_def.spec.label,
                settled,
                time.perf_counter() - walk_start,
            )


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
    """Runs a pruned campaign's cell grid: executed trials in this
    process on one worker, on a multiprocessing pool on more."""

    def __init__(
        self,
        workers: int,
        workload_factory: Optional[Callable] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.workload_factory = workload_factory
        self.start_method = resolve_start_method(start_method)

    def run(
        self,
        campaign,
        cells: Sequence[CampaignCell],
        trials_per_cell: int,
        region_sizes: Dict[str, int],
    ) -> VulnerabilityProfile:
        """Classify, execute and fold the grid; return the profile.

        ``campaign`` must already be prepared. With one worker the
        executed trials run in this process as :func:`fold_cells`
        reaches them. With more they run on a pool first: its workers
        operate on forked or rebuilt copies, so the parent's workload is
        never mutated by them (shared fixtures stay pristine), and no
        pool is built when the trace decides every trial. Progress
        accounts for the whole budget on any worker count: pool trials
        as their shards complete, the rest as their cell is walked. The
        instruments take the memory fast-path delta of this process's
        space over the run (classification, settles, in-process trials)
        and each shard's.

        Raises:
            ValueError: for a ``scalar`` campaign, which runs serially.
        """
        if campaign.backend == "scalar":
            raise ValueError(
                "the scalar backend is single-threaded; "
                "workers > 1 needs backend='pruned'"
            )
        observer = campaign.observer
        memory_before = campaign.workload.fast_path_stats()
        classified, indices_by_cell = self._classify(
            campaign, cells, trials_per_cell
        )
        profile = VulnerabilityProfile(app=campaign.workload.name)
        profile.region_sizes = dict(region_sizes)

        trials_total = len(cells) * trials_per_cell
        trials_done = 0
        start = time.perf_counter()

        def report(
            cell_name, error_label, trials, seconds, worker_pid=os.getpid()
        ) -> None:
            """One ``progress`` point; this process's pid for walked trials."""
            nonlocal trials_done
            trials_done += trials
            observer.point(
                POINT_PROGRESS,
                attrs={
                    "trials_done": trials_done,
                    "trials_total": trials_total,
                    "elapsed_seconds": time.perf_counter() - start,
                    "worker_pid": worker_pid,
                    "shard_trials": trials,
                    "shard_seconds": seconds,
                    "cell_name": cell_name,
                    "error_label": error_label,
                },
            )

        shard_results = None
        if self.workers > 1:
            shard_results = self._run_pool(
                campaign,
                plan_shards_indexed(cells, indices_by_cell, self.workers),
                report,
            )
        fold_cells(
            campaign,
            profile,
            cells,
            classified,
            trials_per_cell,
            shard_results,
            report,
        )
        campaign.record_memory_since(memory_before)
        return profile

    def _run_pool(
        self, campaign, shards: List[CellShard], report: Callable
    ) -> List[ShardResult]:
        """Run ``shards`` on a worker pool, reporting each as it completes."""
        global _WORKER_CAMPAIGN, _WORKER_TRACE
        shard_results: List[ShardResult] = []
        if not shards:
            return shard_results
        trace_enabled = campaign.observer.enabled
        context = multiprocessing.get_context(self.start_method)
        if self.start_method == "fork":
            initializer, initargs = None, ()
            _WORKER_CAMPAIGN = campaign  # inherited by forked workers
            _WORKER_TRACE = trace_enabled
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
                trace_enabled,
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
        return shard_results

    @staticmethod
    def _classify(
        campaign,
        cells: Sequence[CampaignCell],
        trials_per_cell: int,
    ) -> Tuple[List[Tuple], List[List[int]]]:
        """Pre-classify every cell: its ``(plan, classification)`` and the
        trial indices that still execute.

        Runs in this process before any trial executes (and before a
        pool exists): the golden trace is recorded once, every cell is
        planned in one call (so all single-bit streams of the campaign
        are seeded in one pass), and the pruning tallies of the whole
        run are added in one step.
        """
        classified = campaign.classify_cells(
            [(cell_def, range(trials_per_cell)) for cell_def in cells]
        )
        indices_by_cell: List[List[int]] = []
        run_pruned = run_executed = 0
        for plan, classification in classified:
            indices_by_cell.append(
                plan.trial_indices[~classification.decidable].tolist()
            )
            run_pruned += classification.pruned_count
            run_executed += classification.executed_count
        tally = {
            "pruned": run_pruned,
            "executed": run_executed,
            "fallback": 0,
        }
        campaign.pruning_stats.add(**tally)
        instruments = campaign.observer.instruments
        if instruments is not None:
            instruments.record_pruning(tally)
        logger.info(
            "pruning: %d/%d trials resolved analytically",
            run_pruned, run_pruned + run_executed,
        )
        return classified, indices_by_cell
