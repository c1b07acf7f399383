"""Characterization campaign — the paper's Figure 2 loop.

For every (memory region × error type) cell the campaign repeatedly:

1. restarts the application with pristine data (snapshot restore),
2. injects the desired number and type of errors at a sampled live
   address (Algorithm 1a),
3. replays the client workload,
4. watches for the crash condition (≥50 % failed requests or a fatal
   error),
5. compares responses with the recorded fault-free outputs,

then classifies each trial with the Figure 1 taxonomy and aggregates the
results into a :class:`~repro.core.vulnerability.VulnerabilityProfile`.

Seeding and determinism
-----------------------
Every trial draws from its own ``random.Random`` stream derived (via
:class:`~repro.utils.rng.SeedSequenceFactory`) from the campaign root
seed and the trial's identity — application name, cell name, error
label, and trial index. Trials are therefore mutually independent and
order-independent, which is what lets ``run(workers=N)`` fan the grid
out over a process pool (:mod:`repro.exec.parallel`) and still return a
profile bit-identical to the serial run.

Campaigns are deterministic given their seed; ``load_or_run_profile``
caches profiles as JSON (keyed by a config fingerprint, so stale caches
measured under different knobs are re-measured automatically).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.apps.base import Workload
from repro.apps.clients import CRASH_FAILURE_FRACTION, ClientDriver
from repro.core.design_space import HardwareTechnique
from repro.core.taxonomy import ErrorOutcome, classify_outcome
from repro.core.vulnerability import VulnerabilityProfile
from repro.exec.cells import CampaignCell
from repro.injection.injector import (
    SINGLE_BIT_HARD,
    SINGLE_BIT_SOFT,
    ErrorInjector,
    ErrorSpec,
)
from repro.injection.sampler import SpanTable
from repro.memory.trace import DECISIONS, TraceReplay, record_access_trace
from repro.obs.events import (
    POINT_PROGRESS,
    SPAN_CAMPAIGN,
    SPAN_CELL,
    SPAN_CONSUME,
    SPAN_TRIAL,
    SPAN_VERIFY,
)
from repro.obs.trace import NULL_OBSERVER, Observer
from repro.utils.rng import SeedSequenceFactory

if TYPE_CHECKING:
    from repro.kernels.planner import InjectionPlan

logger = logging.getLogger("repro.campaign")

#: Error types characterized by default (Figures 3 and 4).
DEFAULT_SPECS = (SINGLE_BIT_SOFT, SINGLE_BIT_HARD)

#: Version of the profile cache format / trial seeding scheme. Bumping
#: it invalidates every cached profile (see ``campaign_fingerprint``).
CACHE_FORMAT_VERSION = 3

#: Fingerprint schema version: bumped whenever the *shape* of the
#: fingerprint payload changes (new fields, renamed keys), so caches
#: written before a redesign can never alias caches written after it.
FINGERPRINT_SCHEMA_VERSION = 3

#: Trial-execution backends accepted by the campaign. ``pruned`` (the
#: default, and the only one a worker pool runs) pre-plans each cell's
#: trials through :mod:`repro.kernels`, resolves footprint-decidable
#: trials analytically from one access trace
#: (:mod:`repro.exec.pruning`) and serves the clean queries of the
#: trials it executes from the same trace; ``scalar`` is the serial
#: trial-by-trial loop it is pinned to, byte for byte.
BACKENDS = ("pruned", "scalar")


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of a characterization campaign."""

    trials_per_cell: int = 60
    queries_per_trial: int = 150
    seed: int = 99

    def __post_init__(self) -> None:
        if self.trials_per_cell <= 0:
            raise ValueError("trials_per_cell must be positive")
        if self.queries_per_trial <= 0:
            raise ValueError("queries_per_trial must be positive")


@dataclass(frozen=True)
class TrialRecord:
    """One measured trial of a campaign cell.

    What :meth:`CharacterizationCampaign.measure_trial` returns and
    worker shards carry back (picklable). The cell is the caller's; the
    trial's ``trial`` span carries the same fields under the cell's path.
    """

    trial_index: int
    anchor_addr: int
    outcome: ErrorOutcome
    responded: int
    incorrect: int
    failed: int
    effect_delay_minutes: Optional[float]

    def record_into(self, stats) -> None:
        """Fold this trial into its cell's statistics."""
        stats.record(
            outcome=self.outcome,
            responded=self.responded,
            incorrect=self.incorrect,
            failed=self.failed,
            effect_delay_minutes=self.effect_delay_minutes,
        )


def _normalize_workers(workers: Optional[int]) -> int:
    """Validate a worker count; None means serial."""
    if workers is None:
        return 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def _parse_technique(codec: Union[str, HardwareTechnique]) -> HardwareTechnique:
    """Resolve a codec given as enum, enum value, or enum name."""
    if isinstance(codec, HardwareTechnique):
        return codec
    try:
        return HardwareTechnique(codec)
    except ValueError:
        pass
    key = str(codec).strip().upper().replace("-", "_").replace(" ", "_")
    try:
        return HardwareTechnique[key]
    except KeyError:
        pass
    # Separator-free spellings ("secded", "DECTED") still resolve.
    squashed = key.replace("_", "")
    for technique in HardwareTechnique:
        if technique.name.replace("_", "") == squashed:
            return technique
    expected = ", ".join(technique.value for technique in HardwareTechnique)
    raise ValueError(
        f"unknown memory codec {codec!r}; expected one of: {expected}"
    ) from None


def _normalize_region_codecs(
    region_codecs: Optional[Mapping[str, Union[str, HardwareTechnique]]],
) -> Optional[Dict[str, str]]:
    """Canonicalize a {region: codec} mapping to enum-value strings."""
    if not region_codecs:
        return None
    return {
        str(name): _parse_technique(codec).value
        for name, codec in region_codecs.items()
    }


class CharacterizationCampaign:
    """Runs the Figure 2 loop for one workload.

    All knobs are keyword-only (part of the stable :mod:`repro.api`
    surface): only the workload is positional.

    Args:
        workload: The application under characterization.
        config: Campaign knobs (defaults to :class:`CampaignConfig`).
        observer: Telemetry hub (tracing spans + metrics). The default
            disabled observer makes instrumentation free; see
            :mod:`repro.obs`.
        backend: ``"pruned"`` (default) pre-plans each cell's trials
            through :class:`~repro.kernels.planner.BatchInjectionPlanner`,
            resolves footprint-decidable trials analytically from one
            access trace (:mod:`repro.exec.pruning`) without executing
            the workload, and on a fast-path space executes, of the
            remaining trials, only the queries a fault can reach
            (:meth:`~repro.apps.clients.ClientDriver.run_fused`);
            ``"scalar"`` is the reference trial-by-trial loop — serial
            only — that returns the same profile bytes.
        region_codecs: Optional {region name: hardware codec} mapping
            (:class:`~repro.core.design_space.HardwareTechnique` or its
            value/name string). Regions whose codec corrects single-bit
            errors have single-bit trials injected as *virtual* faults —
            consumption is tracked but memory never corrupted — across
            every backend, so profiles stay backend-identical.
    """

    def __init__(
        self,
        workload: Workload,
        *,
        config: Optional[CampaignConfig] = None,
        observer: Observer = NULL_OBSERVER,
        backend: str = "pruned",
        region_codecs: Optional[Mapping[str, Union[str, HardwareTechnique]]] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.workload = workload
        self.config = config if config is not None else CampaignConfig()
        self.observer = observer
        self.backend = backend
        self.region_codecs = _normalize_region_codecs(region_codecs)
        self._corrected_regions: frozenset = frozenset()
        self._driver: Optional[ClientDriver] = None
        self._seed_factory: Optional[SeedSequenceFactory] = None
        self._golden: Optional[List] = None
        self._golden_trace = None
        self._replay = None
        self._corrected_mask = None
        from repro.exec.pruning import PruningStats

        self.pruning_stats = PruningStats()
        #: Pruned backend: "cell|error label" -> how the queries of that
        #: cell's executed trials were served
        #: (:data:`~repro.memory.trace.DECISIONS`). Like the serve
        #: plane's ``decisions``, never part of a profile.
        self.decisions: Dict[str, Dict[str, int]] = {}
        # Tallied by executed trials since the last take_decisions().
        self._served = dict.fromkeys(DECISIONS, 0)

    def prepare(self) -> None:
        """Build the workload, checkpoint it, and record golden outputs.

        Trials issue only the query budget, so only the budget is
        replayed for golden responses; the golden access trace is then
        recorded against them. The second replay must answer as the
        first did, or it cannot stand in for clean execution
        (:func:`~repro.memory.trace.record_access_trace` raises).

        An already-built workload (e.g. a shared test fixture) is reused:
        it is reset to its checkpoint instead of rebuilt.
        """
        workload = self.workload
        if workload.is_built:
            workload.reset()
        else:
            workload.build()
            workload.checkpoint()
        query_budget = min(self.config.queries_per_trial, workload.query_count)
        self._golden = [workload.execute(index) for index in range(query_budget)]
        self._golden_trace = record_access_trace(
            workload, query_budget, golden=self._golden
        )
        self._driver = ClientDriver(workload, self._golden)
        self._seed_factory = SeedSequenceFactory(self.config.seed)
        if self.region_codecs:
            known = {region.name for region in self.workload.space.regions}
            unknown = sorted(set(self.region_codecs) - known)
            if unknown:
                raise ValueError(
                    f"region_codecs names unknown regions: {unknown}"
                )
        self._corrected_regions = frozenset(
            name
            for name, value in (self.region_codecs or {}).items()
            if HardwareTechnique(value).corrects_single_bit
        )

    # ------------------------------------------------------------------
    # Trial seeding
    # ------------------------------------------------------------------
    def trial_seeds(self, cell_name: str, error_label: str):
        """Map a trial index to its independent stream seed for one cell.

        The stream identity is (root seed, app, cell, error type, trial
        index) — never execution order — which is the foundation of the
        serial ≡ parallel determinism guarantee. Everything but the
        index is constant across a cell, so it is hashed once here (see
        :meth:`~repro.utils.rng.SeedSequenceFactory.indexed_seeds`).
        """
        return self._trial_seed_factory().indexed_seeds(
            self._trial_label_prefix(cell_name, error_label)
        )

    def _trial_seed_factory(self) -> SeedSequenceFactory:
        if self._seed_factory is None:
            raise RuntimeError("prepare() must be called before trial_rng()")
        return self._seed_factory

    def _trial_label_prefix(self, cell_name: str, error_label: str) -> str:
        return f"trial:{self.workload.name}:{cell_name}:{error_label}:"

    def trial_rng(
        self, cell_name: str, error_label: str, trial_index: int
    ) -> random.Random:
        """Independent seed stream for one trial of one cell."""
        return random.Random(self.trial_seeds(cell_name, error_label)(trial_index))

    # ------------------------------------------------------------------
    def measure_trial(
        self,
        cell: CampaignCell,
        trial_index: int,
        positions: Optional[List[Tuple[int, int]]] = None,
    ) -> TrialRecord:
        """One restart→inject→drive→classify cycle of one campaign cell.

        The one way to run a trial: the scalar loop, the pruned walker
        (:func:`repro.exec.parallel.fold_cells`) and pool workers all
        call it. With ``positions`` — one trial's flips from an
        :class:`~repro.kernels.planner.InjectionPlan` — the injection is
        installed as planned without consuming any RNG; without, it is
        drawn inside the trial from the trial's derived seed: region
        cells re-sample live spans after the reset, custom cells use
        their fixed spans. Either way the cycle is wrapped in a
        ``trial`` tracing span whose path is derived from the grid
        identity, never execution order, and which carries every field
        of the returned record.
        """
        if self._driver is None:
            raise RuntimeError("prepare() must be called before measure_trial()")
        workload = self.workload
        space = workload.space
        spec = cell.spec
        cell_key = f"{cell.name}|{spec.label}"
        with self.observer.span(
            SPAN_TRIAL,
            key=str(trial_index),
            attrs={"cell": cell_key, "trial_index": trial_index},
        ) as span:
            workload.reset()
            if positions is None:
                rng = self.trial_rng(cell.name, spec.label, trial_index)
                spans = (
                    list(cell.spans)
                    if cell.spans is not None
                    else workload.sample_ranges(space.region_named(cell.name))
                )
            else:
                rng = random.Random(0)
            # Before the injection: recording the trace resets the workload.
            replay = self._trial_replay()
            injector = ErrorInjector(
                space,
                rng,
                observer=self.observer,
                corrected_regions=self._corrected_regions,
            )
            if positions is None:
                record = injector.inject(spec, ranges=spans)
            else:
                record = injector.inject_planned(spec, positions)
            injected_at = space.time

            query_budget = min(self.config.queries_per_trial, workload.query_count)
            with self.observer.span(SPAN_CONSUME) as consume_span:
                if replay is not None:
                    report = self._driver.run_fused(replay, self._served)
                else:
                    report = self._driver.run(range(query_budget))
                    if self.backend == "pruned":
                        self._served["live"] += query_budget
                        self._served["fatal_tail"] += (
                            query_budget - report.attempted
                        )
                consume_span.set(
                    queries=query_budget,
                    responded=report.responded,
                    incorrect=report.incorrect,
                    failed=report.failed,
                )

            with self.observer.span(SPAN_VERIFY) as verify_span:
                consumed = False
                overwritten = False
                for addr in set(record.addresses):
                    reads, was_overwritten = space.fault_consumption(addr)
                    consumed = consumed or reads > 0
                    overwritten = overwritten or was_overwritten
                outcome = classify_outcome(report, consumed, overwritten)
                verify_span.set(
                    consumed=consumed, overwritten=overwritten, outcome=outcome.value
                )

            effect_times = [
                t
                for t in (report.first_incorrect_time, report.first_failure_time)
                if t is not None
            ]
            delay_minutes: Optional[float] = None
            if effect_times:
                delay_minutes = workload.time_scale.minutes(
                    max(0, min(effect_times) - injected_at)
                )
            span.set(
                outcome=outcome.value,
                masked=outcome.is_masked,
                anchor_addr=record.anchor_addr,
                responded=report.responded,
                incorrect=report.incorrect,
                failed=report.failed,
                effect_delay_minutes=delay_minutes,
            )
        return TrialRecord(
            trial_index=trial_index,
            anchor_addr=record.anchor_addr,
            outcome=outcome,
            responded=report.responded,
            incorrect=report.incorrect,
            failed=report.failed,
            effect_delay_minutes=delay_minutes,
        )

    def plan_cells(
        self, batches: Sequence[Tuple[CampaignCell, Sequence[int]]]
    ) -> List[InjectionPlan]:
        """Pre-draw the injections of many cells' trials (pruned backend).

        ``batches`` holds ``(cell, trial indices)`` pairs; one
        :class:`~repro.kernels.planner.InjectionPlan` comes back per
        pair, holding exactly the anchors and flips the scalar loop
        would have drawn trial by trial from each trial's derived seed.
        The cells are planned together
        (:meth:`~repro.kernels.planner.BatchInjectionPlanner.plan_cells`),
        so a campaign that hands over all its cells seeds all their
        single-bit streams in one pass. A region's live spans are
        sampled once from the pristine checkpoint — valid for every
        trial because each trial resets to that same checkpoint — and
        its cells share one span table.
        """
        from repro.kernels.planner import BatchInjectionPlanner, CellRequest

        workload = self.workload
        tables: Dict[Tuple, SpanTable] = {}
        requests = []
        for cell, trial_indices in batches:
            table = tables.get((cell.name, cell.spans))
            if table is None:
                if cell.spans is None:
                    workload.reset()
                    region = workload.space.region_named(cell.name)
                    spans = workload.sample_ranges(region)
                else:
                    spans = cell.spans
                table = tables[cell.name, cell.spans] = SpanTable(spans)
            indices = list(trial_indices)
            seeds = self._trial_seed_factory().indexed_seed_array(
                self._trial_label_prefix(cell.name, cell.spec.label), indices
            )
            requests.append(
                CellRequest(cell.spec, table, np.asarray(indices, dtype=np.int64), seeds)
            )
        return BatchInjectionPlanner(workload.space).plan_cells(requests)

    def plan_cell_trials(self, cell: CampaignCell, trial_indices: Sequence[int]):
        """Pre-draw one cell's (or shard's) injections: the one-cell
        case of :meth:`plan_cells`."""
        return self.plan_cells([(cell, trial_indices)])[0]

    # ------------------------------------------------------------------
    # Trial pruning (backend="pruned")
    # ------------------------------------------------------------------
    def golden_trace(self):
        """The campaign's golden access trace, recorded by :meth:`prepare`.

        One :class:`~repro.memory.trace.AccessTrace` of the query budget
        serves every cell — classification and fused trial execution
        alike: the budget is a config constant and the fault-free replay
        is injection-independent.
        """
        if self._golden_trace is None:
            raise RuntimeError("prepare() must be called before golden_trace()")
        return self._golden_trace

    def _trial_replay(self):
        """The engine that fuses an executed trial's clean queries.

        ``None`` runs the trial through the plain scalar loop: every
        backend but ``"pruned"`` (they have no trace), and oracle-mode
        spaces (fused replay needs the fast path's dirty-page tracking).
        """
        if self.backend != "pruned" or not self.workload.space.fast_path_enabled:
            return None
        if self._replay is None:
            self._replay = TraceReplay(self.golden_trace(), self.workload)
        return self._replay

    def take_decisions(self) -> Dict[str, int]:
        """How the queries of the trials executed since the last call
        were served (pruned backend; see :attr:`decisions`)."""
        taken, self._served = self._served, dict.fromkeys(DECISIONS, 0)
        return taken

    def note_decisions(
        self, cell: CampaignCell, tallies: Sequence[Dict[str, int]]
    ) -> Dict[str, int]:
        """Fold one cell's query tallies — the serial loop's own
        :meth:`take_decisions`, or its shards' from the workers — into
        :attr:`decisions`, the pruning stats and the instruments;
        returns their sum for the cell's span."""
        served = self.decisions.setdefault(
            f"{cell.name}|{cell.spec.label}", dict.fromkeys(DECISIONS, 0)
        )
        total = dict.fromkeys(DECISIONS, 0)
        for tally in tallies:
            for decision, count in tally.items():
                total[decision] += count
                served[decision] += count
        self.pruning_stats.add(**total)
        instruments = self.observer.instruments
        if instruments is not None:
            instruments.record_pruning(total)
        return total

    def corrected_mask(self):
        """Per-byte corrected-region mask (None when nothing is protected)."""
        if not self._corrected_regions:
            return None
        if self._corrected_mask is None:
            from repro.exec.pruning import corrected_byte_mask

            self._corrected_mask = corrected_byte_mask(
                self.workload.space, self._corrected_regions
            )
        return self._corrected_mask

    def classify_plan_trials(self, plan):
        """Pre-classify one planned batch against the golden trace.

        Returns a :class:`~repro.exec.pruning.PlanClassification`.
        """
        from repro.exec.pruning import classify_plan

        return classify_plan(plan, self.golden_trace(), self.corrected_mask())

    def classify_cells(
        self, batches: Sequence[Tuple[CampaignCell, Sequence[int]]]
    ) -> List[Tuple]:
        """Plan + pre-classify many cells' trials: ``(plan,
        classification)`` per ``(cell, trial indices)`` pair.

        The parent-process entry point of the parallel runner, which
        hands it every cell at once: planning and classification both
        happen before any shard is dispatched, so only undecidable
        trials are shipped to workers.
        """
        plans = self.plan_cells(batches)
        return [(plan, self.classify_plan_trials(plan)) for plan in plans]

    def classify_cell_trials(self, cell: CampaignCell, trial_indices: Sequence[int]):
        """The one-cell case of :meth:`classify_cells`."""
        return self.classify_cells([(cell, trial_indices)])[0]

    def fold_decided_run(
        self, cell: CampaignCell, stats, plan, classification, start: int, stop: int
    ) -> None:
        """Fold local trials ``[start, stop)`` — all decided — unexecuted.

        The one synthesis routine of the pruned backend, called by its
        cell walker (:func:`repro.exec.parallel.fold_cells`). Everything
        a decided trial contributes is known from the golden trace, so a
        whole run costs one counted settle of the replay's clock/counter
        deltas on the address space and one counted ``stats`` update per
        outcome (in first-seen order, which is the order per-trial
        folding would have inserted them). With an enabled observer each
        trial still emits its ``trial`` span (tagged ``pruned=True``)
        carrying the exact attributes an executed golden-identical trial
        would.
        """
        from repro.exec.pruning import OUTCOME_BY_CODE

        trace = self.golden_trace()
        responded = trace.query_count
        self.workload.space.settle_recorded_trial(
            trace.end_time, trace.per_region, trials=stop - start
        )
        codes = classification.codes[start:stop].tolist()
        if self.observer.enabled:
            cell_key = f"{cell.name}|{cell.spec.label}"
            for trial_index, anchor_addr, code in zip(
                plan.trial_indices[start:stop].tolist(),
                plan.anchor_addrs[start:stop].tolist(),
                codes,
            ):
                outcome = OUTCOME_BY_CODE[code]
                with self.observer.span(
                    SPAN_TRIAL,
                    key=str(trial_index),
                    attrs={
                        "cell": cell_key,
                        "trial_index": trial_index,
                        "pruned": True,
                    },
                ) as span:
                    span.set(
                        outcome=outcome.value,
                        masked=outcome.is_masked,
                        anchor_addr=anchor_addr,
                        responded=responded,
                        incorrect=0,
                        failed=0,
                        effect_delay_minutes=None,
                    )
        for code, count in Counter(codes).items():
            stats.record(
                outcome=OUTCOME_BY_CODE[code],
                responded=responded,
                incorrect=0,
                failed=0,
                effect_delay_minutes=None,
                count=count,
            )

    # ------------------------------------------------------------------
    def _run_cells(
        self,
        cells: Sequence[CampaignCell],
        budget: int,
        region_sizes: Dict[str, int],
        workers: int,
        workload_factory: Optional[Callable[[], Workload]],
    ) -> VulnerabilityProfile:
        """Run a cell grid inside one ``campaign`` tracing span.

        A pruned campaign runs through
        :class:`~repro.exec.parallel.ParallelCampaignRunner` on any
        worker count (one worker measures in this process; the runner
        rejects a scalar campaign on a pool). The scalar oracle runs
        :meth:`_run_scalar_cells`.
        """
        logger.info(
            "campaign %s: %d cells x %d trials on %d worker(s)",
            self.workload.name, len(cells), budget, workers,
        )
        trials_total = len(cells) * budget
        with self.observer.span(
            SPAN_CAMPAIGN,
            attrs={
                "app": self.workload.name,
                "cells": len(cells),
                "trials_per_cell": budget,
                "workers": workers,
            },
        ) as campaign_span:
            if self.backend == "scalar" and workers == 1:
                profile = self._run_scalar_cells(cells, budget, region_sizes)
            else:
                from repro.exec.parallel import ParallelCampaignRunner

                runner = ParallelCampaignRunner(
                    workers=workers,
                    workload_factory=workload_factory,
                )
                profile = runner.run(self, cells, budget, region_sizes)
            campaign_span.set(trials=trials_total)
        logger.info("campaign %s: %d trials complete", self.workload.name, trials_total)
        return profile

    def _run_scalar_cells(
        self,
        cells: Sequence[CampaignCell],
        budget: int,
        region_sizes: Dict[str, int],
    ) -> VulnerabilityProfile:
        """The scalar oracle: every trial of every cell, one by one.

        Each cell runs in a ``cell`` tracing span followed by one
        ``progress`` point; the run's memory fast-path delta is folded into
        the instruments.
        """
        observer = self.observer
        profile = VulnerabilityProfile(app=self.workload.name)
        profile.region_sizes = dict(region_sizes)
        start = time.perf_counter()
        trials_total = len(cells) * budget
        memory_before = self.workload.fast_path_stats()
        for done, cell_def in enumerate(cells, 1):
            cell = profile.cell(cell_def.name, cell_def.spec.label)
            cell_start = time.perf_counter()
            with observer.span(
                SPAN_CELL,
                key=f"{cell_def.name}|{cell_def.spec.label}",
                attrs={
                    "region": cell_def.name,
                    "error_label": cell_def.spec.label,
                    "trials": budget,
                },
            ):
                for trial_index in range(budget):
                    self.measure_trial(cell_def, trial_index).record_into(cell)
            now = time.perf_counter()
            observer.point(
                POINT_PROGRESS,
                attrs={
                    "trials_done": done * budget,
                    "trials_total": trials_total,
                    "elapsed_seconds": now - start,
                    "worker_pid": os.getpid(),
                    "shard_trials": budget,
                    "shard_seconds": now - cell_start,
                    "cell_name": cell_def.name,
                    "error_label": cell_def.spec.label,
                },
            )
        self.record_memory_since(memory_before)
        return profile

    def record_memory_since(self, before: Dict[str, int]) -> None:
        """Fold the workload's memory fast-path counters moved since
        ``before`` into the instruments (no-op without a registry)."""
        instruments = self.observer.instruments
        if instruments is None:
            return
        after = self.workload.fast_path_stats()
        instruments.record_memory(
            {key: after[key] - before.get(key, 0) for key in after}
        )

    def run(
        self,
        regions: Optional[Sequence[str]] = None,
        specs: Sequence[ErrorSpec] = DEFAULT_SPECS,
        trials_per_cell: Optional[int] = None,
        workers: Optional[int] = None,
        workload_factory: Optional[Callable[[], Workload]] = None,
    ) -> VulnerabilityProfile:
        """Run the full campaign and return the vulnerability profile.

        Args:
            regions: Region names to characterize (default: all).
            specs: Error types to inject.
            trials_per_cell: Per-cell trial budget override.
            workers: Process count for parallel execution; ``None`` or 1
                runs serially. The returned profile is bit-identical for
                any worker count.
            workload_factory: Picklable zero-argument factory used to
                rebuild the workload in spawned workers (not needed on
                fork platforms, where workers inherit the prepared
                campaign).

        Progress reaches callers through the campaign's observer: one
        ``progress`` point per completed cell or shard, folded into the
        ``campaign_trials_done`` / ``worker_*`` instruments when a
        metrics registry is attached.
        """
        worker_count = _normalize_workers(workers)
        if self._driver is None:
            self.prepare()
        workload = self.workload
        if regions is None:
            regions = [region.name for region in workload.space.regions]
        budget = trials_per_cell or self.config.trials_per_cell
        cells = [
            CampaignCell(name=region_name, spec=spec)
            for region_name in regions
            for spec in specs
        ]
        return self._run_cells(
            cells,
            budget,
            self.live_region_sizes(),
            worker_count,
            workload_factory,
        )

    def run_custom_cells(
        self,
        cells: Dict[str, List],
        specs: Sequence[ErrorSpec] = DEFAULT_SPECS,
        trials_per_cell: Optional[int] = None,
        workers: Optional[int] = None,
        workload_factory: Optional[Callable[[], Workload]] = None,
    ) -> VulnerabilityProfile:
        """Characterize arbitrary named address-span sets.

        The finest-granularity mode of the framework (Table 4's memory
        page / cache line rows): ``cells`` maps a structure name to its
        (base, end) spans — e.g. from
        :meth:`repro.apps.websearch.WebSearch.data_structure_ranges` —
        and each gets its own profile cell, sampled and classified
        exactly like a region. Accepts the same ``workers`` /
        ``workload_factory`` arguments as :meth:`run`.
        """
        worker_count = _normalize_workers(workers)
        if self._driver is None:
            self.prepare()
        budget = trials_per_cell or self.config.trials_per_cell
        region_sizes = {
            name: sum(end - base for base, end in spans)
            for name, spans in cells.items()
        }
        cell_defs = [
            CampaignCell(
                name=name,
                spec=spec,
                spans=tuple((base, end) for base, end in spans),
            )
            for name, spans in cells.items()
            for spec in specs
        ]
        return self._run_cells(
            cell_defs,
            budget,
            region_sizes,
            worker_count,
            workload_factory,
        )

    def live_region_sizes(self) -> Dict[str, int]:
        """Bytes of live application data per region (sampling weights)."""
        sizes: Dict[str, int] = {}
        for region in self.workload.space.regions:
            spans = self.workload.sample_ranges(region)
            sizes[region.name] = sum(end - base for base, end in spans)
        return sizes


def campaign_fingerprint(
    config: CampaignConfig,
    specs: Sequence[ErrorSpec] = DEFAULT_SPECS,
    regions: Optional[Sequence[str]] = None,
    backend: str = "pruned",
    region_codecs: Optional[Mapping[str, Union[str, HardwareTechnique]]] = None,
) -> str:
    """Stable digest of every knob that shapes a measured profile.

    Embedded in profile caches so that a cache written under different
    knobs (trial budget, query budget, seed, error specs, region
    selection, or an older seeding scheme) is detected as stale and
    re-measured instead of silently reused.

    The payload carries two versioning fields: ``format`` (the cache /
    seeding scheme version) and ``schema`` (the fingerprint payload
    shape itself), plus the trial-execution ``backend`` — so caches
    written by scalar and pruned runs, or by releases before and after
    a payload redesign, can never collide even though the profile bytes
    are expected to match.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    codecs = _normalize_region_codecs(region_codecs)
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "schema": FINGERPRINT_SCHEMA_VERSION,
        "backend": backend,
        "trials_per_cell": config.trials_per_cell,
        "queries_per_trial": config.queries_per_trial,
        "seed": config.seed,
        "failure_fraction": CRASH_FAILURE_FRACTION,
        "specs": [{"kind": spec.kind.value, "bits": spec.bits} for spec in specs],
        "regions": list(regions) if regions is not None else None,
        "region_codecs": sorted(codecs.items()) if codecs else None,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_or_run_profile(
    workload_factory: Callable[[], Workload],
    config: CampaignConfig,
    cache_path: Optional[Path] = None,
    specs: Sequence[ErrorSpec] = DEFAULT_SPECS,
    regions: Optional[Sequence[str]] = None,
    workers: Optional[Union[int, str]] = None,
    backend: str = "pruned",
    region_codecs: Optional[Mapping[str, Union[str, HardwareTechnique]]] = None,
) -> VulnerabilityProfile:
    """Return a (possibly cached) vulnerability profile.

    The cached JSON embeds a :func:`campaign_fingerprint`; a cache whose
    fingerprint does not match the requested knobs — including legacy
    caches written before fingerprinting existed — is re-measured and
    rewritten. Corrupt cache files are likewise ignored. ``workers``
    parallelizes the (re-)measurement (``"auto"`` / ``0`` resolve to the
    usable CPU count via :func:`repro.exec.workers.resolve_workers`)
    without affecting the result; ``backend="scalar"`` measures on the
    serial oracle loop instead.
    """
    from repro.exec.workers import resolve_workers

    workers = resolve_workers(workers)
    fingerprint = campaign_fingerprint(
        config, specs, regions, backend=backend, region_codecs=region_codecs
    )
    if cache_path is not None and cache_path.exists():
        try:
            data = json.loads(cache_path.read_text())
            if data.get("fingerprint") == fingerprint:
                return VulnerabilityProfile.from_dict(data["profile"])
        except (ValueError, KeyError, AttributeError, TypeError):
            pass  # fall through to a fresh run
    campaign = CharacterizationCampaign(
        workload_factory(), config=config, backend=backend,
        region_codecs=region_codecs,
    )
    campaign.prepare()
    profile = campaign.run(
        regions=regions,
        specs=specs,
        workers=workers,
        workload_factory=workload_factory,
    )
    if cache_path is not None:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        cache_path.write_text(
            json.dumps({"fingerprint": fingerprint, "profile": profile.to_dict()})
        )
    return profile
