"""Trial pruning: golden-trace recording + vectorized pre-classification.

The paper's central finding is that most memory errors are *masked* —
they land in bytes the application never reads, or reads only after
overwriting them. The characterization campaign nevertheless executes
the full client workload for every such trial. This module resolves
those trials analytically instead: one *golden trace* per campaign
records the byte-granular access footprint of a fault-free replay
(per-byte first-access direction, read-ever set, exact clock/counter
deltas), and a vectorized pre-classifier then decides whole
:class:`~repro.kernels.planner.InjectionPlan` batches at once. Only
trials whose flips intersect live-read vulnerable data fall through to
the existing fast-path execution loop.

Decidability rules
------------------
All rules are stated against the scalar-oracle access semantics (the
fast path is bit-identical by the established equivalence suite). Every
trial resets the workload to the same pristine checkpoint and injects
*before* the query run, so the golden trace's per-byte classification
``first_access`` ∈ {0 = never accessed, 1 = read first, 2 = written
first} and ``read_seen`` fully determine whether an injected flip can
ever be observed:

* **Soft flip** at byte ``a``: decidable iff ``first_access[a] != 1``.
  A write-first byte has its flip erased by golden data before any
  read; a never-accessed byte is trivially unobserved.
* **Hard (stuck-at) fault** at byte ``a``: decidable iff
  ``read_seen[a] == 0`` — the overlay reasserts itself on every read,
  including reads after an overwrite, so any read at all disqualifies.
* **Corrected single-bit trial** (the trial's one flip lands in a
  region whose codec corrects single-bit errors, e.g. SEC-DED):
  decidable for *every* byte class — hardware correction means every
  read observes golden data regardless; consumption is still tracked
  (see :meth:`~repro.memory.address_space.AddressSpace.track_virtual_fault`),
  which the oracle models identically.

A trial is decidable iff **all** of its flips are. The proof is a joint
induction over the query run: while no flip has been observed, every
read returns golden bytes, so execution — including every write's value
and address — is identical to the golden replay; the golden footprint
therefore applies, and by the rules above no flip is ever observed.
Execution identity also yields the exact outcome accounting: all
queries respond correctly, and the clock/counter deltas equal the
golden replay's (settled via
:meth:`~repro.memory.address_space.AddressSpace.settle_recorded_trial`,
once per maximal run of consecutive decided trials — see
:meth:`PlanClassification.runs`).

The outcome folds over flips with the taxonomy's precedence
(consumed > overwritten > never accessed), exactly mirroring
:func:`~repro.core.taxonomy.classify_outcome` on a clean client report:

====================  =========================
any flip consumed     ``MASKED_LOGIC`` (corrected-consume)
any flip overwritten  ``MASKED_OVERWRITE``
otherwise             ``MASKED_NEVER_ACCESSED``
====================  =========================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.taxonomy import ErrorOutcome
from repro.memory.faults import FaultKind

if TYPE_CHECKING:  # avoid exec <-> apps/core import cycles at runtime
    from repro.apps.base import Workload
    from repro.apps.clients import ClientDriver
    from repro.kernels.planner import InjectionPlan
    from repro.memory.address_space import AddressSpace

__all__ = [
    "GoldenTrace",
    "OUTCOME_BY_CODE",
    "PlanClassification",
    "PruningStats",
    "classify_plan",
    "corrected_byte_mask",
    "record_golden_trace",
]

#: Trial outcome by folded per-flip code (0 never, 1 overwritten,
#: 2 consumed) — the same precedence order as ``classify_outcome``.
OUTCOME_BY_CODE = (
    ErrorOutcome.MASKED_NEVER_ACCESSED,
    ErrorOutcome.MASKED_OVERWRITE,
    ErrorOutcome.MASKED_LOGIC,
)


@dataclass(frozen=True)
class GoldenTrace:
    """Byte-granular footprint of one fault-free golden replay.

    Recorded once per campaign (the query budget is a config constant)
    and shared by every cell: the replay is injection-free, so its
    footprint is a property of the workload trace alone.
    """

    #: Queries replayed (``min(queries_per_trial, query_count)``).
    query_budget: int
    #: Per-byte first access: 0 never, 1 read-first, 2 write-first.
    first_access: np.ndarray
    #: Per-byte whether any read ever touched the byte (uint8 0/1).
    read_seen: np.ndarray
    #: Absolute logical time the replay ended at (every trial starts
    #: from the same snapshot restore, so this is trial-invariant).
    end_time: int
    #: Exact (load_ops, load_bytes, store_ops, store_bytes) deltas of
    #: the replay, in region order.
    per_region: Tuple[Tuple[int, int, int, int], ...]


def record_golden_trace(
    workload: "Workload", driver: "ClientDriver", query_budget: int
) -> GoldenTrace:
    """Replay the fault-free workload once and capture its footprint.

    The replay runs on the oracle path (every access observed), its
    clock/counter effects are rolled back, and the workload is reset
    afterwards — recording is invisible to subsequent trials apart from
    one full (rather than incremental) snapshot restore.
    """
    space = workload.space
    workload.reset()
    was_fast = space.fast_path_enabled
    space.set_fast_path(False)
    space.begin_access_trace()
    try:
        report = driver.run(range(query_budget))
    finally:
        raw = space.end_access_trace()
        space.set_fast_path(was_fast)
    workload.reset()
    if report.failed or report.incorrect:
        raise RuntimeError(
            "golden replay produced failed or incorrect responses; "
            "the access trace cannot stand in for clean execution"
        )
    return GoldenTrace(
        query_budget=query_budget,
        first_access=raw["first_access"],
        read_seen=raw["read_seen"],
        end_time=int(raw["end_time"]),
        per_region=tuple(tuple(entry) for entry in raw["per_region"]),
    )


def corrected_byte_mask(
    space: "AddressSpace", region_names: Iterable[str]
) -> Optional[np.ndarray]:
    """Per-byte mask of regions whose codec corrects single-bit errors.

    ``None`` when no region is protected — the common case, which lets
    :func:`classify_plan` skip the codec branch entirely.
    """
    names = set(region_names)
    if not names:
        return None
    mask = np.zeros(space.size, dtype=bool)
    for region in space.regions:
        if region.name in names:
            mask[region.base : region.end] = True
    return mask


@dataclass(frozen=True)
class PlanClassification:
    """Pre-classification verdict for one cell's injection plan.

    Verdicts stay in arrays: a cell whose every trial is decided is
    consumed run by run (:meth:`runs`), never trial by trial.
    """

    #: Per-trial decidability mask, aligned with the plan's trials.
    decidable: np.ndarray
    #: Per-trial index into :data:`OUTCOME_BY_CODE` (uint8); meaningful
    #: only where ``decidable`` is set.
    codes: np.ndarray

    @property
    def outcomes(self) -> Tuple[Optional[ErrorOutcome], ...]:
        """Per-trial outcome (None for trials that fall through to execution)."""
        return tuple(
            OUTCOME_BY_CODE[code] if decided else None
            for decided, code in zip(self.decidable.tolist(), self.codes.tolist())
        )

    def runs(self) -> List[Tuple[int, int, bool]]:
        """Maximal ``(start, stop, decided)`` runs of local trials, in order."""
        flags = self.decidable
        if flags.size == 0:
            return []
        edges = (np.flatnonzero(flags[1:] != flags[:-1]) + 1).tolist()
        bounds = [0, *edges, int(flags.size)]
        return [
            (start, stop, bool(flags[start]))
            for start, stop in zip(bounds, bounds[1:])
        ]

    @property
    def pruned_count(self) -> int:
        """Trials resolved without execution."""
        return int(np.count_nonzero(self.decidable))

    @property
    def executed_count(self) -> int:
        """Trials that fall through to the execution loop."""
        return int(self.decidable.size - self.pruned_count)


def classify_plan(
    plan: "InjectionPlan",
    trace: GoldenTrace,
    corrected: Optional[np.ndarray] = None,
) -> Optional[PlanClassification]:
    """Vectorized pre-classification of a whole trial batch.

    Applies the module's decidability rules to every planned flip in one
    pass over the plan's flat arrays, then folds per-flip verdicts into
    per-trial ones with ``reduceat`` over the plan's prefix offsets
    (decidability by minimum, outcome code by maximum — the taxonomy
    precedence). Returns ``None`` when the spec's fault kind has no
    analytic model (the campaign counts those trials as *fallback*).
    """
    kind = plan.spec.kind
    if kind not in (FaultKind.SOFT, FaultKind.HARD):
        return None
    trials = len(plan)
    if trials == 0:
        return PlanClassification(
            decidable=np.zeros(0, dtype=bool), codes=np.zeros(0, dtype=np.uint8)
        )
    flip_addrs = plan.flip_addrs
    first = trace.first_access[flip_addrs]
    if kind is FaultKind.SOFT:
        flip_ok = first != 1
    else:
        flip_ok = trace.read_seen[flip_addrs] == 0
    if corrected is not None:
        # Correction applies to single-flip trials only: a multi-bit
        # error in one word exceeds SEC-DED's correction capability, so
        # those trials keep the raw-injection rules.
        counts = np.diff(plan.flip_offsets)
        single_per_flip = np.repeat(counts == 1, counts)
        flip_ok = flip_ok | (corrected[flip_addrs] & single_per_flip)
    # Per-flip outcome code: 0 never accessed, 1 overwritten, 2 consumed
    # (reachable only via corrected flips — uncorrected read-first flips
    # are undecidable and masked out by ``flip_ok``).
    code = np.where(first == 2, 1, np.where(first == 1, 2, 0)).astype(np.uint8)
    starts = plan.flip_offsets[:-1]
    decidable = np.minimum.reduceat(
        flip_ok.astype(np.uint8), starts
    ).astype(bool)
    return PlanClassification(
        decidable=decidable, codes=np.maximum.reduceat(code, starts)
    )


@dataclass
class PruningStats:
    """Running pruned / executed / fallback trial tallies of a campaign.

    ``executed`` counts every trial that ran the workload, including the
    ``fallback`` subset for which no classification was available (an
    unsupported fault kind). Surfaced through
    :meth:`~repro.obs.instruments.CampaignInstruments.record_pruning`.
    """

    pruned: int = 0
    executed: int = 0
    fallback: int = 0

    def add(self, pruned: int = 0, executed: int = 0, fallback: int = 0) -> None:
        """Accumulate one cell's (or one merge's) tallies."""
        self.pruned += int(pruned)
        self.executed += int(executed)
        self.fallback += int(fallback)

    @property
    def pruning_rate(self) -> float:
        """Fraction of all trials resolved analytically."""
        total = self.pruned + self.executed
        return self.pruned / total if total else 0.0

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict view (the shape ``record_pruning`` consumes)."""
        return {
            "pruned": self.pruned,
            "executed": self.executed,
            "fallback": self.fallback,
        }
