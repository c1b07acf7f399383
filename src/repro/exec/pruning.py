"""Trial pruning: vectorized pre-classification against the access trace.

The paper's central finding is that most memory errors are *masked* —
they land in bytes the application never reads, or reads only after
overwriting them. The characterization campaign nevertheless executes
the full client workload for every such trial. This module resolves
those trials analytically instead: the campaign's one
:class:`~repro.memory.trace.AccessTrace` (a fault-free replay of the
query budget, recorded on the production access path) carries the
byte-granular footprint — per-byte first-access direction, read-ever
set, exact clock/counter deltas — and a vectorized pre-classifier
decides whole :class:`~repro.kernels.planner.InjectionPlan` batches at
once. Only trials whose flips intersect live-read vulnerable data fall
through to execution, and the same trace then serves the clean queries
of those trials unexecuted
(:meth:`~repro.apps.clients.ClientDriver.run_fused`);
:class:`PruningStats` counts both levels.

Decidability rules
------------------
All rules are stated against the scalar-oracle access semantics (the
fast path is bit-identical by the established equivalence suite). Every
trial resets the workload to the same pristine checkpoint and injects
*before* the query run, so the access trace's per-byte classification
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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.taxonomy import ErrorOutcome
from repro.memory.faults import FaultKind
from repro.memory.trace import DECISIONS, AccessTrace

if TYPE_CHECKING:  # avoid exec <-> kernels import cycles at runtime
    from repro.kernels.planner import InjectionPlan
    from repro.memory.address_space import AddressSpace

__all__ = [
    "OUTCOME_BY_CODE",
    "PlanClassification",
    "PruningStats",
    "classify_plan",
    "corrected_byte_mask",
]

#: Trial outcome by folded per-flip code (0 never, 1 overwritten,
#: 2 consumed) — the same precedence order as ``classify_outcome``.
OUTCOME_BY_CODE = (
    ErrorOutcome.MASKED_NEVER_ACCESSED,
    ErrorOutcome.MASKED_OVERWRITE,
    ErrorOutcome.MASKED_LOGIC,
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
    trace: AccessTrace,
    corrected: Optional[np.ndarray] = None,
) -> PlanClassification:
    """Vectorized pre-classification of a whole trial batch.

    Applies the module's decidability rules to every planned flip in one
    pass over the plan's flat arrays, then folds per-flip verdicts into
    per-trial ones with ``reduceat`` over the plan's prefix offsets
    (decidability by minimum, outcome code by maximum — the taxonomy
    precedence). Every fault kind has a rule, so every plan is classified.
    """
    trials = len(plan)
    if trials == 0:
        return PlanClassification(
            decidable=np.zeros(0, dtype=bool), codes=np.zeros(0, dtype=np.uint8)
        )
    flip_addrs = plan.flip_addrs
    first = trace.first_access[flip_addrs]
    if plan.spec.kind is FaultKind.SOFT:
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
    """Running trial- and query-level tallies of a pruned campaign.

    Trials: ``executed`` counts every trial that ran the workload.
    ``fallback`` (trials run because no rule classified them) stays in
    the tally for its readers and is always 0: every fault kind has a
    rule. Queries of executed trials:
    ``decisions`` says how each was served, in the serve plane's
    :data:`~repro.memory.trace.DECISIONS` vocabulary — ``fused`` +
    ``live`` = executed trials x query budget, ``fatal_tail`` of them
    never issued behind a fatal query. Surfaced through
    :meth:`~repro.obs.instruments.CampaignInstruments.record_pruning`;
    never part of a profile.
    """

    pruned: int = 0
    executed: int = 0
    fallback: int = 0
    decisions: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(DECISIONS, 0)
    )

    def add(
        self, pruned: int = 0, executed: int = 0, fallback: int = 0, **decisions: int
    ) -> None:
        """Accumulate one cell's (or one merge's) tallies."""
        self.pruned += int(pruned)
        self.executed += int(executed)
        self.fallback += int(fallback)
        for decision, count in decisions.items():
            self.decisions[decision] += int(count)

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
            **self.decisions,
        }
