"""Memory-error outcome taxonomy (paper §III-A, Figure 1).

A memory error is either **masked by an overwrite** (1) or **consumed**
by the application; a consumed error is **masked by logic** (2.1),
causes an **incorrect response** (2.2), or **crashes** the application
or system (2.3). The taxonomy is mutually exclusive and exhaustive.

One refinement over the paper's figure: errors that were *never
accessed* during the observation window are tracked separately from
errors masked by an overwrite. Both are outcome (1)-equivalent (the
error was never consumed), but distinguishing them lets the safe-ratio
analysis cross-validate the masking mechanism.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # avoid a core <-> apps import cycle at runtime
    from repro.apps.clients import ClientReport


class ErrorOutcome(enum.Enum):
    """Fate of one injected memory error."""

    MASKED_OVERWRITE = "masked_overwrite"  # overwritten before any read
    MASKED_NEVER_ACCESSED = "masked_never_accessed"  # never referenced
    MASKED_LOGIC = "masked_logic"  # consumed, yet output correct
    INCORRECT = "incorrect"  # consumed, wrong/failed responses
    CRASH = "crash"  # application/system crash

    @property
    def is_masked(self) -> bool:
        """Outcome (1) or (2.1): the application tolerated the error."""
        return self in (
            ErrorOutcome.MASKED_OVERWRITE,
            ErrorOutcome.MASKED_NEVER_ACCESSED,
            ErrorOutcome.MASKED_LOGIC,
        )

    @property
    def is_vulnerable(self) -> bool:
        """Outcome (2.2) or (2.3): the error harmed the application."""
        return not self.is_masked

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def classify_outcome(
    report: ClientReport,
    consumed: bool,
    overwritten: bool,
) -> ErrorOutcome:
    """Map a client session + fault-consumption facts to an outcome.

    Args:
        report: The client's view of the session after injection;
            whether it crashed is the paper's ≥50 % rule
            (:meth:`~repro.apps.clients.ClientReport.crashed`).
        consumed: Whether any faulty byte was read before being
            overwritten (from
            :meth:`~repro.memory.AddressSpace.fault_consumption`).
        overwritten: Whether the faulty byte(s) were overwritten.
    """
    if report.crashed():
        return ErrorOutcome.CRASH
    if report.incorrect or report.failed:
        # Failed requests short of the crash threshold are visible to the
        # client as wrong behaviour: outcome 2.2.
        return ErrorOutcome.INCORRECT
    if consumed:
        return ErrorOutcome.MASKED_LOGIC
    if overwritten:
        return ErrorOutcome.MASKED_OVERWRITE
    return ErrorOutcome.MASKED_NEVER_ACCESSED


def validate_taxonomy(outcomes: Iterable[ErrorOutcome]) -> dict:
    """Count outcomes and assert the taxonomy partitions them.

    Returns a {outcome: count} dict covering every member (0 default) —
    convenient for reporting and for the exhaustiveness property test.
    """
    counts = {outcome: 0 for outcome in ErrorOutcome}
    for outcome in outcomes:
        if outcome not in counts:
            raise ValueError(f"unknown outcome {outcome!r}")
        counts[outcome] += 1
    return counts
