"""Admission control: shed load while error-response work piles up.

Each tenant has a backlog of detected-but-unhandled faults (software
responses are budgeted per tick, so a burst of correlated errors — a
row or bank fault — queues up). While the backlog is deep, accepting
new requests only converts them into failures; the controller instead
sheds them at the door, which the ledger records honestly as ``shed``
dispositions counting against availability.

The controller is a per-tenant hysteresis loop: shedding starts when
the backlog crosses :data:`HIGH_WATER` and stops only once it drains to
:data:`LOW_WATER`, avoiding open/close flapping at the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AdmissionController", "AdmissionDecision"]

#: Backlog depth that starts load shedding.
HIGH_WATER = 8

#: Backlog depth that stops it.
LOW_WATER = 2


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one per-tick admission check."""

    accept: bool
    changed: bool  # the open/shedding state flipped this tick
    backlog: int


class AdmissionController:
    """Hysteresis gate over one tenant's error-response backlog."""

    def __init__(self) -> None:
        self._shedding = False

    @property
    def shedding(self) -> bool:
        """Whether the gate is currently refusing requests."""
        return self._shedding

    def check(self, backlog: int) -> AdmissionDecision:
        """Decide whether to admit this tick's requests."""
        changed = False
        if self._shedding:
            if backlog <= LOW_WATER:
                self._shedding = False
                changed = True
        elif backlog >= HIGH_WATER:
            self._shedding = True
            changed = True
        return AdmissionDecision(
            accept=not self._shedding, changed=changed, backlog=backlog
        )
