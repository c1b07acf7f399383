"""Table 2 software error responses as pluggable runtime policies.

The paper's Table 2 lists four software responses to a detected memory
error, ordered by cost: consume the error (tolerate), restart the
affected rank's workload, retire the faulty page, or recover the clean
bytes from disk. Here each response is a strategy object: the serving
multiplexer detects a fault (hardware detection being decided by the
channel's :class:`~repro.core.design_space.HardwareTechnique`), picks a
policy for the afflicted region, and calls :meth:`ErrorResponsePolicy.respond`.

Policies hold *no* tenant state — they call narrow mechanics on the
tenant (``restart``, ``retire_page``, ``recover_from_disk``) and report
what happened in a :class:`ResponseResult`. That separation is what the
property suite exploits: a scalar fake tenant stands in for the real
one and the accounting is checked against a hand-rolled oracle.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.memory.faults import FaultKind
from repro.memory.regions import Region, RegionKind

__all__ = [
    "ACTION_CONSUME",
    "ACTION_RESTART",
    "ACTION_RETIRE",
    "ACTION_RECOVER",
    "POLICY_NAMES",
    "FaultEvent",
    "ResponseResult",
    "ErrorResponsePolicy",
    "ConsumePolicy",
    "RestartRankPolicy",
    "RetirePagePolicy",
    "RecoverFromDiskPolicy",
    "make_policy",
    "default_policy_name_for_region",
]

ACTION_CONSUME = "consume"
ACTION_RESTART = "restart-rank"
ACTION_RETIRE = "retire-page"
ACTION_RECOVER = "recover-from-disk"

#: CLI-facing policy names, in escalation-cost order (Table 2).
POLICY_NAMES = (ACTION_CONSUME, ACTION_RESTART, ACTION_RETIRE, ACTION_RECOVER)

#: Downtime charged by a restart response.
RESTART_DOWNTIME_TICKS = 3


@dataclass(frozen=True)
class FaultEvent:
    """One error arrival routed to a tenant, as seen by software.

    Attributes:
        addr: Byte address inside the tenant's address space.
        bit: Affected bit position (0-7).
        kind: Hard (stuck-at) or soft (one-shot flip).
        mode: Failure-mode name from the DRAM fault model.
        channel: Physical channel the byte lives on.
        technique: Hardware technique protecting that channel (value
            string of :class:`~repro.core.design_space.HardwareTechnique`).
        region: Name of the afflicted region.
        detected: Whether the hardware technique *detected* the error
            (corrected errors never reach software; undetected ones are
            silently consumed regardless of policy).
    """

    addr: int
    bit: int
    kind: FaultKind
    mode: str
    channel: int
    technique: str
    region: str
    detected: bool


@dataclass
class ResponseResult:
    """What a policy did about one detected fault."""

    action: str
    pages_retired: List[int] = field(default_factory=list)
    faults_cleared: int = 0
    pages_recovered: int = 0
    downtime_ticks: int = 0
    escalated_from: Optional[str] = None
    note: str = ""

    def to_attrs(self) -> dict:
        """Ledger-ready payload (stable keys, JSON-serializable)."""
        attrs: Dict[str, object] = {"action": self.action}
        if self.pages_retired:
            attrs["pages_retired"] = list(self.pages_retired)
        if self.faults_cleared:
            attrs["faults_cleared"] = self.faults_cleared
        if self.pages_recovered:
            attrs["pages_recovered"] = self.pages_recovered
        if self.downtime_ticks:
            attrs["downtime_ticks"] = self.downtime_ticks
        if self.escalated_from:
            attrs["escalated_from"] = self.escalated_from
        if self.note:
            attrs["note"] = self.note
        return attrs


class ErrorResponsePolicy(abc.ABC):
    """A Table 2 software response, applied to one detected fault."""

    #: CLI/ledger name of the policy (one of ``POLICY_NAMES``).
    name: str = ""

    @abc.abstractmethod
    def respond(self, tenant, fault: FaultEvent) -> ResponseResult:
        """Apply the response; returns what was done for the ledger."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class ConsumePolicy(ErrorResponsePolicy):
    """Tolerate the error: no repair, the corruption stays resident.

    The cheapest response — correct for data whose consumers tolerate
    single-bit noise (the paper's tolerable regions) and the only option
    when nothing better is available.
    """

    name = ACTION_CONSUME

    def respond(self, tenant, fault: FaultEvent) -> ResponseResult:
        return ResponseResult(action=ACTION_CONSUME)


class RestartRankPolicy(ErrorResponsePolicy):
    """Restart the tenant from its checkpoint (Table 2 "restart").

    Models mapping out and restarting the affected rank's workload: the
    tenant reloads pristine state, every resident fault in its footprint
    is repaired (the rank is remapped to healthy cells), and the tenant
    is unavailable for ``downtime_ticks`` ticks of virtual time.
    """

    def __init__(self, downtime_ticks: int = RESTART_DOWNTIME_TICKS) -> None:
        if downtime_ticks < 1:
            raise ValueError(f"downtime_ticks must be >= 1, got {downtime_ticks}")
        self.downtime_ticks = downtime_ticks

    name = ACTION_RESTART

    def respond(self, tenant, fault: FaultEvent) -> ResponseResult:
        cleared = tenant.restart(self.downtime_ticks)
        return ResponseResult(
            action=ACTION_RESTART,
            faults_cleared=cleared,
            downtime_ticks=self.downtime_ticks,
        )


class RetirePagePolicy(ErrorResponsePolicy):
    """Retire the faulty page and migrate its data (Table 2 "retire").

    Counts errors per physical page through the shared
    :class:`~repro.dram.retirement.PageRetirementPolicy` budget; once a
    page crosses the threshold the tenant migrates the page's bytes to
    a healthy frame (restoring pristine contents for the stuck bytes)
    and the physical page stops producing errors. When the capacity
    budget is exhausted the policy escalates to ``escalation``
    (restart by default) — retirement can no longer help.
    """

    def __init__(self, escalation: Optional[ErrorResponsePolicy] = None) -> None:
        self.escalation = escalation if escalation is not None else RestartRankPolicy()

    name = ACTION_RETIRE

    def respond(self, tenant, fault: FaultEvent) -> ResponseResult:
        outcome = tenant.retire_page(fault.addr)
        if outcome.get("budget_exhausted"):
            result = self.escalation.respond(tenant, fault)
            result.escalated_from = ACTION_RETIRE
            result.note = "retirement budget exhausted"
            return result
        return ResponseResult(
            action=ACTION_RETIRE,
            pages_retired=list(outcome.get("pages_retired", [])),
            faults_cleared=int(outcome.get("faults_cleared", 0)),
        )


class RecoverFromDiskPolicy(ErrorResponsePolicy):
    """Re-read the afflicted page from its backing file (Table 2).

    Valid only for regions with a persistent clean copy — file-mapped
    read-only data (implicit recoverability) or Par+R writable backings.
    Regions without a backing escalate to ``fallback`` (retire-page by
    default), mirroring an OS that discovers the page is anonymous.
    """

    def __init__(self, fallback: Optional[ErrorResponsePolicy] = None) -> None:
        self.fallback = fallback if fallback is not None else RetirePagePolicy()

    name = ACTION_RECOVER

    def respond(self, tenant, fault: FaultEvent) -> ResponseResult:
        recovery = tenant.recover_from_disk(fault.addr)
        if recovery is None:
            result = self.fallback.respond(tenant, fault)
            result.escalated_from = ACTION_RECOVER
            result.note = f"region '{fault.region}' has no disk backing"
            return result
        return ResponseResult(
            action=ACTION_RECOVER,
            pages_recovered=int(recovery.get("pages_recovered", 0)),
            faults_cleared=int(recovery.get("faults_cleared", 0)),
        )


_POLICY_FACTORIES: Dict[str, Callable[[], ErrorResponsePolicy]] = {
    ACTION_CONSUME: ConsumePolicy,
    ACTION_RESTART: RestartRankPolicy,
    ACTION_RETIRE: RetirePagePolicy,
    ACTION_RECOVER: RecoverFromDiskPolicy,
}


def make_policy(name: str) -> ErrorResponsePolicy:
    """Instantiate a policy by its CLI name.

    Raises:
        ValueError: for an unknown policy name.
    """
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy '{name}' (choose from {', '.join(POLICY_NAMES)})"
        ) from None
    return factory()


def default_policy_name_for_region(region: Region) -> str:
    """Policy chosen by a region's recoverability class (paper §III-C).

    File-backed regions have a clean copy on disk, so recovery is free
    and exact. Heap pages are anonymous but their data is migratable, so
    retirement (escalating to restart when the budget runs out) is the
    best response. Stack contents are short-lived scratch state — the
    cheapest correct response is to consume and let the next frame
    overwrite the damage.
    """
    if region.file_backed:
        return ACTION_RECOVER
    if region.kind is RegionKind.STACK:
        return ACTION_CONSUME
    return ACTION_RETIRE
