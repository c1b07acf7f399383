"""HRM partition: physical placement + online error arrivals.

This module is the "hardware half" of the serving layer. It:

* sizes a small host :class:`~repro.dram.geometry.DramGeometry` to fit
  every tenant's regions,
* places each region on a channel whose
  :class:`~repro.core.design_space.HardwareTechnique` matches the
  region's reliability need (Figure 9 channel-granularity HRM):
  stack state on SEC-DED, heap on parity (detect, then respond in
  software), disk-recoverable private data on no-ECC,
* runs the seeded online arrival process — a Poisson number of fault
  footprints per tick drawn from :class:`~repro.dram.fault_models.DramFaultModel`
  (Table 1 soft + stuck-at mix) — and routes each erroneous byte
  through the channel interleave to the owning (tenant, region),
  applying the channel's hardware response (correct / detect / miss),
* owns the host-wide :class:`~repro.dram.retirement.PageRetirementPolicy`
  budget, so page retirement is accounted against *physical* capacity
  shared by all tenants, and discards arrivals on retired frames.

Everything here runs single-threaded in the multiplexer's coordinator
phase; the per-tenant asyncio tasks only ever see the routed results.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.core.design_space import HardwareTechnique
from repro.dram.fault_models import DramFaultModel, FailureMode
from repro.dram.geometry import CACHE_LINE_SIZE, DramGeometry
from repro.dram.retirement import PageRetirementPolicy
from repro.hrm.channels import ChannelPlan, ChannelProvisionedMemory
from repro.memory.faults import FaultKind
from repro.memory.regions import PAGE_SIZE, RegionKind
from repro.serve.policies import FaultEvent
from repro.serve.tenants import ServeTenant
from repro.utils.rng import poisson_variate

__all__ = [
    "DEFAULT_SERVE_PLAN",
    "RoutedFault",
    "ArrivalBatch",
    "ServePartition",
]

#: Channel grades of the default serving host, in channel order. One
#: corrected tier, one detect-only tier driving the Table 2 policies,
#: one bare tier whose errors are silently consumed.
DEFAULT_SERVE_PLAN = (
    HardwareTechnique.SEC_DED,
    HardwareTechnique.PARITY,
    HardwareTechnique.NONE,
)


def _technique_for_region(kind: RegionKind, file_backed: bool) -> HardwareTechnique:
    """Figure 9 placement: protection matched to recoverability.

    Stack state crashes the process when corrupted, so it gets the
    correcting tier. Heap data is migratable/recoverable in software,
    so detection (parity) is enough — Table 2 responses do the rest.
    File-backed data has a golden copy on disk; it rides the cheapest
    tier and recovers on detection by scrub or consumption.
    """
    if file_backed:
        return HardwareTechnique.NONE
    if kind is RegionKind.STACK:
        return HardwareTechnique.SEC_DED
    if kind is RegionKind.HEAP:
        return HardwareTechnique.PARITY
    return HardwareTechnique.NONE


@dataclass
class RoutedFault:
    """One fault footprint's effect on one tenant (ledger granularity)."""

    tenant: str
    mode: str
    kind: FaultKind
    channel: int
    technique: str
    region: str
    injected: int = 0
    corrected: int = 0
    silent: int = 0
    detected: List[FaultEvent] = field(default_factory=list)

    def to_attrs(self) -> dict:
        """Ledger payload for a ``fault`` event."""
        return {
            "mode": self.mode,
            "kind": self.kind.value,
            "channel": self.channel,
            "technique": self.technique,
            "region": self.region,
            "injected": self.injected,
            "corrected": self.corrected,
            "detected": len(self.detected),
            "silent": self.silent,
        }


@dataclass
class ArrivalBatch:
    """Everything one tick's arrival process produced."""

    footprints: int = 0
    routed: List[RoutedFault] = field(default_factory=list)
    unmapped_bytes: int = 0
    retired_bytes: int = 0


class ServePartition:
    """Physical placement and fault routing for a set of tenants."""

    def __init__(
        self,
        tenants: List[ServeTenant],
        plan_techniques: Tuple[HardwareTechnique, ...] = DEFAULT_SERVE_PLAN,
        headroom: float = 1.25,
        retirement_threshold: int = 1,
        max_retired_fraction: float = 0.01,
    ) -> None:
        if not tenants:
            raise ValueError("at least one tenant is required")
        if headroom < 1.0:
            raise ValueError(f"headroom must be >= 1.0, got {headroom}")
        self.tenants = list(tenants)
        self.plan = ChannelPlan(techniques=tuple(plan_techniques))
        self.geometry = self._size_geometry(headroom)
        self.memory = ChannelProvisionedMemory(self.geometry, self.plan)
        self.fault_model = DramFaultModel(geometry=self.geometry)
        self.retirement = PageRetirementPolicy(
            geometry=self.geometry,
            error_threshold=retirement_threshold,
            max_retired_fraction=max_retired_fraction,
        )
        # allocation id -> (tenant, region); mirrors self.memory.allocations.
        self._owners: Dict[int, Tuple[ServeTenant, object]] = {}
        self._place_regions()
        self._build_interval_map()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _demand_per_technique(self) -> Dict[HardwareTechnique, int]:
        demand: Dict[HardwareTechnique, int] = {}
        for tenant in self.tenants:
            for region in tenant.space.layout.regions:
                technique = _technique_for_region(region.kind, region.file_backed)
                demand[technique] = demand.get(technique, 0) + region.size
        return demand

    def _size_geometry(self, headroom: float) -> DramGeometry:
        """Smallest geometry whose per-channel capacity fits the demand.

        A deliberately small host: the arrival process draws uniform
        addresses, so capacity close to the mapped footprint keeps the
        fault hit-rate high enough to exercise policies in short runs.
        """
        demand = self._demand_per_technique()
        channels_per_technique: Dict[HardwareTechnique, int] = {}
        for technique in self.plan.techniques:
            channels_per_technique[technique] = (
                channels_per_technique.get(technique, 0) + 1
            )
        base = DramGeometry(
            channels=len(self.plan.techniques),
            dimms_per_channel=1,
            ranks_per_dimm=1,
            banks_per_rank=4,
            rows_per_bank=1,
            columns_per_row=16,
            bytes_per_column=8,
        )
        per_row_capacity = base.channel_size  # capacity per channel per row
        needed_rows = 1
        for technique, total in demand.items():
            share = channels_per_technique.get(technique)
            if not share:
                raise ValueError(
                    f"no channel provisioned with {technique.value} but "
                    f"{total} bytes of demand require it"
                )
            per_channel = int(total * headroom / share) + 1
            rows = -(-per_channel // per_row_capacity)  # ceil
            needed_rows = max(needed_rows, rows)
        return replace(base, rows_per_bank=needed_rows)

    def _place_regions(self) -> None:
        for tenant in self.tenants:
            for region in tenant.space.layout.regions:
                technique = _technique_for_region(region.kind, region.file_backed)
                allocation = self.memory.allocate(region.size, technique)
                self._owners[id(allocation)] = (tenant, region)
            tenant.attach_retirement(self.retirement, self.host_addr_of(tenant))

    def _build_interval_map(self) -> None:
        """Per channel, ``(starts, ends, routes)`` of its allocations.

        Sorted by channel offset: allocations on a channel are disjoint,
        so one ``bisect`` over the starts finds a byte's owner. A route
        is what routing a byte there needs: the tenant, its ``(tenant,
        region)`` names, the technique's name, whether it detects, whether
        it corrects single bits, and the channel-to-tenant address shift.
        """
        self._channel_maps = [([], [], []) for _ in range(self.geometry.channels)]
        for alloc in sorted(self.memory.allocations, key=lambda a: a.offset):
            tenant, region = self._owners[id(alloc)]
            starts, ends, routes = self._channel_maps[alloc.channel]
            starts.append(alloc.offset)
            ends.append(alloc.offset + alloc.size)
            technique = alloc.technique
            routes.append((
                tenant, (tenant.name, region.name), technique.value,
                technique is not HardwareTechnique.NONE, technique.corrects_single_bit,
                region.base - alloc.offset,
            ))

    def host_addr_of(self, tenant: ServeTenant):
        """Mapping from a tenant address to its host physical address."""

        allocations = [
            (region, allocation)
            for allocation, (owner, region) in (
                (alloc, self._owners[id(alloc)]) for alloc in self.memory.allocations
            )
            if owner is tenant
        ]

        def to_host(addr: int) -> int:
            for region, allocation in allocations:
                if region.contains(addr):
                    channel_addr = allocation.offset + (addr - region.base)
                    line, offset = divmod(channel_addr, CACHE_LINE_SIZE)
                    return (
                        line * self.geometry.channels + allocation.channel
                    ) * CACHE_LINE_SIZE + offset
            raise ValueError(
                f"address 0x{addr:x} not placed for tenant '{tenant.name}'"
            )

        return to_host

    def placement_summary(self) -> Dict[str, object]:
        """Ledger-ready description of the physical layout."""
        placements = []
        for allocation in self.memory.allocations:
            tenant, region = self._owners[id(allocation)]
            placements.append(
                {
                    "tenant": tenant.name,
                    "region": region.name,
                    "channel": allocation.channel,
                    "technique": allocation.technique.value,
                    "offset": allocation.offset,
                    "size": allocation.size,
                }
            )
        return {
            "channels": self.geometry.channels,
            "channel_size": self.geometry.channel_size,
            "techniques": [t.value for t in self.plan.techniques],
            "placements": placements,
        }

    # ------------------------------------------------------------------
    # Arrival process
    # ------------------------------------------------------------------
    def tick_arrivals(self, rng: random.Random, error_rate: float) -> ArrivalBatch:
        """Draw and route one tick's fault arrivals (coordinator phase).

        ``error_rate`` is the expected number of fault *footprints* per
        tick (a footprint may corrupt up to 64 bytes — row/bank faults
        arrive as correlated bursts). Detected-uncorrected bytes become
        :class:`FaultEvent` work items on the routed results; the caller
        queues them into tenant backlogs. Injection happens here,
        single-threaded, in draw order — tenant tasks never inject.
        """
        batch = ArrivalBatch()
        if error_rate <= 0:
            return batch
        count = poisson_variate(rng, error_rate)
        channels, maps = self.geometry.channels, self._channel_maps
        # Retirement grows only in the policy phase, never while a
        # tick's arrivals are routed.
        retired_pages = self.retirement.retired_pages
        retired = unmapped = 0
        batch.footprints = count
        for footprint in self.fault_model.draw_batch(rng, count):
            kind = footprint.kind
            # SEC-DED absorbs single-bit bytes on correcting channels;
            # everything else reaches software.
            correctable = footprint.mode is FailureMode.SINGLE_BIT
            routed_by_owner: Dict[Tuple[str, str], RoutedFault] = {}
            # Per byte, in draw order (fault application and FaultEvent
            # emission follow it exactly). At the field mix a footprint
            # is ~10 bytes (60 % single bits, 15 % 2-4 byte words), so a
            # bisect a byte costs less than any per-footprint array pass.
            for addr, bit in zip(footprint.addresses, footprint.bits):
                if addr // PAGE_SIZE in retired_pages:
                    retired += 1
                    continue
                line = addr // CACHE_LINE_SIZE
                channel = line % channels
                channel_addr = line // channels * CACHE_LINE_SIZE + addr % CACHE_LINE_SIZE
                starts, ends, routes = maps[channel]
                slot = bisect_right(starts, channel_addr) - 1
                if slot < 0 or channel_addr >= ends[slot]:
                    unmapped += 1
                    continue
                tenant, owner, technique, detects, corrects, shift = routes[slot]
                if owner in routed_by_owner:
                    routed = routed_by_owner[owner]
                else:
                    routed = RoutedFault(
                        tenant=owner[0],
                        mode=footprint.mode.value,
                        kind=kind,
                        channel=channel,
                        technique=technique,
                        region=owner[1],
                    )
                    routed_by_owner[owner] = routed
                if correctable and corrects:
                    # Corrected in hardware; software never sees it.
                    routed.corrected += 1
                    continue
                tenant_addr = channel_addr + shift
                tenant.apply_fault(tenant_addr, bit, kind)
                routed.injected += 1
                if detects:
                    routed.detected.append(
                        FaultEvent(
                            addr=tenant_addr,
                            bit=bit,
                            kind=kind,
                            mode=routed.mode,
                            channel=channel,
                            technique=technique,
                            region=owner[1],
                            detected=True,
                        )
                    )
                else:
                    routed.silent += 1
            # Canonical order: tenant name then region name, so the
            # ledger sequence is independent of dict insertion quirks.
            if routed_by_owner:
                batch.routed.extend(routed_by_owner[owner] for owner in sorted(routed_by_owner))
        batch.retired_bytes, batch.unmapped_bytes = retired, unmapped
        return batch
