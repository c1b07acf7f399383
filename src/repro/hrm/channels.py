"""Per-channel heterogeneous provisioning (paper Figure 9).

The paper argues HRM needs no exotic hardware: with one memory
controller per channel, each channel can carry DIMMs of a different
reliability grade ("Minimal changes in today's memory controller can
achieve heterogeneous memory provisioning at the channel granularity").
:class:`ChannelProvisionedMemory` models that: each channel is assigned
a hardware technique, and allocations request a reliability *class*
that is served from a matching channel's address range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.design_space import HardwareTechnique
from repro.dram.geometry import DramGeometry


@dataclass(frozen=True)
class ChannelPlan:
    """Technique (and testing grade) assigned to each channel."""

    techniques: Tuple[HardwareTechnique, ...]
    less_tested: Tuple[bool, ...] = ()

    def __post_init__(self) -> None:
        if not self.techniques:
            raise ValueError("at least one channel is required")
        if self.less_tested and len(self.less_tested) != len(self.techniques):
            raise ValueError("less_tested must match the channel count")

    @property
    def channel_count(self) -> int:
        """Number of channels provisioned."""
        return len(self.techniques)

    def grade(self, channel: int) -> Tuple[HardwareTechnique, bool]:
        """(technique, less_tested) of one channel."""
        tested = self.less_tested[channel] if self.less_tested else False
        return self.techniques[channel], tested


@dataclass
class ChannelAllocation:
    """A reservation of capacity on one channel."""

    channel: int
    technique: HardwareTechnique
    less_tested: bool
    offset: int  # within the channel's capacity
    size: int


class ChannelProvisionedMemory:
    """Capacity manager over heterogeneous channels (Figure 9).

    This is a planning model (who lives on which channel), not a data
    store: the simulated workloads keep their bytes in their
    :class:`~repro.memory.AddressSpace`; this class answers *where those
    regions would physically live* and what protection they get there.
    """

    def __init__(self, geometry: DramGeometry, plan: ChannelPlan) -> None:
        if plan.channel_count != geometry.channels:
            raise ValueError(
                f"plan covers {plan.channel_count} channels but geometry "
                f"has {geometry.channels}"
            )
        self.geometry = geometry
        self.plan = plan
        self._used: List[int] = [0] * geometry.channels
        self.allocations: List[ChannelAllocation] = []

    def channels_with(
        self, technique: HardwareTechnique, less_tested: Optional[bool] = None
    ) -> List[int]:
        """Channels provisioned with ``technique`` (and testing grade)."""
        matches = []
        for channel in range(self.plan.channel_count):
            chan_technique, chan_tested = self.plan.grade(channel)
            if chan_technique is not technique:
                continue
            if less_tested is not None and chan_tested != less_tested:
                continue
            matches.append(channel)
        return matches

    def free_capacity(self, channel: int) -> int:
        """Unreserved bytes on one channel."""
        return self.geometry.channel_size - self._used[channel]

    def allocate(
        self,
        size: int,
        technique: HardwareTechnique,
        less_tested: Optional[bool] = None,
    ) -> ChannelAllocation:
        """Reserve ``size`` bytes on a channel of the requested grade.

        Raises:
            ValueError: if no channel has the grade or enough capacity.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        candidates = self.channels_with(technique, less_tested)
        if not candidates:
            raise ValueError(
                f"no channel provisioned with {technique.value}"
                + (f"/L={less_tested}" if less_tested is not None else "")
            )
        for channel in candidates:
            if self.free_capacity(channel) >= size:
                allocation = ChannelAllocation(
                    channel=channel,
                    technique=technique,
                    less_tested=self.plan.grade(channel)[1],
                    offset=self._used[channel],
                    size=size,
                )
                self._used[channel] += size
                self.allocations.append(allocation)
                return allocation
        raise ValueError(
            f"insufficient capacity on {technique.value} channels for "
            f"{size} bytes"
        )

    def placement_summary(self) -> Dict[int, Dict[str, object]]:
        """Per-channel technique, grade, and utilisation."""
        summary: Dict[int, Dict[str, object]] = {}
        for channel in range(self.plan.channel_count):
            technique, tested = self.plan.grade(channel)
            summary[channel] = {
                "technique": technique.value,
                "less_tested": tested,
                "used_bytes": self._used[channel],
                "capacity_bytes": self.geometry.channel_size,
            }
        return summary


def figure9_plan() -> ChannelPlan:
    """The example of Figure 9: ch0 = ECC, ch1-2 = no-ECC."""
    return ChannelPlan(
        techniques=(
            HardwareTechnique.SEC_DED,
            HardwareTechnique.NONE,
            HardwareTechnique.NONE,
        )
    )
