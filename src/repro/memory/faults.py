"""Fault records maintained by the simulated address space.

Two fault classes mirror the paper's §II-A distinction:

* **Soft (transient) errors** flip a stored bit once. A subsequent write
  to the byte removes the error (it is *masked by overwrite*, outcome 1
  in Figure 1).
* **Hard (recurring) errors** behave like a stuck DRAM cell: the faulty
  bit is forced to the erroneous value on every load, surviving any
  overwrite. The paper emulated this by re-applying the flip every 30 ms;
  the overlay used here is the limit of that process (see DESIGN.md and
  the ``bench_ablation_hard_fault`` ablation for the comparison).

The address space also *tracks* every fault it installs — soft flips,
stuck-at bytes and codec-corrected virtual faults — for consumption
accounting, so its tracked addresses are the one guarded-address set
the fast path and the fused drivers consult.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class FaultKind(enum.Enum):
    """Transient or recurring memory error."""

    SOFT = "soft"
    HARD = "hard"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class InjectedFault:
    """Record of one injected bit error.

    Attributes:
        addr: Byte address of the fault.
        bit: Bit index within the byte (0 = LSB).
        kind: Soft or hard.
        stuck_value: For hard faults, the value (0/1) the bit is stuck at;
            for soft faults, the value the bit was flipped to at injection.
        injected_at: Logical time of injection.
    """

    addr: int
    bit: int
    kind: FaultKind
    stuck_value: int
    injected_at: int

    def __post_init__(self) -> None:
        if not 0 <= self.bit < 8:
            raise ValueError(f"bit index must be in [0, 8), got {self.bit}")
        if self.stuck_value not in (0, 1):
            raise ValueError(f"stuck_value must be 0 or 1, got {self.stuck_value}")


@dataclass
class HardFaultOverlay:
    """Per-byte stuck-bit masks applied on every load.

    For each faulty byte the overlay stores ``(and_mask, or_mask)`` such
    that the observed value is ``(stored & and_mask) | or_mask``: bits
    stuck at 0 are cleared by ``and_mask``; bits stuck at 1 are set by
    ``or_mask``.
    """

    masks: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    def add_stuck_bit(self, addr: int, bit: int, stuck_value: int) -> None:
        """Force ``bit`` of the byte at ``addr`` to ``stuck_value``."""
        if not 0 <= bit < 8:
            raise ValueError(f"bit index must be in [0, 8), got {bit}")
        and_mask, or_mask = self.masks.get(addr, (0xFF, 0x00))
        bit_mask = 1 << bit
        if stuck_value:
            or_mask |= bit_mask
            and_mask |= bit_mask
        else:
            and_mask &= ~bit_mask
            or_mask &= ~bit_mask
        self.masks[addr] = (and_mask, or_mask)

    def apply(self, addr: int, value: int) -> int:
        """Return the observed value of the byte at ``addr``."""
        masks = self.masks.get(addr)
        if masks is None:
            return value
        and_mask, or_mask = masks
        return (value & and_mask) | or_mask

    def clear(self) -> None:
        """Remove all stuck bits."""
        self.masks.clear()

    def __bool__(self) -> bool:
        return bool(self.masks)

    def __len__(self) -> int:
        return len(self.masks)


@dataclass
class FaultLog:
    """Append-only log of every fault injected into an address space."""

    entries: List[InjectedFault] = field(default_factory=list)

    def record(self, fault: InjectedFault) -> None:
        """Append ``fault`` to the log."""
        self.entries.append(fault)

    def of_kind(self, kind: FaultKind) -> List[InjectedFault]:
        """Return all logged faults of ``kind``."""
        return [fault for fault in self.entries if fault.kind is kind]

    def clear(self) -> None:
        """Empty the log."""
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)
