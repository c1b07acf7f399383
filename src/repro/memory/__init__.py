"""Simulated memory substrate: address space, regions, allocator, faults.

This package replaces the native process memory + debugger combination of
the paper with a fully controllable byte-addressable simulation. See
DESIGN.md ("Faithful-substitution statement") for the rationale.
"""

from repro.memory.address_space import (
    AddressSpace,
    MemorySnapshot,
    build_address_space,
)
from repro.memory.allocator import AllocationInfo, HeapAllocator, RegionArena
from repro.memory.errors import (
    AllocationError,
    HeapCorruptionError,
    LayoutError,
    ProtectionFault,
    SegmentationFault,
    SimulatedMemoryError,
    StackOverflowError,
)
from repro.memory.faults import FaultKind, FaultLog, HardFaultOverlay, InjectedFault
from repro.memory.persistence import (
    BackingStore,
    RecoveryStats,
    RegionBacking,
    mmap_region,
)
from repro.memory.regions import (
    PAGE_SIZE,
    MemoryLayout,
    Region,
    RegionKind,
    RegionSpec,
    region_kind_from_string,
    standard_layout,
)
from repro.memory.stack import StackFrame, StackManager

__all__ = [
    "AddressSpace",
    "MemorySnapshot",
    "build_address_space",
    "AllocationInfo",
    "HeapAllocator",
    "RegionArena",
    "AllocationError",
    "HeapCorruptionError",
    "LayoutError",
    "ProtectionFault",
    "SegmentationFault",
    "SimulatedMemoryError",
    "StackOverflowError",
    "FaultKind",
    "FaultLog",
    "HardFaultOverlay",
    "InjectedFault",
    "BackingStore",
    "RecoveryStats",
    "RegionBacking",
    "mmap_region",
    "PAGE_SIZE",
    "MemoryLayout",
    "Region",
    "RegionKind",
    "RegionSpec",
    "region_kind_from_string",
    "standard_layout",
    "StackFrame",
    "StackManager",
]
