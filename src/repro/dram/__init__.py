"""DRAM host model: geometry, fault-footprint arrivals, page retirement."""

from repro.dram.fault_models import (
    DEFAULT_MODE_WEIGHTS,
    DramFaultModel,
    FailureMode,
    FaultFootprint,
)
from repro.dram.geometry import CACHE_LINE_SIZE, DramCoordinates, DramGeometry
from repro.dram.retirement import PageRetirementPolicy, RetirementOutcome

__all__ = [
    "DEFAULT_MODE_WEIGHTS",
    "DramFaultModel",
    "FailureMode",
    "FaultFootprint",
    "CACHE_LINE_SIZE",
    "DramCoordinates",
    "DramGeometry",
    "PageRetirementPolicy",
    "RetirementOutcome",
]
