"""Datacenter-level availability simulation and tenant provisioning."""

from repro.cluster.availability_sim import (
    AvailabilitySimulator,
    MonthOutcome,
    SimulationSummary,
)
from repro.cluster.tenancy import (
    HostPlan,
    ReliabilityDomainProvisioner,
    Tenant,
    TenantAssignment,
)

__all__ = [
    "HostPlan",
    "ReliabilityDomainProvisioner",
    "Tenant",
    "TenantAssignment",
    "AvailabilitySimulator",
    "MonthOutcome",
    "SimulationSummary",
]
