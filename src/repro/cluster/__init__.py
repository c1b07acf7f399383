"""Datacenter-level cost and availability modeling."""

from repro.cluster.availability_sim import (
    AvailabilitySimulator,
    MonthOutcome,
    SimulationSummary,
)
from repro.cluster.server import ServerConfig, server_cost_with_design
from repro.cluster.tco import TcoBreakdown, TcoModel, TcoParams
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
    "ServerConfig",
    "server_cost_with_design",
    "TcoBreakdown",
    "TcoModel",
    "TcoParams",
]
