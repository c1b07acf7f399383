"""Multi-tenant reliability domains (paper §VI-C).

The paper suggests that "infrastructure service providers, such as
Amazon EC2 and Windows Azure, could provide different reliability
domains for users to configure their virtual machines with depending on
the amount of availability they desire (e.g., 99.90% versus 99.00%)".
This module makes that concrete: a host's memory is shared by tenants,
each bringing its own measured vulnerability profile and availability
SLA; the provisioner picks, per tenant, the cheapest per-region policy
assignment that meets that tenant's SLA (VM-granularity heterogeneity,
with region-granularity heterogeneity *inside* each tenant), and
compares against the uniform host that must satisfy the strictest SLA
for everyone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.availability import AvailabilityParams, ErrorRateModel
from repro.core.cost_model import CostModel
from repro.core.design_space import RegionPolicy, bind_recoverable_fraction
from repro.core.mapping import DesignEvaluator, DesignMetrics, HRMDesign
from repro.core.optimizer import DEFAULT_CANDIDATES
from repro.core.vulnerability import VulnerabilityProfile
from repro.explore import explore
from repro.utils.validation import check_fraction, check_positive


@dataclass(frozen=True)
class Tenant:
    """One VM/tenant on the host."""

    name: str
    profile: VulnerabilityProfile
    memory_share: float
    availability_target: float
    recoverable_fractions: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        check_fraction("memory_share", self.memory_share)
        check_positive("memory_share", self.memory_share)
        check_fraction("availability_target", self.availability_target)


@dataclass
class TenantAssignment:
    """Chosen design + evaluated metrics for one tenant."""

    tenant: Tenant
    metrics: DesignMetrics

    @property
    def meets_sla(self) -> bool:
        """Whether the chosen design meets the tenant's target."""
        return self.metrics.availability >= self.tenant.availability_target


@dataclass
class HostPlan:
    """A provisioning outcome for the whole host."""

    assignments: List[TenantAssignment] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        """All tenants meet their SLAs."""
        return all(assignment.meets_sla for assignment in self.assignments)

    @property
    def memory_cost_savings(self) -> float:
        """Share-weighted memory savings across tenants."""
        total_share = sum(a.tenant.memory_share for a in self.assignments)
        if total_share == 0:
            return 0.0
        weighted = sum(
            a.tenant.memory_share * a.metrics.memory_cost_savings
            for a in self.assignments
        )
        return weighted / total_share

    def describe(self) -> Dict[str, str]:
        """Tenant -> design label."""
        return {
            a.tenant.name: a.metrics.design.name for a in self.assignments
        }


class ReliabilityDomainProvisioner:
    """Assigns per-tenant reliability domains on one host."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        error_model: Optional[ErrorRateModel] = None,
        availability_params: Optional[AvailabilityParams] = None,
        candidates: Sequence[RegionPolicy] = DEFAULT_CANDIDATES,
        error_label: str = "single-bit hard",
    ) -> None:
        self.cost_model = cost_model or CostModel()
        self.error_model = error_model or ErrorRateModel()
        self.availability_params = availability_params or AvailabilityParams()
        self.candidates = tuple(candidates)
        self.error_label = error_label

    def _evaluator(self, tenant: Tenant) -> DesignEvaluator:
        # Errors arrive over the whole host; a tenant occupying a share
        # of memory absorbs that share of arrivals.
        scaled = ErrorRateModel(
            errors_per_server_month=(
                self.error_model.errors_per_server_month * tenant.memory_share
            ),
            less_tested_multiplier=self.error_model.less_tested_multiplier,
        )
        return DesignEvaluator(
            tenant.profile,
            cost_model=self.cost_model,
            error_model=scaled,
            availability_params=self.availability_params,
            error_label=self.error_label,
        )

    def provision(self, tenants: Sequence[Tenant]) -> HostPlan:
        """Per-tenant optimization: each gets its cheapest SLA-meeting design."""
        plan = HostPlan()
        for tenant in tenants:
            evaluator = self._evaluator(tenant)
            result = explore(
                tenant.profile,
                availability_target=tenant.availability_target,
                recoverable_fractions=tenant.recoverable_fractions,
                candidates=self.candidates,
                # The tenant's evaluator carries the share-scaled error
                # model; the search must plan with the same models.
                cost_model=evaluator.cost_model,
                error_model=evaluator.error_model,
                availability_params=evaluator.availability_params,
                error_label=evaluator.error_label,
                top_k=1,
            )
            if not result.found:
                # Fall back to the most reliable candidate design.
                strongest = HRMDesign(
                    name="fallback:all-" + self.candidates[-1].describe(),
                    policies={
                        region: self.candidates[-1]
                        for region in tenant.profile.regions()
                    },
                )
                plan.assignments.append(
                    TenantAssignment(tenant, evaluator.evaluate(strongest))
                )
                continue
            plan.assignments.append(TenantAssignment(tenant, result.best))
        return plan

    def provision_uniform(self, tenants: Sequence[Tenant]) -> HostPlan:
        """Baseline: one policy for the whole host, strictest SLA wins."""
        best_plan: Optional[HostPlan] = None
        for policy in self.candidates:
            plan = HostPlan()
            for tenant in tenants:
                evaluator = self._evaluator(tenant)
                design = HRMDesign(
                    name=f"uniform:{policy.describe()}",
                    policies={
                        region: bind_recoverable_fraction(
                            policy, region, tenant.recoverable_fractions
                        )
                        for region in tenant.profile.regions()
                    },
                )
                plan.assignments.append(
                    TenantAssignment(tenant, evaluator.evaluate(design))
                )
            if not plan.feasible:
                continue
            if (
                best_plan is None
                or plan.memory_cost_savings > best_plan.memory_cost_savings
            ):
                best_plan = plan
        if best_plan is None:
            # No uniform policy satisfies everyone: report the strongest.
            strongest = self.candidates[-1]
            best_plan = HostPlan()
            for tenant in tenants:
                evaluator = self._evaluator(tenant)
                design = HRMDesign(
                    name=f"uniform:{strongest.describe()}",
                    policies={
                        region: strongest for region in tenant.profile.regions()
                    },
                )
                best_plan.assignments.append(
                    TenantAssignment(tenant, evaluator.evaluate(design))
                )
        return best_plan
