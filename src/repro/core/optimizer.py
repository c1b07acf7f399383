"""Design-space search and tolerable-error-rate analysis.

Two capabilities on top of the evaluator:

* :func:`tolerable_errors_per_month` — Figure 8's quantity: the maximum
  monthly error rate an *unprotected* application can absorb while still
  meeting a single-server-availability target;
* :class:`MappingOptimizer` — enumerates per-region policy assignments
  and returns the cheapest design meeting an availability target (and
  optionally an incorrectness budget), realizing the paper's "choose the
  design that best suits our needs" step (Figure 7).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.availability import AvailabilityParams, crashes_from_availability
from repro.core.design_space import (
    HardwareTechnique,
    RegionPolicy,
    SoftwareResponse,
)
from repro.core.mapping import DesignEvaluator, DesignMetrics, HRMDesign
from repro.core.vulnerability import VulnerabilityProfile
from repro.utils.validation import check_fraction

#: Search execution strategies accepted by :class:`MappingOptimizer`.
#: ``auto`` is ``vectorized`` — safe because the two backends are
#: bit-identical (the batch engine replicates the scalar evaluator's
#: floating-point operation order; see :mod:`repro.explore`).
SEARCH_BACKENDS = ("auto", "scalar", "vectorized")


#: Policy candidates enumerated per region by the optimizer: the
#: techniques of Table 6 plus their less-tested variants.
DEFAULT_CANDIDATES: Tuple[RegionPolicy, ...] = (
    RegionPolicy(technique=HardwareTechnique.NONE),
    RegionPolicy(technique=HardwareTechnique.NONE, less_tested=True),
    RegionPolicy(
        technique=HardwareTechnique.PARITY, response=SoftwareResponse.RECOVER
    ),
    RegionPolicy(
        technique=HardwareTechnique.PARITY,
        response=SoftwareResponse.RECOVER,
        less_tested=True,
    ),
    RegionPolicy(technique=HardwareTechnique.SEC_DED),
    RegionPolicy(technique=HardwareTechnique.SEC_DED, less_tested=True),
    RegionPolicy(technique=HardwareTechnique.CHIPKILL),
    RegionPolicy(technique=HardwareTechnique.DEC_TED),
)


def tolerable_errors_per_month(
    profile: VulnerabilityProfile,
    availability_target: float,
    error_label: str = "single-bit soft",
    params: AvailabilityParams = AvailabilityParams(),
) -> float:
    """Figure 8: max unprotected error rate meeting an availability target.

    With no detection/correction, ``crashes = E · P(crash | error)``;
    the target bounds crashes, so ``E_max = crash_budget / P(crash)``.
    Applications whose measured crash probability is zero report
    ``float('inf')`` (no observed bound).
    """
    check_fraction("availability_target", availability_target)
    crash_budget = crashes_from_availability(availability_target, params)
    crash_probability = profile.crash_probability_per_error(error_label)
    if crash_probability <= 0.0:
        return float("inf")
    return crash_budget / crash_probability


@dataclass
class OptimizationResult:
    """Outcome of a design-space search."""

    best: Optional[DesignMetrics]
    feasible: List[DesignMetrics]
    evaluated: int

    @property
    def found(self) -> bool:
        """Whether any design met the constraints."""
        return self.best is not None


class MappingOptimizer:
    """Exact per-region policy search (candidates^regions designs).

    The search is exhaustive and exact — the same exploration the paper
    describes doing by hand in §VI-B, generalized. Two execution
    backends produce byte-identical results: ``scalar`` evaluates one
    design at a time through :class:`DesignEvaluator`, while
    ``vectorized`` precomputes a per-(region, candidate) contribution
    matrix and evaluates whole id ranges with NumPy (see
    :mod:`repro.explore`), which is what keeps rich candidate sets and
    6+ regions interactive. For top-k-only searches over huge spaces,
    use :func:`repro.explore.explore` (branch-and-bound backend).
    """

    def __init__(
        self,
        evaluator: DesignEvaluator,
        candidates: Sequence[RegionPolicy] = DEFAULT_CANDIDATES,
        recoverable_fractions: Optional[Dict[str, float]] = None,
        backend: str = "auto",
    ) -> None:
        if not candidates:
            raise ValueError("candidate policy list must be non-empty")
        if backend not in SEARCH_BACKENDS:
            raise ValueError(
                f"unknown backend '{backend}'; expected one of {SEARCH_BACKENDS}"
            )
        self.evaluator = evaluator
        self.candidates = tuple(candidates)
        self.recoverable_fractions = dict(recoverable_fractions or {})
        self.backend = backend

    def resolved_backend(self) -> str:
        """The backend that will actually run (``auto`` resolved)."""
        return "vectorized" if self.backend == "auto" else self.backend

    def contribution_matrix(self, regions: Optional[Sequence[str]] = None):
        """Per-(region, candidate) contribution matrix for this search.

        Candidates are specialized per region (recoverable fractions
        bound into RECOVER policies) exactly as the scalar loop does.
        """
        from repro.explore.matrix import ContributionMatrix

        if regions is None:
            regions = sorted(self.evaluator.region_sizes)
        specialized = [
            tuple(self._specialize(region, policy) for policy in self.candidates)
            for region in regions
        ]
        return ContributionMatrix.build(self.evaluator, list(regions), specialized)

    def _specialize(self, region: str, policy: RegionPolicy) -> RegionPolicy:
        """Bind region-specific recoverability into a RECOVER policy."""
        if policy.response is not SoftwareResponse.RECOVER:
            return policy
        fraction = self.recoverable_fractions.get(region)
        if fraction is None:
            return policy
        return RegionPolicy(
            technique=policy.technique,
            response=policy.response,
            less_tested=policy.less_tested,
            recoverable_fraction=fraction,
        )

    def search(
        self,
        availability_target: float,
        max_incorrect_per_million: Optional[float] = None,
        regions: Optional[Sequence[str]] = None,
    ) -> OptimizationResult:
        """Find the design with maximum server-cost savings that meets
        the availability target (and incorrectness budget, if given)."""
        check_fraction("availability_target", availability_target)
        if regions is None:
            regions = sorted(self.evaluator.region_sizes)
        if self.resolved_backend() == "vectorized":
            feasible, evaluated = self._search_vectorized(
                availability_target, max_incorrect_per_million, regions
            )
        else:
            feasible, evaluated = self._search_scalar(
                availability_target, max_incorrect_per_million, regions
            )
        feasible.sort(
            key=lambda metrics: (
                -metrics.server_cost_savings,
                -metrics.availability,
                metrics.design.name,
            )
        )
        return OptimizationResult(
            best=feasible[0] if feasible else None,
            feasible=feasible,
            evaluated=evaluated,
        )

    def _search_scalar(
        self,
        availability_target: float,
        max_incorrect_per_million: Optional[float],
        regions: Sequence[str],
    ) -> Tuple[List[DesignMetrics], int]:
        feasible: List[DesignMetrics] = []
        evaluated = 0
        for assignment in itertools.product(self.candidates, repeat=len(regions)):
            policies = {
                region: self._specialize(region, policy)
                for region, policy in zip(regions, assignment)
            }
            design = HRMDesign(
                name="+".join(p.describe() for p in policies.values()),
                policies=policies,
            )
            metrics = self.evaluator.evaluate(design)
            evaluated += 1
            if metrics.availability < availability_target:
                continue
            if (
                max_incorrect_per_million is not None
                and metrics.incorrect_per_million_queries > max_incorrect_per_million
            ):
                continue
            feasible.append(metrics)
        return feasible, evaluated

    def _search_vectorized(
        self,
        availability_target: float,
        max_incorrect_per_million: Optional[float],
        regions: Sequence[str],
    ) -> Tuple[List[DesignMetrics], int]:
        from repro.explore.batch import BatchDesignSpaceEvaluator

        matrix = self.contribution_matrix(regions)
        batch = BatchDesignSpaceEvaluator(matrix)
        ids, evaluated = batch.feasible_ids(
            availability_target, max_incorrect_per_million
        )
        feasible = [matrix.metrics_at(digits) for digits in batch.digits(ids)]
        return feasible, evaluated

    def pareto_front(
        self, regions: Optional[Sequence[str]] = None
    ) -> List[DesignMetrics]:
        """Designs not dominated in (cost savings, availability).

        Useful for plotting the cost/reliability trade-off curve. Both
        backends use the O(n log n) sort-based sweep of
        :mod:`repro.explore.pareto` (golden-tested against the old
        quadratic dominance scan, including output order).
        """
        if regions is None:
            regions = sorted(self.evaluator.region_sizes)
        if self.resolved_backend() == "vectorized":
            from repro.explore.batch import BatchDesignSpaceEvaluator

            matrix = self.contribution_matrix(regions)
            batch = BatchDesignSpaceEvaluator(matrix)
            ids, _ = batch.pareto_ids()
            return [matrix.metrics_at(digits) for digits in batch.digits(ids)]
        from repro.explore.pareto import pareto_indices

        all_metrics: List[DesignMetrics] = []
        for assignment in itertools.product(self.candidates, repeat=len(regions)):
            policies = {
                region: self._specialize(region, policy)
                for region, policy in zip(regions, assignment)
            }
            design = HRMDesign(
                name="+".join(p.describe() for p in policies.values()),
                policies=policies,
            )
            all_metrics.append(self.evaluator.evaluate(design))
        front = pareto_indices(
            [metrics.server_cost_savings for metrics in all_metrics],
            [metrics.availability for metrics in all_metrics],
        )
        return [all_metrics[i] for i in front.tolist()]
