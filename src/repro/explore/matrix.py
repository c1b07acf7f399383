"""Per-(region, candidate) contribution table for batch design evaluation.

The key observation that makes the design space explorable at scale is
that every Table 6 metric is **additive over regions**:

* ``design_cost`` is a sum of per-region ``size × cost_factor`` terms,
  and memory/server savings are monotone transforms of that sum;
* ``crashes_per_month`` and ``incorrect_responses_per_month`` are sums
  of per-region outcome rates (each region's policy acts on that
  region's errors independently);
* availability is a monotone transform of the crash sum.

So instead of re-deriving a full :class:`~repro.core.mapping.HRMDesign`
for each of the ``candidates^regions`` assignments, we call the
existing scalar machinery (:func:`repro.core.availability.
region_outcome_rates` and :meth:`repro.core.cost_model.CostModel.
memory_cost_factor`) once per (region, candidate) pair and store the
contributions. Whole-design metrics are then sequential sums over one
contribution per region — in *exactly* the same floating-point
operation order as :meth:`repro.core.mapping.DesignEvaluator.evaluate`,
so batch results are bit-identical to the scalar oracle (the same
scalar-as-reference pattern as :mod:`repro.kernels`).

:meth:`ContributionMatrix.metrics_at` materializes the full
:class:`~repro.core.mapping.DesignMetrics` row for one assignment from
the stored contributions; equality with ``DesignEvaluator.evaluate`` is
enforced by unit and hypothesis tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.availability import (
    RegionOutcomeRates,
    availability_from_crashes,
    region_outcome_rates,
)
from repro.core.design_space import RegionPolicy, bind_recoverable_fraction
from repro.core.mapping import DesignEvaluator, DesignMetrics, HRMDesign

__all__ = ["ContributionMatrix", "specialize_candidates"]


def specialize_candidates(
    regions: Sequence[str],
    candidates: Sequence[RegionPolicy],
    recoverable_fractions: Optional[Mapping[str, float]] = None,
) -> List[Tuple[RegionPolicy, ...]]:
    """One candidate tuple per region, in region order.

    Each region's measured recoverable fraction is bound into its
    RECOVER candidates, so ``itertools.product`` of the result
    enumerates the design space in assignment-id order.
    """
    if not candidates:
        raise ValueError("candidate policy list must be non-empty")
    return [
        tuple(
            bind_recoverable_fraction(policy, region, recoverable_fractions)
            for policy in candidates
        )
        for region in regions
    ]


@dataclass
class ContributionMatrix:
    """Contributions of every (region, candidate) pair to design metrics.

    All per-pair lists are indexed ``[region_index][candidate_index]``.
    Candidate lists may differ per region (:func:`specialize_candidates`
    binds region-specific recoverable fractions before the matrix is
    built), but every region must offer the same *number* of candidates
    so that assignments are plain digit tuples.
    """

    evaluator: DesignEvaluator
    regions: Tuple[str, ...]
    policies: List[Tuple[RegionPolicy, ...]]
    labels: List[Tuple[str, ...]]  # policy.describe() per pair
    rates: List[Tuple[RegionOutcomeRates, ...]]
    #: size × memory_cost_factor at the nominal / low / high less-tested
    #: discount (0.0 for unsized regions — adding 0.0 is a float no-op,
    #: matching the scalar evaluator skipping the region).
    cost: List[Tuple[float, ...]]
    cost_low: List[Tuple[float, ...]]
    cost_high: List[Tuple[float, ...]]
    crashes: List[Tuple[float, ...]]
    incorrect: List[Tuple[float, ...]]
    less_tested: List[Tuple[bool, ...]]
    total_size: int
    baseline_cost: float

    @classmethod
    def build(
        cls,
        evaluator: DesignEvaluator,
        regions: Sequence[str],
        candidates_per_region: Sequence[Sequence[RegionPolicy]],
    ) -> "ContributionMatrix":
        """Evaluate every (region, candidate) pair once.

        Args:
            evaluator: The scalar evaluator supplying the profile and
                cost/error/availability models.
            regions: Region names in assignment order (digit order).
            candidates_per_region: One candidate tuple per region, all
                of the same length.
        """
        if not regions:
            raise ValueError("regions must be non-empty")
        if len(candidates_per_region) != len(regions):
            raise ValueError(
                f"need one candidate list per region: {len(regions)} regions, "
                f"{len(candidates_per_region)} candidate lists"
            )
        widths = {len(candidates) for candidates in candidates_per_region}
        if widths == {0} or len(widths) != 1:
            raise ValueError(
                "every region needs the same non-zero candidate count, "
                f"got widths {sorted(widths)}"
            )
        sizes = {
            region: evaluator.region_sizes.get(region, 0) for region in regions
        }
        total = sum(sizes.values())
        if total <= 0:
            raise ValueError("design covers no sized regions")
        cost_model = evaluator.cost_model
        params = cost_model.params
        policies: List[Tuple[RegionPolicy, ...]] = []
        labels: List[Tuple[str, ...]] = []
        rates: List[Tuple[RegionOutcomeRates, ...]] = []
        cost: List[Tuple[float, ...]] = []
        cost_low: List[Tuple[float, ...]] = []
        cost_high: List[Tuple[float, ...]] = []
        crashes: List[Tuple[float, ...]] = []
        incorrect: List[Tuple[float, ...]] = []
        less_tested: List[Tuple[bool, ...]] = []
        total_size = 0
        for region, candidates in zip(regions, candidates_per_region):
            size = sizes[region]
            share = size / total
            if size > 0:
                total_size += size
            region_rates = tuple(
                region_outcome_rates(
                    evaluator.profile,
                    region,
                    policy,
                    share,
                    evaluator.error_model,
                    evaluator.error_label,
                )
                for policy in candidates
            )
            policies.append(tuple(candidates))
            labels.append(tuple(policy.describe() for policy in candidates))
            rates.append(region_rates)
            crashes.append(tuple(r.crashes_per_month for r in region_rates))
            incorrect.append(
                tuple(r.incorrect_responses_per_month for r in region_rates)
            )
            less_tested.append(tuple(policy.less_tested for policy in candidates))
            if size > 0:
                cost.append(
                    tuple(
                        size * cost_model.memory_cost_factor(policy)
                        for policy in candidates
                    )
                )
                cost_low.append(
                    tuple(
                        size
                        * cost_model.memory_cost_factor(
                            policy, discount=params.less_tested_discount_low
                        )
                        for policy in candidates
                    )
                )
                cost_high.append(
                    tuple(
                        size
                        * cost_model.memory_cost_factor(
                            policy, discount=params.less_tested_discount_high
                        )
                        for policy in candidates
                    )
                )
            else:
                zeros = (0.0,) * len(candidates)
                cost.append(zeros)
                cost_low.append(zeros)
                cost_high.append(zeros)
        return cls(
            evaluator=evaluator,
            regions=tuple(regions),
            policies=policies,
            labels=labels,
            rates=rates,
            cost=cost,
            cost_low=cost_low,
            cost_high=cost_high,
            crashes=crashes,
            incorrect=incorrect,
            less_tested=less_tested,
            total_size=total_size,
            baseline_cost=total_size * cost_model.baseline_cost_factor,
        )

    @property
    def region_count(self) -> int:
        """Number of regions (assignment digits)."""
        return len(self.regions)

    @property
    def candidate_count(self) -> int:
        """Candidates per region (the digit radix)."""
        return len(self.policies[0])

    @property
    def total_designs(self) -> int:
        """Size of the full assignment space, ``candidates^regions``."""
        return self.candidate_count ** self.region_count

    def digits_of(self, assignment_id: int) -> Tuple[int, ...]:
        """Mixed-radix digits of one assignment id (region 0 first).

        Ids enumerate assignments in the same order as
        ``itertools.product(candidates, repeat=regions)``: the *last*
        region varies fastest.
        """
        radix = self.candidate_count
        digits = []
        for _ in range(self.region_count):
            digits.append(assignment_id % radix)
            assignment_id //= radix
        return tuple(reversed(digits))

    def design_name(self, digits: Sequence[int]) -> str:
        """The scalar oracle's design name for one assignment."""
        return "+".join(
            self.labels[r][c] for r, c in enumerate(digits)
        )

    def totals_at(self, digits: Sequence[int]) -> Tuple[float, float, float]:
        """(design_cost, crashes, incorrect) sums for one assignment.

        Sequential left-to-right adds in region order — the same
        floating-point evaluation order as the scalar evaluator.
        """
        design_cost = 0.0
        crashes = 0.0
        incorrect = 0.0
        for r, c in enumerate(digits):
            design_cost += self.cost[r][c]
            crashes += self.crashes[r][c]
            incorrect += self.incorrect[r][c]
        return design_cost, crashes, incorrect

    def server_savings_from_cost(self, design_cost: float) -> float:
        """Server cost savings implied by a design-cost sum."""
        memory_savings = 1.0 - design_cost / self.baseline_cost
        return self.evaluator.cost_model.server_cost_savings(memory_savings)

    def availability_from_crash_total(self, crashes: float) -> float:
        """Availability implied by a crash-rate sum."""
        return availability_from_crashes(
            crashes, self.evaluator.availability_params
        )

    def incorrect_per_million_from_total(self, incorrect: float) -> float:
        """Incorrect responses per million queries from a monthly sum."""
        return (
            incorrect / self.evaluator.availability_params.queries_per_month * 1e6
        )

    def metrics_at(self, digits: Sequence[int]) -> DesignMetrics:
        """Materialize the full Table 6 row for one assignment.

        Bit-identical to ``DesignEvaluator.evaluate`` on the equivalent
        :class:`HRMDesign` (same contributions, same operation order).
        """
        policies = {}
        for r, c in enumerate(digits):
            policies[self.regions[r]] = self.policies[r][c]
        design = HRMDesign(name=self.design_name(digits), policies=policies)
        design_cost, crashes, incorrect = self.totals_at(digits)
        memory_savings = 1.0 - design_cost / self.baseline_cost
        savings_range = None
        server_range = None
        if any(self.less_tested[r][c] for r, c in enumerate(digits)):
            low_cost = 0.0
            high_cost = 0.0
            for r, c in enumerate(digits):
                low_cost += self.cost_low[r][c]
                high_cost += self.cost_high[r][c]
            low = 1.0 - low_cost / self.baseline_cost
            high = 1.0 - high_cost / self.baseline_cost
            savings_range = (low, high)
            cost_model = self.evaluator.cost_model
            server_range = (
                cost_model.server_cost_savings(low),
                cost_model.server_cost_savings(high),
            )
        rates = {
            self.regions[r]: self.rates[r][c] for r, c in enumerate(digits)
        }
        params = self.evaluator.availability_params
        return DesignMetrics(
            design=design,
            memory_cost_savings=memory_savings,
            memory_cost_savings_range=savings_range,
            server_cost_savings=self.evaluator.cost_model.server_cost_savings(
                memory_savings
            ),
            server_cost_savings_range=server_range,
            crashes_per_month=crashes,
            availability=availability_from_crashes(crashes, params),
            incorrect_per_million_queries=incorrect / params.queries_per_month * 1e6,
            region_rates=rates,
        )
