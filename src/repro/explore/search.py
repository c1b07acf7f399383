"""Exact branch-and-bound search over per-region policy assignments.

Explores the ``candidates^regions`` assignment tree region by region,
keeping a size-k heap of the best feasible designs found so far and
pruning subtrees that provably cannot contribute. With ``top_k=None``
the answer is every feasible design: the feasibility bounds still cut,
the cost bound and dominance elimination (which only ever remove
designs a top-k list has no room for) do not apply.

* **Admissible bounds.** For each region still unassigned, the searcher
  adds that region's minimum possible cost / crash-rate / incorrectness
  contribution, *sequentially in region order*. IEEE-754 round-to-
  nearest addition, division and multiplication are weakly monotone in
  each argument, so a sequential sum where every remaining term is
  replaced by its region minimum can never exceed the sum the exact
  evaluator would compute for any completion. The optimistic savings /
  availability / incorrectness derived from those bounded sums are
  therefore admissible: a subtree is pruned only when *no* completion
  can be feasible (availability / incorrectness bounds) or can beat the
  current k-th best savings *strictly* (cost bound) — pruning never
  changes the result, it only skips work.
* **Cost-ordered candidates.** Per region, candidates are visited in
  ascending cost order, so once the cost bound fails for one candidate
  it fails for all remaining ones and the whole candidate loop breaks.
* **Dominance elimination (top-1 only).** A candidate is dropped when a
  same-region alternative has *strictly* lower cost and no worse crash
  and incorrectness contributions — any assignment using the dominated
  candidate is beaten by the same assignment with the substitute. This
  is only applied for ``top_k == 1``: a dominated design can still
  legitimately occupy a lower rank of a top-k list. Caveat: with
  pathological floating-point inputs, a strictly-lower per-region cost
  could round to an *equal* design-cost total, where the (availability,
  name) tie-breakers might have preferred the dominated design. Costs
  here are codec-derived capacity overheads scaled by region sizes —
  distinct values are separated far beyond the rounding error of a sum
  over a handful of regions — and equal-cost candidates are never
  dropped, so the elimination is exact for this model family (and the
  hypothesis equivalence suite exercises it against exhaustive search).

Results are deterministic and byte-identical to exhaustive scalar
search: entries order by (savings, availability) descending with the
design name ascending and the assignment digits ascending as final
tie-breakers — exactly the order of the scalar oracle in
:func:`repro.explore.engine.explore` (a stable sort of the
``itertools.product`` enumeration).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.mapping import DesignMetrics
from repro.explore.matrix import ContributionMatrix
from repro.utils.validation import check_fraction

__all__ = ["BranchAndBoundResult", "BranchAndBoundSearcher"]


class _Reversed:
    """Inverts the ordering of a wrapped value (for min-heaps of maxima)."""

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


@dataclass
class BranchAndBoundResult:
    """Outcome of a bounded search."""

    #: Best feasible designs, ordered by (-savings, -availability, name).
    top: List[DesignMetrics]
    #: Designs whose exact metrics were computed and offered to the heap.
    evaluated: int
    #: Designs eliminated by bounds without exact evaluation.
    pruned: int
    #: Pruned-design counts by bound (availability / incorrectness / cost
    #: / dominated). ``evaluated + pruned == total_designs`` always.
    pruned_by: Dict[str, int] = field(default_factory=dict)
    #: Size of the full assignment space.
    total_designs: int = 0

    @property
    def found(self) -> bool:
        """Whether any design met the constraints."""
        return bool(self.top)


class BranchAndBoundSearcher:
    """Deterministic top-k (or full-list) search with admissible pruning."""

    def __init__(self, matrix: ContributionMatrix) -> None:
        self.matrix = matrix

    def search(
        self,
        availability_target: float,
        max_incorrect_per_million: Optional[float] = None,
        top_k: Optional[int] = 1,
    ) -> BranchAndBoundResult:
        """Find the ``top_k`` feasible designs with maximum savings
        (``None``: every feasible design)."""
        check_fraction("availability_target", availability_target)
        if top_k is not None and top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        matrix = self.matrix
        region_count = matrix.region_count
        pruned_by = {
            "dominated": 0,
            "availability": 0,
            "incorrectness": 0,
            "cost": 0,
        }

        orders: List[List[int]] = []
        for r in range(region_count):
            kept = list(range(matrix.candidate_count))
            if top_k == 1:
                kept = [c for c in kept if not self._dominated(r, c)]
            kept.sort(
                key=lambda c, r=r: (
                    matrix.cost[r][c],
                    matrix.crashes[r][c],
                    matrix.incorrect[r][c],
                    c,
                )
            )
            orders.append(kept)

        # Designs removed wholesale by per-region dominance elimination.
        explored = 1
        for kept in orders:
            explored *= len(kept)
        pruned_by["dominated"] = matrix.total_designs - explored

        min_cost = [min(matrix.cost[r][c] for c in orders[r]) for r in range(region_count)]
        min_crash = [
            min(matrix.crashes[r][c] for c in orders[r]) for r in range(region_count)
        ]
        min_inc = [
            min(matrix.incorrect[r][c] for c in orders[r]) for r in range(region_count)
        ]
        # Designs per subtree rooted after assigning region r.
        subtree = [1] * (region_count + 1)
        for r in range(region_count - 1, -1, -1):
            subtree[r] = subtree[r + 1] * len(orders[r])

        heap: list = []  # (savings, avail, _Reversed(name), _Reversed(digits))
        digits = [0] * region_count
        evaluated = 0

        def leaf(cost_total: float, crash_total: float) -> None:
            nonlocal evaluated
            evaluated += 1
            savings = matrix.server_savings_from_cost(cost_total)
            availability = matrix.availability_from_crash_total(crash_total)
            if len(heap) == top_k:
                worst = heap[0]
                if savings < worst[0]:
                    return
                if savings == worst[0] and availability < worst[1]:
                    return
            entry = (
                savings,
                availability,
                _Reversed(matrix.design_name(digits)),
                _Reversed(tuple(digits)),
            )
            if top_k is None:
                heap.append(entry)
            elif len(heap) < top_k:
                heapq.heappush(heap, entry)
            else:
                heapq.heappushpop(heap, entry)

        def descend(r: int, cost_p: float, crash_p: float, inc_p: float) -> None:
            for position, c in enumerate(orders[r]):
                digits[r] = c
                cost = cost_p + matrix.cost[r][c]
                crash = crash_p + matrix.crashes[r][c]
                inc = inc_p + matrix.incorrect[r][c]
                # Optimistic completions: add each remaining region's
                # minimum, sequentially, mirroring the evaluator's sum
                # order so the bounds are admissible under IEEE-754.
                cost_lb = cost
                crash_lb = crash
                inc_lb = inc
                for j in range(r + 1, region_count):
                    cost_lb += min_cost[j]
                    crash_lb += min_crash[j]
                    inc_lb += min_inc[j]
                if matrix.availability_from_crash_total(crash_lb) < availability_target:
                    pruned_by["availability"] += subtree[r + 1]
                    continue
                if (
                    max_incorrect_per_million is not None
                    and matrix.incorrect_per_million_from_total(inc_lb)
                    > max_incorrect_per_million
                ):
                    pruned_by["incorrectness"] += subtree[r + 1]
                    continue
                if len(heap) == top_k:
                    if matrix.server_savings_from_cost(cost_lb) < heap[0][0]:
                        # Candidates are cost-sorted: every later one
                        # bounds at least as badly. Count the rest out.
                        remaining = len(orders[r]) - position
                        pruned_by["cost"] += remaining * subtree[r + 1]
                        break
                if r + 1 == region_count:
                    # The "bounds" above were exact totals: the leaf is
                    # feasible, offer it to the heap.
                    leaf(cost, crash)
                else:
                    descend(r + 1, cost, crash, inc)

        descend(0, 0.0, 0.0, 0.0)

        ordered = sorted(heap, reverse=True)
        top = [matrix.metrics_at(entry[3].value) for entry in ordered]
        return BranchAndBoundResult(
            top=top,
            evaluated=evaluated,
            pruned=sum(pruned_by.values()),
            pruned_by=pruned_by,
            total_designs=matrix.total_designs,
        )

    def _dominated(self, r: int, c: int) -> bool:
        """Whether another same-region candidate strictly beats ``c``."""
        matrix = self.matrix
        cost = matrix.cost[r][c]
        crash = matrix.crashes[r][c]
        inc = matrix.incorrect[r][c]
        for a in range(matrix.candidate_count):
            if a == c:
                continue
            if (
                matrix.cost[r][a] < cost
                and matrix.crashes[r][a] <= crash
                and matrix.incorrect[r][a] <= inc
            ):
                return True
        return False
