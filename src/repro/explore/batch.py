"""NumPy evaluation of whole assignment spaces at once.

Assignments are integers in ``[0, candidates^regions)`` whose mixed-
radix digits (region 0 most significant — the ``itertools.product``
enumeration order) index the :class:`~repro.explore.matrix.
ContributionMatrix`. Per chunk of ids, the evaluator gathers each
region's contribution row with fancy indexing and accumulates with
``+=`` in region order — elementwise IEEE-754 double adds in the same
order as the scalar evaluator, so every derived array entry is
bit-identical to ``DesignEvaluator.evaluate`` on that design (NumPy
ufunc arithmetic performs no reassociation or FMA contraction).

Chunked iteration bounds the working arrays regardless of space size.
The one whole-space question asked this way is the (savings,
availability) Pareto front, :func:`pareto_front`; ranked search is
:mod:`repro.explore.search`.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.availability import MINUTES_PER_MONTH
from repro.core.design_space import RegionPolicy
from repro.core.mapping import DesignEvaluator, DesignMetrics
from repro.core.optimizer import DEFAULT_CANDIDATES
from repro.explore.matrix import ContributionMatrix, specialize_candidates
from repro.explore.pareto import pareto_indices

__all__ = ["BatchDesignSpaceEvaluator", "DEFAULT_CHUNK_SIZE", "pareto_front"]

#: Assignments evaluated per chunk (~2 MB per metric array).
DEFAULT_CHUNK_SIZE = 1 << 18


class BatchDesignSpaceEvaluator:
    """Whole-space metric arrays, bit-identical to scalar enumeration."""

    def __init__(
        self, matrix: ContributionMatrix, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if matrix.total_designs > np.iinfo(np.int64).max:
            raise ValueError("assignment space exceeds int64 ids")
        self.matrix = matrix
        self.chunk_size = chunk_size
        self._cost = np.asarray(matrix.cost, dtype=np.float64)
        self._crashes = np.asarray(matrix.crashes, dtype=np.float64)
        self._incorrect = np.asarray(matrix.incorrect, dtype=np.float64)
        radix = matrix.candidate_count
        self._place = np.array(
            [radix ** (matrix.region_count - 1 - r) for r in range(matrix.region_count)],
            dtype=np.int64,
        )

    def digits(self, ids: np.ndarray) -> np.ndarray:
        """Mixed-radix digit array of shape ``(len(ids), regions)``."""
        ids = np.asarray(ids, dtype=np.int64)
        return (ids[:, None] // self._place[None, :]) % self.matrix.candidate_count

    def evaluate_ids(self, ids: np.ndarray) -> dict:
        """Metric arrays for a batch of assignment ids.

        Returns a dict with ``savings`` (server cost savings),
        ``availability``, ``incorrect_per_million``, ``crashes`` and
        ``cost`` (the raw design-cost sum) arrays, each aligned to
        ``ids`` and bit-identical to the scalar evaluator.
        """
        ids = np.asarray(ids, dtype=np.int64)
        matrix = self.matrix
        cost = np.zeros(ids.shape, dtype=np.float64)
        crashes = np.zeros(ids.shape, dtype=np.float64)
        incorrect = np.zeros(ids.shape, dtype=np.float64)
        radix = matrix.candidate_count
        for r in range(matrix.region_count):
            digit = (ids // self._place[r]) % radix
            cost += self._cost[r][digit]
            crashes += self._crashes[r][digit]
            incorrect += self._incorrect[r][digit]
        memory_savings = 1.0 - cost / matrix.baseline_cost
        savings = (
            memory_savings
            * matrix.evaluator.cost_model.params.dram_fraction_of_server_cost
        )
        params = matrix.evaluator.availability_params
        downtime = crashes * params.crash_recovery_minutes
        availability = np.maximum(0.0, 1.0 - downtime / MINUTES_PER_MONTH)
        incorrect_per_million = incorrect / params.queries_per_month * 1e6
        return {
            "savings": savings,
            "availability": availability,
            "incorrect_per_million": incorrect_per_million,
            "crashes": crashes,
            "cost": cost,
        }

    def iter_chunks(self) -> Iterator[np.ndarray]:
        """Yield ascending id ranges covering the whole space."""
        total = self.matrix.total_designs
        for start in range(0, total, self.chunk_size):
            yield np.arange(
                start, min(start + self.chunk_size, total), dtype=np.int64
            )

    def pareto_ids(self) -> np.ndarray:
        """Front ids in (savings desc, id asc) order."""
        total = self.matrix.total_designs
        savings = np.empty(total, dtype=np.float64)
        availability = np.empty(total, dtype=np.float64)
        for ids in self.iter_chunks():
            metrics = self.evaluate_ids(ids)
            savings[ids[0] : ids[-1] + 1] = metrics["savings"]
            availability[ids[0] : ids[-1] + 1] = metrics["availability"]
        return pareto_indices(savings, availability)


def pareto_front(
    evaluator: DesignEvaluator,
    candidates: Sequence[RegionPolicy] = DEFAULT_CANDIDATES,
    recoverable_fractions: Optional[Mapping[str, float]] = None,
    regions: Optional[Sequence[str]] = None,
) -> List[DesignMetrics]:
    """Designs not dominated in (server cost savings, availability).

    The cost/reliability trade-off curve of the whole assignment space,
    in (savings descending, assignment id ascending) order: the
    O(n log n) sweep of :mod:`repro.explore.pareto` over the batch
    arrays (the tests keep the quadratic dominance scan as its oracle).
    """
    if regions is None:
        regions = sorted(evaluator.region_sizes)
    matrix = ContributionMatrix.build(
        evaluator,
        regions,
        specialize_candidates(regions, candidates, recoverable_fractions),
    )
    batch = BatchDesignSpaceEvaluator(matrix)
    return [matrix.metrics_at(digits) for digits in batch.digits(batch.pareto_ids())]

