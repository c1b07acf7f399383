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

Chunked iteration bounds peak memory regardless of space size; top-k
selection keeps only the k best (plus ties on the (savings,
availability) key, so later name tie-breaking stays exact) per chunk.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.availability import MINUTES_PER_MONTH
from repro.explore.matrix import ContributionMatrix
from repro.explore.pareto import pareto_indices

__all__ = ["BatchDesignSpaceEvaluator", "DEFAULT_CHUNK_SIZE"]

#: Assignments evaluated per chunk (~2 MB per metric array).
DEFAULT_CHUNK_SIZE = 1 << 18


class BatchDesignSpaceEvaluator:
    """Vectorized counterpart of scalar exhaustive enumeration."""

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

    def feasible_ids(
        self,
        availability_target: float,
        max_incorrect_per_million: Optional[float] = None,
    ) -> Tuple[np.ndarray, int]:
        """All feasible assignment ids (ascending) and the evaluated count."""
        found: List[np.ndarray] = []
        evaluated = 0
        for ids in self.iter_chunks():
            evaluated += len(ids)
            metrics = self.evaluate_ids(ids)
            mask = metrics["availability"] >= availability_target
            if max_incorrect_per_million is not None:
                mask &= metrics["incorrect_per_million"] <= max_incorrect_per_million
            found.append(ids[mask])
        if not found:
            return np.empty(0, dtype=np.int64), evaluated
        return np.concatenate(found), evaluated

    def top_k_ids(
        self,
        availability_target: float,
        max_incorrect_per_million: Optional[float] = None,
        top_k: int = 1,
    ) -> Tuple[np.ndarray, int, int]:
        """Ids of the k best feasible designs, plus ties on the
        (savings, availability) key, in ascending id order.

        Ties are kept so the caller can apply the exact name tie-breaker
        during materialization. Returns ``(ids, feasible_count,
        evaluated)``.
        """
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        kept_ids = np.empty(0, dtype=np.int64)
        kept_savings = np.empty(0, dtype=np.float64)
        kept_availability = np.empty(0, dtype=np.float64)
        feasible_count = 0
        evaluated = 0
        for ids in self.iter_chunks():
            evaluated += len(ids)
            metrics = self.evaluate_ids(ids)
            mask = metrics["availability"] >= availability_target
            if max_incorrect_per_million is not None:
                mask &= metrics["incorrect_per_million"] <= max_incorrect_per_million
            feasible_count += int(np.count_nonzero(mask))
            kept_ids = np.concatenate([kept_ids, ids[mask]])
            kept_savings = np.concatenate([kept_savings, metrics["savings"][mask]])
            kept_availability = np.concatenate(
                [kept_availability, metrics["availability"][mask]]
            )
            kept_ids, kept_savings, kept_availability = _cap_to_k(
                kept_ids, kept_savings, kept_availability, top_k
            )
        return kept_ids, feasible_count, evaluated

    def pareto_ids(self) -> Tuple[np.ndarray, int]:
        """Front ids in (savings desc, id asc) order, plus evaluated count."""
        total = self.matrix.total_designs
        savings = np.empty(total, dtype=np.float64)
        availability = np.empty(total, dtype=np.float64)
        for ids in self.iter_chunks():
            metrics = self.evaluate_ids(ids)
            savings[ids[0] : ids[-1] + 1] = metrics["savings"]
            availability[ids[0] : ids[-1] + 1] = metrics["availability"]
        return pareto_indices(savings, availability), total


def _cap_to_k(
    ids: np.ndarray, savings: np.ndarray, availability: np.ndarray, top_k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep the k best rows by (savings, availability) plus exact ties
    with the k-th row, preserving ascending id order."""
    if len(ids) <= top_k:
        return ids, savings, availability
    order = np.lexsort((-availability, -savings))
    kth = order[top_k - 1]
    kth_savings = savings[kth]
    kth_availability = availability[kth]
    keep = (savings > kth_savings) | (
        (savings == kth_savings) & (availability >= kth_availability)
    )
    return ids[keep], savings[keep], availability[keep]
