"""Lighter-weight (injection-free) vulnerability estimation.

The paper's §VII calls for "lighter-weight characterization
methodologies to make characterizing application memory error tolerance
cheaper". This module implements one: instead of thousands of
inject-restart-replay trials, it *monitors* a single fault-free session
and predicts, per region, the two access-pattern-determined outcomes of
the Figure 1 taxonomy:

* an error is **masked by overwrite** iff the first access to its
  address after the error arrives is a store;
* an error is **never accessed** iff its address is not referenced
  during the exposure window.

Both are functions of the access stream alone: the first-access census
of one recorded fault-free replay (``AccessTrace.first_access``, the
memory-vulnerability-factor view of arXiv:1810.06472) predicts them
without any injection. What monitoring
*cannot* see is application-logic masking versus harm among consumed
errors — so the estimator brackets vulnerability: the consumed fraction
is an upper bound on the visible-failure probability.

Cost comparison: a full campaign cell is `trials × queries` query
executions; the estimator is one session of `queries` executions
regardless of the statistical resolution wanted on masking — roughly a
`trials×` speedup (measured by ``bench_ext_lightweight``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.apps.base import Workload
from repro.core.vulnerability import VulnerabilityProfile
from repro.memory.trace import record_access_trace


@dataclass(frozen=True)
class MaskingEstimate:
    """Predicted outcome fractions for one region."""

    region: str
    sampled_addresses: int
    never_accessed_fraction: float
    masked_overwrite_fraction: float
    consumed_fraction: float

    @property
    def predicted_masked_fraction(self) -> float:
        """Access-pattern-determined masking (excludes logic masking)."""
        return self.never_accessed_fraction + self.masked_overwrite_fraction

    @property
    def vulnerability_upper_bound(self) -> float:
        """Upper bound on P(visible failure | error): consumed errors."""
        return self.consumed_fraction


def estimate_masking(
    workload: Workload,
    queries: int = 150,
    samples_per_region: int = 96,
    rng: Optional[random.Random] = None,
    regions: Optional[Sequence[str]] = None,
) -> Dict[str, MaskingEstimate]:
    """Predict per-region masking from one monitored session.

    Resets the workload, samples live addresses, records one replay of
    the first ``queries`` trace entries (the same exposure window the
    campaign uses), and classifies each address by its first access.
    The replay runs on the space's own access path: the recorder's
    first-access census is the same on either path.

    Raises:
        ValueError: for non-positive budgets.
    """
    if queries <= 0:
        raise ValueError(f"queries must be positive, got {queries}")
    if samples_per_region <= 0:
        raise ValueError(
            f"samples_per_region must be positive, got {samples_per_region}"
        )
    if rng is None:
        rng = random.Random(0)
    workload.reset()
    space = workload.space
    region_names = list(regions) if regions else [r.name for r in space.regions]

    addresses: List[int] = []
    region_of: Dict[int, str] = {}
    for name in region_names:
        region = space.region_named(name)
        spans = [
            (base, end)
            for base, end in workload.sample_ranges(region)
            if end > base
        ]
        if not spans:
            continue
        weights = [end - base for base, end in spans]
        for _ in range(samples_per_region):
            base, end = rng.choices(spans, weights=weights, k=1)[0]
            addr = base + rng.randrange(end - base)
            if addr not in region_of:
                addresses.append(addr)
                region_of[addr] = name

    trace = record_access_trace(workload, min(queries, workload.query_count))

    estimates: Dict[str, MaskingEstimate] = {}
    for name in region_names:
        region_addresses = [a for a in addresses if region_of[a] == name]
        if not region_addresses:
            continue
        # first_access: 0 never accessed, 1 loaded (consumed), 2 stored.
        never, consumed, overwrite = np.bincount(
            trace.first_access[region_addresses], minlength=3
        ).tolist()
        total = len(region_addresses)
        estimates[name] = MaskingEstimate(
            region=name,
            sampled_addresses=total,
            never_accessed_fraction=never / total,
            masked_overwrite_fraction=overwrite / total,
            consumed_fraction=consumed / total,
        )
    return estimates


@dataclass(frozen=True)
class ValidationRow:
    """Lightweight prediction vs campaign ground truth for one cell."""

    region: str
    predicted_never: float
    measured_never: float
    predicted_overwrite: float
    measured_overwrite: float
    consumed_upper_bound: float
    measured_visible: float

    @property
    def never_error(self) -> float:
        """Absolute error of the never-accessed prediction."""
        return abs(self.predicted_never - self.measured_never)

    @property
    def overwrite_error(self) -> float:
        """Absolute error of the masked-by-overwrite prediction."""
        return abs(self.predicted_overwrite - self.measured_overwrite)

    @property
    def bound_holds(self) -> bool:
        """Whether the vulnerability upper bound brackets ground truth.

        Sampling noise on both sides is absorbed with a small margin.
        """
        return self.measured_visible <= self.consumed_upper_bound + 0.05


def validate_against_profile(
    estimates: Dict[str, MaskingEstimate],
    profile: VulnerabilityProfile,
    error_label: str = "single-bit soft",
) -> List[ValidationRow]:
    """Compare estimates with a campaign profile, cell by cell.

    The comparison is only meaningful for *soft* errors (a hard error
    survives overwrites, so its fate is not determined by the first
    access alone).
    """
    rows: List[ValidationRow] = []
    for region, estimate in estimates.items():
        cell = profile.cells.get((region, error_label))
        if cell is None or cell.trials == 0:
            continue
        never = cell.outcome_counts.get("masked_never_accessed", 0) / cell.trials
        overwrite = cell.outcome_counts.get("masked_overwrite", 0) / cell.trials
        visible = (cell.crashes + cell.incorrect_trials) / cell.trials
        rows.append(
            ValidationRow(
                region=region,
                predicted_never=estimate.never_accessed_fraction,
                measured_never=never,
                predicted_overwrite=estimate.masked_overwrite_fraction,
                measured_overwrite=overwrite,
                consumed_upper_bound=estimate.consumed_fraction,
                measured_visible=visible,
            )
        )
    return rows
