"""Shared low-level utilities: parity, statistics, seeded RNG."""

from repro.utils.bitops import parity64
from repro.utils.rng import SeedSequenceFactory, derive_seed
from repro.utils.stats import (
    ConfidenceInterval,
    mean_confidence_interval,
    summarize_samples,
    wilson_interval,
)
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
)

__all__ = [
    "parity64",
    "SeedSequenceFactory",
    "derive_seed",
    "ConfidenceInterval",
    "mean_confidence_interval",
    "summarize_samples",
    "wilson_interval",
    "check_fraction",
    "check_non_negative",
    "check_positive",
]
