"""Safe-ratio analysis (paper §III-B).

For an address A over an execution window:

* **unsafe duration** — the sum, over every *read* of A, of the time
  since the previous reference to A (an error arriving in that interval
  would be consumed);
* **safe duration** — the sum, over every *write* to A, of the time
  since the previous reference to A (an error arriving in that interval
  would be masked by the overwrite);
* **safe ratio** = safe / (safe + unsafe).

A ratio near 1 means the address is write-dominated (errors likely
masked); near 0 means read-dominated (errors likely consumed). The
paper generalizes to regions by averaging the ratios of sampled
addresses — :func:`region_safe_ratio`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.utils.stats import SampleSummary, summarize_samples


@dataclass(frozen=True)
class AccessEvent:
    """One load or store touching a sampled byte, at a logical time."""

    addr: int
    is_store: bool
    time: int


@dataclass(frozen=True)
class SafeRatioSample:
    """Safe-ratio measurement for one sampled address."""

    addr: int
    safe_duration: int
    unsafe_duration: int

    @property
    def total_duration(self) -> int:
        """Denominator of the ratio."""
        return self.safe_duration + self.unsafe_duration

    @property
    def safe_ratio(self) -> Optional[float]:
        """The ratio, or None when the address was never referenced."""
        total = self.total_duration
        if total == 0:
            return None
        return self.safe_duration / total


def durations_from_events(
    events: Sequence[AccessEvent], start_time: int
) -> SafeRatioSample:
    """Compute safe/unsafe durations for one address's event stream.

    Args:
        events: Time-ordered access events for a single address.
        start_time: Logical time at which monitoring began; the interval
            before the first access is attributed per that access's kind.

    Raises:
        ValueError: if events are not time-ordered or span addresses.
    """
    if not events:
        return SafeRatioSample(addr=-1, safe_duration=0, unsafe_duration=0)
    addr = events[0].addr
    safe = 0
    unsafe = 0
    previous_time = start_time
    for event in events:
        if event.addr != addr:
            raise ValueError(
                f"event stream mixes addresses 0x{addr:x} and 0x{event.addr:x}"
            )
        if event.time < previous_time:
            raise ValueError("events must be in non-decreasing time order")
        interval = event.time - previous_time
        if event.is_store:
            safe += interval
        else:
            unsafe += interval
        previous_time = event.time
    return SafeRatioSample(addr=addr, safe_duration=safe, unsafe_duration=unsafe)


def safe_ratio_samples(
    traces: Dict[int, List[AccessEvent]], start_time: int
) -> List[SafeRatioSample]:
    """Per-address samples for a set of traced addresses.

    Addresses with no events yield samples whose ratio is None; callers
    typically filter those (the paper reports only referenced addresses).
    """
    samples = []
    for addr, events in traces.items():
        sample = durations_from_events(events, start_time)
        if sample.addr == -1:
            sample = SafeRatioSample(addr=addr, safe_duration=0, unsafe_duration=0)
        samples.append(sample)
    return samples


def region_safe_ratio(samples: Iterable[SafeRatioSample]) -> Optional[SampleSummary]:
    """Aggregate address samples into a region-level ratio distribution.

    Returns None when no sampled address was ever referenced.
    """
    ratios = [
        sample.safe_ratio for sample in samples if sample.safe_ratio is not None
    ]
    if not ratios:
        return None
    return summarize_samples(ratios)


def ratio_histogram(
    samples: Iterable[SafeRatioSample], bins: int = 10
) -> List[int]:
    """Histogram of safe ratios in [0, 1] — the Figure 5(b) density shape.

    Raises:
        ValueError: if ``bins`` is not positive.
    """
    if bins <= 0:
        raise ValueError(f"bins must be positive, got {bins}")
    counts = [0] * bins
    for sample in samples:
        ratio = sample.safe_ratio
        if ratio is None:
            continue
        index = min(int(ratio * bins), bins - 1)
        counts[index] += 1
    return counts
