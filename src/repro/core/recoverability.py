"""Data-recoverability analysis (paper §III-C, Table 5).

Two recovery strategies:

* **implicit** — a clean copy of the data already exists in persistent
  storage (read-only file mappings like the WebSearch index, or state
  derivable from on-disk inputs like its document-metadata tables);
* **explicit** — the data changes slowly enough (written less than once
  every five minutes on average) that the system can affordably keep a
  backup copy refreshed (the Par+R flush).

The analysis measures, per region, the fraction of live data that each
strategy covers. The same data may be covered by both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.apps.base import Workload
from repro.memory.regions import PAGE_SIZE, Region
from repro.monitoring.analysis import page_write_intervals
from repro.monitoring.monitor import page_writes, record_monitored
from repro.utils.timescale import TimeScale

#: The paper's explicit-recoverability threshold.
DEFAULT_THRESHOLD_MINUTES = 5.0


@dataclass(frozen=True)
class RegionRecoverability:
    """Table 5 row: recoverable fractions of one region's live data."""

    region: str
    live_bytes: int
    implicit_fraction: float
    explicit_fraction: float

    @property
    def best_fraction(self) -> float:
        """Fraction recoverable by at least one strategy, pessimistically
        assuming maximal overlap (the paper's ≥82.1 % argument)."""
        return max(self.implicit_fraction, self.explicit_fraction)


def implicitly_recoverable_ranges(
    workload: Workload, region: Region
) -> List[Tuple[int, int]]:
    """Live spans with a clean persistent copy.

    Default policy: the whole region when it is file-backed and frozen
    (a read-only mapping can always be re-read); workloads may override
    ``implicit_ranges`` to add derivable structures (e.g. tables built
    from on-disk inputs).
    """
    custom = getattr(workload, "implicit_ranges", None)
    if custom is not None:
        return custom(region)
    if region.file_backed and region.frozen:
        return [(region.base, region.end)]
    return []


def _overlap(span_a: Tuple[int, int], span_b: Tuple[int, int]) -> int:
    return max(0, min(span_a[1], span_b[1]) - max(span_a[0], span_b[0]))


def analyze_recoverability(
    workload: Workload,
    queries: int,
    threshold_minutes: float = DEFAULT_THRESHOLD_MINUTES,
) -> Dict[str, RegionRecoverability]:
    """Measure implicit/explicit recoverable fractions per region.

    Records one replay of ``queries`` trace entries, derives each page's
    write interval from its stores, and classifies each live page.
    """
    if queries <= 0:
        raise ValueError(f"queries must be positive, got {queries}")
    trace = record_monitored(workload, queries)
    space = workload.space
    scale: TimeScale = workload.time_scale
    intervals = {
        interval.page: interval
        for interval in page_write_intervals(page_writes(trace))
    }

    reports: Dict[str, RegionRecoverability] = {}
    for region in space.regions:
        live_spans = workload.sample_ranges(region)
        live_bytes = sum(end - base for base, end in live_spans)
        if live_bytes == 0:
            reports[region.name] = RegionRecoverability(
                region=region.name,
                live_bytes=0,
                implicit_fraction=0.0,
                explicit_fraction=0.0,
            )
            continue
        implicit_spans = implicitly_recoverable_ranges(workload, region)
        implicit_bytes = sum(
            _overlap(live, implicit)
            for live in live_spans
            for implicit in implicit_spans
        )
        # Explicit: walk live pages; a page qualifies if it was written at
        # most once, or its mean write interval meets the threshold.
        explicit_bytes = 0
        for base, end in live_spans:
            for page_base in range(base - base % PAGE_SIZE, end, PAGE_SIZE):
                page = page_base // PAGE_SIZE
                live_in_page = _overlap((base, end), (page_base, page_base + PAGE_SIZE))
                interval = intervals.get(page)
                if interval is None or interval.write_count <= 1:
                    explicit_bytes += live_in_page
                    continue
                mean_minutes = interval.mean_interval_minutes(scale)
                if mean_minutes is not None and mean_minutes >= threshold_minutes:
                    explicit_bytes += live_in_page
        reports[region.name] = RegionRecoverability(
            region=region.name,
            live_bytes=live_bytes,
            implicit_fraction=min(1.0, implicit_bytes / live_bytes),
            explicit_fraction=min(1.0, explicit_bytes / live_bytes),
        )
    return reports


def overall_recoverability(
    reports: Dict[str, RegionRecoverability]
) -> RegionRecoverability:
    """Size-weighted overall row (the paper's "Overall" Table 5 line)."""
    total = sum(report.live_bytes for report in reports.values())
    if total == 0:
        return RegionRecoverability("overall", 0, 0.0, 0.0)
    implicit = sum(
        report.implicit_fraction * report.live_bytes for report in reports.values()
    )
    explicit = sum(
        report.explicit_fraction * report.live_bytes for report in reports.values()
    )
    return RegionRecoverability(
        region="overall",
        live_bytes=total,
        implicit_fraction=implicit / total,
        explicit_fraction=explicit / total,
    )
