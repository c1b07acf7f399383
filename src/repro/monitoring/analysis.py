"""Analyses over monitoring results: safe ratios and write intervals.

Bridges the per-byte event streams and per-page store statistics of
:mod:`repro.monitoring.monitor` to the paper's derived quantities:
per-region safe-ratio distributions (Figure 5b) and page-level
write-interval statistics feeding the explicit-recoverability
classification (Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.safe_ratio import (
    SafeRatioSample,
    ratio_histogram,
    region_safe_ratio,
    safe_ratio_samples,
)
from repro.monitoring.monitor import MonitoringResult
from repro.utils.stats import SampleSummary
from repro.utils.timescale import TimeScale

__all__ = [
    "TimeScale",
    "RegionSafeRatioReport",
    "safe_ratio_report",
    "PageWriteInterval",
    "page_write_intervals",
]


@dataclass
class RegionSafeRatioReport:
    """Figure 5(b)-style summary for one region."""

    region: str
    samples: List[SafeRatioSample]
    summary: Optional[SampleSummary]
    histogram: List[int]

    @property
    def mean_safe_ratio(self) -> Optional[float]:
        """Average safe ratio of referenced sampled addresses."""
        return self.summary.mean if self.summary else None


def safe_ratio_report(
    result: MonitoringResult, bins: int = 10
) -> Dict[str, RegionSafeRatioReport]:
    """Compute per-region safe-ratio distributions from a monitor run."""
    reports: Dict[str, RegionSafeRatioReport] = {}
    regions = sorted(set(result.region_of_addr.values()))
    for region in regions:
        traces = result.traces_for_region(region)
        samples = safe_ratio_samples(traces, result.start_time)
        reports[region] = RegionSafeRatioReport(
            region=region,
            samples=samples,
            summary=region_safe_ratio(samples),
            histogram=ratio_histogram(samples, bins=bins),
        )
    return reports


@dataclass(frozen=True)
class PageWriteInterval:
    """Average interval between writes to one page."""

    page: int
    write_count: int
    mean_interval_units: Optional[float]  # None = written at most once

    def mean_interval_minutes(self, scale: TimeScale) -> Optional[float]:
        """Average write interval in simulated minutes."""
        if self.mean_interval_units is None:
            return None
        return scale.minutes(self.mean_interval_units)


def page_write_intervals(
    page_stats: Dict[int, Dict[str, int]]
) -> List[PageWriteInterval]:
    """Derive per-page mean write intervals from raw write statistics."""
    intervals = []
    for page, stats in page_stats.items():
        count = stats["count"]
        if count >= 2:
            mean = (stats["last_write"] - stats["first_write"]) / (count - 1)
        else:
            mean = None
        intervals.append(
            PageWriteInterval(page=page, write_count=count, mean_interval_units=mean)
        )
    return intervals
