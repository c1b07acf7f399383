"""Memory access monitoring framework (paper §IV-B)."""

from repro.monitoring.analysis import (
    PageWriteInterval,
    RegionSafeRatioReport,
    TimeScale,
    page_write_intervals,
    safe_ratio_report,
)
from repro.monitoring.monitor import (
    MonitoringResult,
    event_times,
    monitor,
    page_writes,
    record_monitored,
)

__all__ = [
    "PageWriteInterval",
    "RegionSafeRatioReport",
    "TimeScale",
    "page_write_intervals",
    "safe_ratio_report",
    "MonitoringResult",
    "event_times",
    "monitor",
    "page_writes",
    "record_monitored",
]
