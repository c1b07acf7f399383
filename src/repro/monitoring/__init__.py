"""Memory access monitoring framework (paper §IV-B).

Also re-exports the campaign progress/throughput instrumentation
(:class:`CampaignMetrics`, :class:`ProgressEvent`) so callers can watch
characterization campaigns — serial or parallel — alongside memory
accesses.
"""

from repro.obs.progress import CampaignMetrics, ProgressEvent, WorkerTiming
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
    "CampaignMetrics",
    "ProgressEvent",
    "WorkerTiming",
]
