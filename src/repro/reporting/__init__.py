"""Measurement collection, analysis, and report rendering."""

from repro.reporting.analysis import (
    LatencyStats,
    SchedulerSummary,
    batch_working_time,
    framerates_by_action,
    latency_stats,
    mean_interactive_framerate,
    summarize,
)
from repro.reporting.collectors import (
    JobRecord,
    SchedulingCostStats,
    SimulationCollector,
)
from repro.reporting.timeline import TimelineSample, TimelineSeries, sparkline
from repro.reporting.report import (
    comparison_table,
    hit_rate_table,
    pipeline_breakdown,
    sweep_table,
)

__all__ = [
    "LatencyStats",
    "SchedulerSummary",
    "batch_working_time",
    "framerates_by_action",
    "latency_stats",
    "mean_interactive_framerate",
    "summarize",
    "JobRecord",
    "SchedulingCostStats",
    "SimulationCollector",
    "TimelineSample",
    "TimelineSeries",
    "sparkline",
    "comparison_table",
    "hit_rate_table",
    "pipeline_breakdown",
    "sweep_table",
]
