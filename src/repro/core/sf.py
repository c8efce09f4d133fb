"""The Shortest-First baseline (paper §VI-B).

SF sorts the jobs within a batch window by estimated execution time and
schedules the shortest first, using the same locality-blind greedy
placement as FCFS.  The window fills to ``window_size`` jobs or flushes
after ``window_timeout`` seconds, whichever comes first (the service
drives the trigger).

A job's execution-time estimate is its critical path under the cost
model: the maximum cold-node task estimate over its chunks (SF, like FS
and FCFS, does not consult the cache table — the paper groups it with
the methods that "do not take data locality into consideration").
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.job import RenderJob
from repro.core.scheduler_base import (
    Scheduler,
    SchedulerContext,
    Trigger,
    place_min_available,
)


class SFScheduler(Scheduler):
    """Shortest-(estimated-)First within a batch window."""

    name = "SF"
    trigger = Trigger.WINDOW

    def __init__(self, window_size: int = 16, window_timeout: float = 0.1) -> None:
        if window_size < 1:
            raise ValueError(f"window_size must be >= 1, got {window_size}")
        if window_timeout <= 0:
            raise ValueError(f"window_timeout must be > 0, got {window_timeout}")
        self.window_size = window_size
        self.window_timeout = window_timeout

    def _job_estimate(self, job: RenderJob, ctx: SchedulerContext) -> float:
        """Estimated job execution time: the longest cold task estimate."""
        tables = ctx.tables
        group = job.composite_group_size
        return max(tables.estimate(t.chunk, group) for t in job.tasks)

    def schedule(self, jobs: Sequence[RenderJob], ctx: SchedulerContext) -> None:
        estimated: List[Tuple[float, int, RenderJob]] = []
        for order, job in enumerate(jobs):
            ctx.decompose(job)
            estimated.append((self._job_estimate(job, ctx), order, job))
        estimated.sort()  # shortest first; arrival order breaks ties
        place_min_available(
            (task for _est, _order, job in estimated for task in job.tasks), ctx
        )


__all__ = ["SFScheduler"]
