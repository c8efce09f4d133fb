"""The Fair-Sharing baseline (paper §VI-B).

FS allocates computational resources so that each user receives an
equal share on average over time, the policy popularized by Hadoop's
fair scheduler [26].  Like OURS it runs on a constant scheduling cycle
(the paper's Table III groups them as the two cycle-based methods with
cheap per-job cost), but it is locality-blind: tasks go to the node with
the smallest available time regardless of where data is cached, which is
why its data-reuse hit rate collapses to 8-29 % in Table III.

Implementation: per-user deficit counters of estimated resource-seconds
consumed.  Each cycle drains the arrival queue into per-user FIFO
queues, then repeatedly dispatches the next job of the least-served
user, charging that user the job's estimated execution cost.  Counters
persist across cycles so fairness is long-run, and are normalized each
cycle (minimum subtracted) to avoid unbounded growth; idle users do not
bank unlimited credit.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Sequence

from repro.core.job import RenderJob
from repro.core.scheduler_base import (
    Scheduler,
    SchedulerContext,
    Trigger,
    place_min_available,
)


class FSScheduler(Scheduler):
    """Fair Sharing across users on a fixed scheduling cycle."""

    name = "FS"
    trigger = Trigger.CYCLE

    def __init__(self, cycle: float = 0.015) -> None:
        if cycle <= 0:
            raise ValueError(f"cycle must be > 0, got {cycle}")
        self.cycle = cycle
        self._usage: Dict[int, float] = {}
        self._queues: "OrderedDict[int, Deque[RenderJob]]" = OrderedDict()

    def reset(self) -> None:
        self._usage.clear()
        self._queues.clear()

    def pending_task_count(self) -> int:
        # FS never defers work past the cycle in which it can be placed;
        # the queues are always fully drained within schedule().
        return sum(len(q) for q in self._queues.values())

    def _charge(self, job: RenderJob, ctx: SchedulerContext) -> float:
        """Estimated resource-seconds a job consumes (Σ task estimates)."""
        tables = ctx.tables
        group = job.composite_group_size
        return sum(tables.estimate(t.chunk, group) for t in job.tasks)

    def schedule(self, jobs: Sequence[RenderJob], ctx: SchedulerContext) -> None:
        for job in jobs:
            ctx.decompose(job)
            queue = self._queues.get(job.user)
            if queue is None:
                queue = deque()
                self._queues[job.user] = queue
                self._usage.setdefault(job.user, 0.0)
            queue.append(job)

        # Normalize usage so counters stay bounded and newly arrived
        # users compete from the current floor rather than from zero.
        active = [u for u, q in self._queues.items() if q]
        if not active:
            return
        floor = min(self._usage[u] for u in active)
        if floor > 0:
            for u in self._usage:
                self._usage[u] = max(0.0, self._usage[u] - floor)

        # Dispatch all queued jobs, least-served user first.
        remaining = sum(len(self._queues[u]) for u in active)
        while remaining:
            user = min(active, key=lambda u: (self._usage[u], u))
            queue = self._queues[user]
            job = queue.popleft()
            remaining -= 1
            if not queue:
                active.remove(user)
            self._usage[user] += self._charge(job, ctx)
            place_min_available(job.tasks, ctx)


__all__ = ["FSScheduler"]
