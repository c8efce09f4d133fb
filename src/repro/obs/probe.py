"""The one observer clock of a running simulation.

The evaluation reads framerate, latency and cache behaviour off the
head node's state over time.  A :class:`Probe` is the clock that does
the reading.  It ticks on the absolute ``start + k * interval`` grid
(tick ``k`` is computed from ``k``, so thousands of ticks never drift
off-grid), takes one :class:`Reading` of service/cluster state per
tick, closes the :class:`~repro.obs.metrics.MetricWindow` since its
previous tick when a sink wants one, and hands both to its sinks:

* :class:`~repro.obs.counters.CounterSink` — tracer counter tracks;
* :class:`~repro.obs.metrics.RunMetrics` — metric windows plus the
  registry's pressure gauges;
* :class:`~repro.reporting.timeline.TimelineSeries` — timeline samples;
* :class:`~repro.obs.stream.TelemetryStream` — NDJSON snapshots, wall
  checkpoints and the online anomaly detector.

A sink is any object with a ``windowed`` flag and a
``sample(reading, window)`` method; ``window`` is ``None`` on the first
tick (the window state starts at attach time) and for sinks of a probe
where no sink is windowed.

A probe is a pure observer: each tick is one event that reads state and
writes nothing the simulation reads, so placements never move.  The
simulator builds one probe per distinct grid interval, so sinks that
share a grid share one event per tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.cost_model import percentile
from repro.core.job import JobType
from repro.obs.metrics import MetricWindow
from repro.util.validation import check_positive

#: Counter-track grid: ~256 ticks over the horizon, at least 1e-4 s.
COUNTER_TICKS, COUNTER_FLOOR = 256, 1e-4
#: Metric-window and stream grid: ~64 ticks over the horizon, at least 1e-3 s.
WINDOW_TICKS, WINDOW_FLOOR = 64, 1e-3


def default_interval(horizon: float, ticks: int, floor: float) -> float:
    """A grid interval giving ~``ticks`` ticks over ``horizon``.

    Clamped below by ``floor`` so degenerate horizons cannot produce a
    zero interval.
    """
    return max(horizon / max(ticks, 1), floor)


@dataclass(frozen=True)
class Reading:
    """Service/cluster state read once at one probe tick."""

    time: float
    events: int
    queue_depth: int
    deferred_tasks: int
    backlog: int
    busy_nodes: int
    cache_hits: int
    cache_misses: int
    #: Bytes resident in each node's chunk cache, in node-id order.
    cache_used: tuple
    io_loads: int
    io_inflight_bytes: float
    io_bytes: int
    jobs_submitted: int
    jobs_completed: int
    tasks_inflight: int
    #: The collector's completed-job records (the live list) and its
    #: length at this tick.
    records: list
    n_records: int

    @classmethod
    def take(cls, service) -> "Reading":
        """Read ``service`` and its cluster now."""
        cluster = service.cluster
        nodes = cluster.nodes
        storage = cluster.storage
        records = service.collector.records
        return cls(
            time=cluster.events.now,
            events=cluster.events.processed,
            queue_depth=service.queue_depth,
            deferred_tasks=service.scheduler.pending_task_count(),
            backlog=cluster.total_backlog(),
            busy_nodes=sum(1 for n in nodes if n.busy),
            cache_hits=sum(n.cache_hits for n in nodes),
            cache_misses=sum(n.cache_misses for n in nodes),
            cache_used=tuple(n.cache.used_bytes for n in nodes),
            io_loads=storage.active_loads,
            io_inflight_bytes=storage.active_bytes,
            io_bytes=storage.total_bytes,
            jobs_submitted=service.jobs_submitted,
            jobs_completed=service.jobs_completed,
            tasks_inflight=service.tasks_inflight,
            records=records,
            n_records=len(records),
        )


def close_window(prev: Reading, cur: Reading) -> MetricWindow:
    """The window from ``prev`` to ``cur``: completions, latency
    quantiles (exact, over the jobs completed inside it), cache and I/O
    deltas."""
    fresh = cur.records[prev.n_records : cur.n_records]
    latencies = sorted(r.latency for r in fresh)
    interactive = sum(1 for r in fresh if r.job_type is JobType.INTERACTIVE)
    d_hits = cur.cache_hits - prev.cache_hits
    d_misses = cur.cache_misses - prev.cache_misses
    d_tasks = d_hits + d_misses
    return MetricWindow(
        start=prev.time,
        end=cur.time,
        jobs_completed=len(fresh),
        interactive_completed=interactive,
        batch_completed=len(fresh) - interactive,
        fps=interactive / (cur.time - prev.time),
        latency_p50=percentile(latencies, 50),
        latency_p95=percentile(latencies, 95),
        latency_p99=percentile(latencies, 99),
        cache_hits=d_hits,
        cache_misses=d_misses,
        hit_rate=d_hits / d_tasks if d_tasks else 0.0,
        io_bytes=cur.io_bytes - prev.io_bytes,
    )


class Probe:
    """Ticks on one grid and fans each reading out to its sinks.

    Args:
        interval: Simulated seconds between ticks.
        sinks: The sinks fed on every tick, in order.
        horizon: Optional stop time.  A probe with one sink also stops
            at quiescence (no work and no other event pending), so it
            never keeps a finished simulation alive; a probe with
            several sinks runs to the horizon, as the separate
            per-sink clocks it replaces kept each other alive.
    """

    def __init__(
        self,
        interval: float,
        sinks: Sequence[object],
        *,
        horizon: Optional[float] = None,
    ) -> None:
        check_positive("interval", interval)
        self.interval = interval
        self.sinks: List[object] = list(sinks)
        self.horizon = horizon
        self.ticks = 0
        self._windowed = any(sink.windowed for sink in self.sinks)
        self._service = None
        self._start = 0.0
        self._last: Optional[Reading] = None

    def attach(self, service) -> "Probe":
        """Start ticking on ``service`` (call before running events)."""
        self._service = service
        events = service.cluster.events
        self._start = events.now
        self.ticks = 0
        self._last = None
        events.schedule(self._start, self._tick)
        return self

    def _tick(self) -> None:
        service = self._service
        events = service.cluster.events
        reading = Reading.take(service)
        last, self._last = self._last, reading
        window = None
        if self._windowed and last is not None and reading.time > last.time:
            window = close_window(last, reading)
        for sink in self.sinks:
            sink.sample(reading, window)
        self.ticks += 1
        past_horizon = self.horizon is not None and reading.time >= self.horizon
        more_coming = (
            len(self.sinks) > 1 or service.has_work() or len(events) > 0
        )
        if more_coming and not past_horizon:
            events.schedule(self._start + self.ticks * self.interval, self._tick)


__all__ = [
    "COUNTER_TICKS",
    "COUNTER_FLOOR",
    "WINDOW_TICKS",
    "WINDOW_FLOOR",
    "default_interval",
    "Reading",
    "Probe",
    "close_window",
]
