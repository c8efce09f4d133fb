"""The probe must tick on the exact ``start + k*interval`` grid.

Regression tests for tick drift: rescheduling each tick with
``schedule_after(interval)`` accumulates float rounding error, so after
thousands of ticks samples land off-grid (and two sinks with the same
interval disagree about window boundaries).  The probe computes the
k-th tick time from the tick index; these tests pin that with exact
float equality over 10k ticks, for each of the four sinks.
"""

import pytest

from repro.cluster.event_queue import EventQueue
from repro.obs.counters import TRACK_QUEUE, CounterSink
from repro.obs.metrics import MetricsRegistry, RunMetrics
from repro.obs.probe import (
    COUNTER_FLOOR,
    COUNTER_TICKS,
    WINDOW_FLOOR,
    WINDOW_TICKS,
    Probe,
    default_interval,
)
from repro.obs.stream import StreamConfig, TelemetryStream, read_stream
from repro.reporting.timeline import TimelineSeries


class FakeStorage:
    total_bytes = 0
    active_loads = 0
    active_bytes = 0.0


class FakeCluster:
    def __init__(self):
        self.events = EventQueue()
        self.nodes = []
        self.storage = FakeStorage()

    def total_backlog(self):
        return 0


class FakeCollector:
    def __init__(self):
        self.records = []


class FakeScheduler:
    @staticmethod
    def pending_task_count():
        return 0


class FakeService:
    """Always-busy service: ticking continues until the event budget."""

    def __init__(self):
        self.cluster = FakeCluster()
        self.collector = FakeCollector()
        self.scheduler = FakeScheduler()
        self.queue_depth = 0
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.tasks_inflight = 0

    def has_work(self):
        return True


class RecordingTracer:
    def __init__(self):
        self.times = []

    def counter(self, pid, track, time, values):
        if track == TRACK_QUEUE:
            self.times.append(time)


TICKS = 10_000
INTERVAL = 0.25


class _Sink:
    """One sink under test and the tick times it recorded.

    Windowed sinks record one entry per closed window, so their times
    are the window ends (the attach-time tick closes none).
    """

    def __init__(self, kind, tmp_path):
        self.kind = kind
        if kind == "counter":
            self.tracer = RecordingTracer()
            self.sink = CounterSink(self.tracer)
        elif kind == "metrics":
            self.sink = RunMetrics(MetricsRegistry())
        elif kind == "timeline":
            self.sink = TimelineSeries()
        else:
            self.path = tmp_path / "grid.ndjson"
            self.sink = TelemetryStream(
                StreamConfig(path=self.path, anomalies=False), interval=INTERVAL
            )

    def attach(self, service, interval):
        probe = Probe(interval, [self.sink]).attach(service)
        if self.kind == "stream":
            self.sink.attach(service)
        return probe

    def times(self):
        if self.kind == "counter":
            return self.tracer.times
        if self.kind == "metrics":
            return [w.end for w in self.sink.windows]
        if self.kind == "timeline":
            return [s.time for s in self.sink.samples]
        self.sink.close()
        return [r["t"] for r in read_stream(self.path) if r["type"] == "snapshot"]


SINKS = ["counter", "metrics", "timeline", "stream"]


def _expected(kind, start, interval, ticks):
    """Tick times the sink records: windowed sinks skip the first."""
    first = 1 if kind in ("metrics", "stream") else 0
    return [start + k * interval for k in range(first, ticks)]


@pytest.mark.parametrize("kind", SINKS)
def test_10k_ticks_land_exactly_on_grid(kind, tmp_path):
    service = FakeService()
    sink = _Sink(kind, tmp_path)
    probe = sink.attach(service, INTERVAL)
    service.cluster.events.run(max_events=TICKS + 1)
    assert probe.ticks == TICKS + 1
    assert sink.times() == _expected(kind, 0.0, INTERVAL, TICKS + 1)


@pytest.mark.parametrize("kind", SINKS)
def test_non_representable_interval_does_not_drift(kind, tmp_path):
    # 0.1 has no exact binary representation: repeated addition
    # drifts off the multiplicative grid within a few hundred ticks,
    # so this is the discriminating case.
    service = FakeService()
    sink = _Sink(kind, tmp_path)
    sink.attach(service, 0.1)
    service.cluster.events.run(max_events=TICKS + 1)
    assert sink.times() == _expected(kind, 0.0, 0.1, TICKS + 1)


@pytest.mark.parametrize("kind", SINKS)
def test_grid_is_anchored_at_attach_time(kind, tmp_path):
    service = FakeService()
    events = service.cluster.events
    events.schedule(1.0, lambda: None)
    events.run()
    assert events.now == 1.0
    sink = _Sink(kind, tmp_path)
    sink.attach(service, INTERVAL)
    events.run(max_events=100)
    assert sink.times() == _expected(kind, 1.0, INTERVAL, 100)


def test_window_state_starts_at_attach_time():
    """A late-attached probe's first window starts at the attach time,
    and nothing completed before the attach is counted in it."""
    service = FakeService()
    events = service.cluster.events
    events.schedule(1.0, lambda: None)
    events.run()
    service.collector.records.extend(["before attach"] * 3)
    service.cluster.storage.total_bytes = 4096
    metrics = RunMetrics(MetricsRegistry())
    Probe(INTERVAL, [metrics]).attach(service)
    events.run(max_events=3)
    assert [(w.start, w.end) for w in metrics.windows] == [
        (1.0, 1.25),
        (1.25, 1.5),
    ]
    assert all(w.jobs_completed == 0 for w in metrics.windows)
    assert all(w.io_bytes == 0 for w in metrics.windows)


@pytest.mark.parametrize(
    "horizon,ticks,floor,expected",
    [
        (256.0, COUNTER_TICKS, COUNTER_FLOOR, 1.0),
        (64.0, WINDOW_TICKS, WINDOW_FLOOR, 1.0),
        (1e-9, COUNTER_TICKS, COUNTER_FLOOR, 1e-4),
        (0.0, WINDOW_TICKS, WINDOW_FLOOR, 1e-3),
    ],
    ids=["counter", "window", "counter-floor", "window-floor"],
)
def test_default_interval(horizon, ticks, floor, expected):
    """h/N ticks over the horizon, never below the grid's floor."""
    assert default_interval(horizon, ticks, floor) == expected
