"""Unit tests for the metrics registry, histograms, and windowing."""

from __future__ import annotations

import json

import pytest

from repro.core.job import JobType
from repro.faults.plan import FaultPlan
from repro.frontend.config import (
    AdmissionConfig,
    BackpressureConfig,
    DegradeConfig,
    FrontendConfig,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricWindow,
    RunMetrics,
    log_buckets,
)
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario, scenario_1


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("jobs")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        c = Counter("jobs")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        g = Gauge("depth")
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 3.0


class TestLogBuckets:
    def test_bounds_are_increasing_and_span_range(self):
        bounds = log_buckets(lowest=1e-3, highest=10.0, per_decade=4)
        assert bounds[0] == 1e-3
        assert bounds[-1] >= 10.0 * (1 - 1e-9)
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    def test_per_decade_controls_resolution(self):
        coarse = log_buckets(lowest=1e-2, highest=1.0, per_decade=1)
        fine = log_buckets(lowest=1e-2, highest=1.0, per_decade=10)
        assert len(fine) > len(coarse)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            log_buckets(lowest=0.0)
        with pytest.raises(ValueError):
            log_buckets(lowest=1.0, highest=0.5)
        with pytest.raises(ValueError):
            log_buckets(per_decade=0)


class TestHistogram:
    def test_boundary_value_lands_in_inclusive_bucket(self):
        # Prometheus `le` bounds are inclusive: an observation exactly on
        # a bucket bound counts in that bucket, not the next one.
        h = Histogram("lat", bounds=[1.0, 2.0, 4.0])
        h.observe(2.0)
        assert h.bucket_counts == [0, 1, 0, 0]

    def test_below_lowest_and_overflow_buckets(self):
        h = Histogram("lat", bounds=[1.0, 2.0])
        h.observe(0.5)   # below the first bound
        h.observe(99.0)  # above the last bound -> implicit +inf bucket
        assert h.bucket_counts == [1, 0, 1]
        assert h.count == 2

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=[1.0, 1.0, 2.0])

    def test_empty_percentile_is_zero(self):
        h = Histogram("lat")
        assert h.percentile(50) == 0.0
        assert h.mean == 0.0

    def test_single_observation_quantiles_exact(self):
        h = Histogram("lat")
        h.observe(0.37)
        # min/max clamping makes every quantile exact for one value.
        assert h.p50 == pytest.approx(0.37)
        assert h.p99 == pytest.approx(0.37)

    def test_quantiles_ordered_and_within_range(self):
        h = Histogram("lat")
        values = [0.01 * i for i in range(1, 101)]
        for v in values:
            h.observe(v)
        assert min(values) <= h.p50 <= h.p95 <= h.p99 <= max(values)
        assert h.p50 == pytest.approx(0.5, rel=0.25)
        assert h.mean == pytest.approx(sum(values) / len(values))

    def test_invalid_quantile_rejected(self):
        h = Histogram("lat")
        with pytest.raises(ValueError):
            h.percentile(101)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_jobs", "help text")
        b = reg.counter("repro_jobs")
        assert a is b
        assert len(reg) == 1

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_jobs", labels={"type": "interactive"})
        b = reg.counter("repro_jobs", labels={"type": "batch"})
        assert a is not b
        a.inc(3)
        assert reg.value("repro_jobs", {"type": "interactive"}) == 3.0
        assert reg.value("repro_jobs", {"type": "batch"}) == 0.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_jobs")
        with pytest.raises(ValueError):
            reg.gauge("repro_jobs")
        with pytest.raises(ValueError):
            reg.histogram("repro_jobs", labels={"x": "1"})

    def test_value_of_missing_metric_is_zero(self):
        assert MetricsRegistry().value("nope") == 0.0

    def test_value_of_histogram_raises(self):
        reg = MetricsRegistry()
        reg.histogram("repro_lat")
        with pytest.raises(TypeError):
            reg.value("repro_lat")

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_jobs", "completed jobs", {"type": "batch"}).inc(7)
        reg.gauge("repro_depth", "queue depth").set(3)
        h = reg.histogram("repro_lat", "latency", bounds=[1.0, 2.0])
        h.observe(0.5)
        h.observe(1.5)
        text = reg.to_prometheus()
        assert "# HELP repro_jobs_total completed jobs" in text
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{type="batch"} 7' in text
        assert "repro_depth 3" in text
        # Histogram buckets are cumulative, with +Inf and sum/count.
        assert 'repro_lat_bucket{le="1"} 1' in text
        assert 'repro_lat_bucket{le="2"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 2' in text
        assert "repro_lat_sum 2" in text
        assert "repro_lat_count 2" in text

    def test_label_values_escape_quotes_backslashes_newlines(self):
        reg = MetricsRegistry()
        reg.counter(
            "repro_jobs", labels={"dataset": 'vol "a"\\raw\nv2'}
        ).inc(1)
        text = reg.to_prometheus()
        # Prometheus quoted label values escape \, ", and newline.
        assert 'dataset="vol \\"a\\"\\\\raw\\nv2"' in text
        assert "\n\n" not in text  # no raw newline leaked into a line

    def test_label_lines_stay_single_line(self):
        reg = MetricsRegistry()
        reg.gauge("repro_depth", labels={"queue": "a\nb"}).set(2)
        lines = reg.to_prometheus().splitlines()
        series = [l for l in lines if l.startswith("repro_depth")]
        assert series == ['repro_depth{queue="a\\nb"} 2']

    def test_help_text_escapes_backslash_and_newline(self):
        reg = MetricsRegistry()
        reg.counter("repro_jobs", 'path C:\\x\nsecond "line"').inc()
        lines = reg.to_prometheus().splitlines()
        help_line = next(l for l in lines if l.startswith("# HELP"))
        # HELP escapes \ and newline but leaves quotes alone.
        assert help_line == '# HELP repro_jobs_total path C:\\\\x\\nsecond "line"'

    def test_snapshot_includes_quantiles(self):
        reg = MetricsRegistry()
        reg.histogram("repro_lat").observe(1.0)
        reg.counter("repro_jobs").inc()
        rows = {row["name"]: row for row in reg.snapshot()}
        assert rows["repro_jobs"]["value"] == 1.0
        assert rows["repro_lat"]["count"] == 1
        assert rows["repro_lat"]["p99"] == pytest.approx(1.0)


def test_metric_window_event_roundtrip():
    window = MetricWindow(
        start=0.0,
        end=1.0,
        jobs_completed=5,
        interactive_completed=4,
        batch_completed=1,
        fps=4.0,
        latency_p50=0.1,
        latency_p95=0.2,
        latency_p99=0.3,
        cache_hits=9,
        cache_misses=1,
        hit_rate=0.9,
        io_bytes=1024,
    )
    event = window.to_event()
    assert event["type"] == "window"
    assert event["fps"] == 4.0
    assert window.duration == 1.0


class TestSimulationIntegration:
    @pytest.fixture(scope="class")
    def run(self):
        scenario = scenario_1(scale=0.05)
        return run_simulation(scenario, "OURS", config=RunConfig(metrics=True))

    def test_metrics_disabled_by_default(self):
        result = run_simulation(scenario_1(scale=0.05), "OURS")
        assert result.metrics is None

    def test_enabling_metrics_does_not_perturb_the_run(self, run):
        import dataclasses

        baseline = run_simulation(scenario_1(scale=0.05), "OURS")
        # sched_cost_us is wall clock and differs between ANY two runs;
        # every simulated quantity must be bit-identical.
        assert dataclasses.replace(
            run.summary(), sched_cost_us=0.0
        ) == dataclasses.replace(baseline.summary(), sched_cost_us=0.0)
        assert run.jobs_completed == baseline.jobs_completed

    def test_counters_match_result(self, run):
        reg = run.metrics.registry
        completed = sum(
            reg.value("repro_jobs_completed", {"type": t})
            for t in ("interactive", "batch")
        )
        assert completed == run.jobs_completed
        assert reg.value("repro_tasks_executed") == run.tasks_executed
        hits = reg.value("repro_cache_hits")
        misses = reg.value("repro_cache_misses")
        assert hits + misses >= reg.value("repro_tasks_executed")

    def test_windows_cover_the_run(self, run):
        windows = run.metrics.windows
        assert windows
        assert all(w.end > w.start for w in windows)
        assert all(
            a.end <= b.start + 1e-9 for a, b in zip(windows, windows[1:])
        )
        total = sum(w.interactive_completed for w in windows)
        reg = run.metrics.registry
        assert total == reg.value("repro_jobs_completed", {"type": "interactive"})

    def test_window_series_extraction(self, run):
        fps = run.metrics.window_series("fps")
        assert len(fps) == len(run.metrics.windows)
        assert all(v >= 0.0 for v in fps)

    def test_jsonl_export(self, run, tmp_path):
        path = run.metrics.write_jsonl(tmp_path / "metrics.jsonl")
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events[0]["type"] == "run"
        assert events[0]["scheduler"] == "OURS"
        assert events[-1]["type"] == "summary"
        assert sum(1 for e in events if e["type"] == "window") == len(
            run.metrics.windows
        )

    def test_prometheus_export(self, run, tmp_path):
        path = run.metrics.write_prometheus(tmp_path / "metrics.prom")
        text = path.read_text()
        assert "# TYPE repro_jobs_completed_total counter" in text
        assert "# TYPE repro_job_latency_seconds histogram" in text


def test_tasks_executed_series_counts_finished_tasks():
    """The series equals ``result.tasks_executed`` on an overloaded run.

    On Scenario 3 under FCFS many tasks are still queued or running at
    the horizon, so counting tasks begun (cache hits + misses) would
    read higher than the finished count.
    """
    result = run_simulation(
        make_scenario(3, scale=0.05), "FCFS", RunConfig(metrics=True)
    )
    registry = result.metrics.registry
    begun = registry.value("repro_cache_hits") + registry.value(
        "repro_cache_misses"
    )
    assert registry.value("repro_tasks_executed") == result.tasks_executed
    assert begun > result.tasks_executed
    assert "render tasks finished" in result.metrics.to_prometheus()


def _overload_frontend(sessions, rate=None):
    return FrontendConfig(
        admission=AdmissionConfig(max_sessions=sessions, rate=rate),
        backpressure=BackpressureConfig(queue_limit=32, policy="shed-oldest"),
        degrade=DegradeConfig(),
    )


#: ``id -> (scenario, scale, load, frontend, storm seed)``.  "overload" is
#: the frontend run of the ``cli:simulate-overload`` golden cell and
#: "storm" a healed storm; the other two end the run degraded (level 2,
#: both rejection reasons) and with a backlog in the wait queue.
TALLIED_RUNS = {
    "overload": (2, 0.03, 2.5, _overload_frontend(8), None),
    "storm": (1, 0.1, 1.0, None, 11),
    "ends-degraded": (2, 0.03, 2.5, _overload_frontend(4, rate=20.0), None),
    "ends-backlogged": (2, 0.03, 6.0, _overload_frontend(8, rate=20.0), None),
}


def _tallied_run(case, monkeypatch, registry=None):
    """Run ``case`` with metrics on; return the result and its cluster."""
    number, scale, load, frontend, storm = TALLIED_RUNS[case]
    scenario = make_scenario(number, scale=scale, load=load)
    faults = None
    if storm is not None:
        faults = FaultPlan.storm(
            storm,
            node_count=scenario.system.node_count,
            duration=scenario.trace.duration,
            heal=True,
        )
    clusters = []
    publish = RunMetrics.publish

    def spy(self, collector, cluster, frontend=None):
        clusters.append(cluster)
        publish(self, collector, cluster, frontend)

    monkeypatch.setattr(RunMetrics, "publish", spy)
    result = run_simulation(
        scenario,
        "OURS",
        RunConfig(
            metrics=registry if registry is not None else True,
            frontend=frontend,
            faults=faults,
        ),
    )
    return result, clusters[0]


def _expected(result, cluster):
    """Each counter/gauge of the run, keyed like the registry, from tallies."""
    collector, nodes = result.collector, cluster.nodes
    hits = sum(n.cache_hits for n in nodes)
    misses = sum(n.cache_misses for n in nodes)
    io_seconds = 0.0
    for node in nodes:
        io_seconds += node.io_seconds
    expected = {
        ("repro_sched_assignments", (("scheduler", "OURS"),)):
            collector.scheduling.tasks_assigned,
        ("repro_tasks_executed", ()): sum(n.tasks_executed for n in nodes),
        ("repro_cache_hits", ()): hits,
        ("repro_cache_misses", ()): misses,
        ("repro_io_seconds", ()): io_seconds,
        ("repro_io_timeouts", ()): sum(n.io_timeouts for n in nodes),
        ("repro_io_loads", ()): cluster.storage.total_loads,
        ("repro_io_bytes", ()): cluster.storage.total_bytes,
    }
    for t in JobType:
        label = (("type", t.value),)
        expected[("repro_jobs_submitted", label)] = collector.submitted_by_type[t]
        expected[("repro_jobs_completed", label)] = sum(
            1 for r in collector.records if r.job_type is t
        )
    stats = result.frontend
    if stats is not None:
        expected.update({
            ("repro_frontend_admitted", ()): stats.requests_seen - stats.rejected,
            ("repro_frontend_rejected", (("reason", "reject-rate"),)):
                stats.rejected_rate,
            ("repro_frontend_rejected", (("reason", "reject-sessions"),)):
                stats.rejected_sessions,
            ("repro_frontend_quality_level", ()): stats.final_quality_level,
            ("repro_frontend_frames_dropped", ()): stats.frames_dropped,
            ("repro_frontend_wait_depth", ()): stats.unserved_at_end,
            ("repro_frontend_deferred", ()): stats.deferred,
            ("repro_frontend_shed", (("which", "oldest"),)): stats.shed_oldest,
            ("repro_frontend_shed", (("which", "newest"),)): stats.shed_newest,
        })
    return expected


#: Gauges the probe refreshes every tick (no end-of-run tally).
SAMPLED = {"repro_queue_depth", "repro_busy_nodes", "repro_cache_used_bytes"}


class TestSeriesEqualTallies:
    """Every end-of-run series is exactly the tally the run keeps."""

    @pytest.mark.parametrize("case", sorted(TALLIED_RUNS))
    def test_every_series_equals_its_tally(self, case, monkeypatch):
        result, cluster = _tallied_run(case, monkeypatch)
        registry = result.metrics.registry
        expected = _expected(result, cluster)
        published = {
            (m.name, m.labels): m.value
            for m in registry
            if not isinstance(m, Histogram) and m.name not in SAMPLED
        }
        assert published == {k: float(v) for k, v in expected.items()}
        for t in JobType:
            latencies = [
                r.finish - r.arrival
                for r in result.collector.records
                if r.job_type is t
            ]
            want = Histogram("want")
            for latency in latencies:
                want.observe(latency)
            got = registry.get("repro_job_latency_seconds", {"type": t.value})
            assert (got.count, got.sum, got.bucket_counts) == (
                want.count,
                want.sum,
                want.bucket_counts,
            )
        cost = registry.get("repro_sched_cost_seconds", {"scheduler": "OURS"})
        assert 0 < cost.count <= result.collector.scheduling.invocations

    def test_runs_exercise_every_tally(self, monkeypatch):
        """The cases are not vacuous: each tally moves in some run."""
        overload, _ = _tallied_run("overload", monkeypatch)
        storm, storm_cluster = _tallied_run("storm", monkeypatch)
        degraded, _ = _tallied_run("ends-degraded", monkeypatch)
        backlogged, _ = _tallied_run("ends-backlogged", monkeypatch)
        assert overload.frontend.shed_oldest and overload.frontend.frames_dropped
        assert storm_cluster.storage.total_loads and storm.tasks_missed
        assert storm.fault_report is not None
        assert degraded.frontend.final_quality_level > 0
        assert degraded.frontend.rejected_rate and degraded.frontend.rejected_sessions
        assert backlogged.frontend.unserved_at_end > 0

    def test_shared_registry_counters_sum(self, monkeypatch):
        alone = [
            _tallied_run(case, monkeypatch)[0].metrics.registry
            for case in ("overload", "storm")
        ]
        shared = MetricsRegistry()
        for case in ("overload", "storm"):
            _tallied_run(case, monkeypatch, registry=shared)
        counters = [m for m in shared if isinstance(m, Counter)]
        assert counters
        for m in counters:
            labels = dict(m.labels)
            assert m.value == sum(r.value(m.name, labels) for r in alone), m.name
        for m in shared:
            if isinstance(m, Histogram) and m.name != "repro_sched_cost_seconds":
                labels = dict(m.labels)
                assert m.count == sum(r.get(m.name, labels).count for r in alone)
