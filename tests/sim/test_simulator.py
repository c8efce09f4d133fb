"""Tests for the top-level simulation runner."""

import pytest

from repro.cluster.storage import StorageSpec
from repro.core.chunks import dataset_suite
from repro.faults.plan import FaultPlan
from repro.sim.config import system_linux8
from repro.sim.run_config import RunConfig
from repro.sim.simulator import compare_schedulers, run_simulation
from repro.util.units import GiB
from repro.workload.actions import persistent_actions
from repro.workload.scenarios import Scenario, custom_scenario


def tiny_scenario(duration=2.0, datasets=2, nodes=4, prewarm=True):
    system = system_linux8(node_count=nodes)
    suite = dataset_suite(datasets, 2 * GiB)
    trace = persistent_actions(
        suite, duration, target_framerate=100.0 / 3.0, seed=0, name="tiny"
    )
    return Scenario(
        name="tiny", system=system, trace=trace, prewarm=prewarm
    )


class TestRunSimulation:
    def test_basic_run_completes_jobs(self):
        scenario = tiny_scenario()
        assert scenario.trace.interactive_count == 2 * 67  # 67 per action
        result = run_simulation(scenario, "OURS")
        assert result.scheduler_name == "OURS"
        # Phase offsets + jitter can push the last couple of requests
        # past the horizon; everything else is submitted.
        assert 2 * 67 - 4 <= result.jobs_submitted <= 2 * 67
        assert result.jobs_completed > 0.9 * result.jobs_submitted
        assert result.hit_rate > 0.99  # prewarmed
        assert result.events_processed > 0

    def test_scheduler_instance_accepted(self):
        from repro.core.ours import OursScheduler

        result = run_simulation(tiny_scenario(), OursScheduler(cycle=0.01))
        assert result.jobs_completed > 0

    def test_deterministic(self):
        sc = tiny_scenario()
        a = run_simulation(sc, "OURS")
        b = run_simulation(sc, "OURS")
        assert a.jobs_completed == b.jobs_completed
        assert [r.finish for r in a.records] == [r.finish for r in b.records]
        assert a.hit_rate == b.hit_rate

    def test_cold_start_without_prewarm(self):
        result = run_simulation(
            tiny_scenario(prewarm=False), "OURS", config=RunConfig(drain=True)
        )
        assert result.hit_rate < 1.0  # first touch of each chunk misses
        misses = result.tasks_executed - result.tasks_hit
        assert misses >= 8  # 2 datasets x 4 chunks at least once

    def test_metrics_surface(self):
        result = run_simulation(tiny_scenario(), "OURS")
        assert 0 < result.interactive_fps <= 34.0
        assert result.interactive_latency.count > 0
        assert result.batch_latency.count == 0
        assert result.sched_cost_us > 0
        assert 0 < result.mean_node_utilization <= 1.0
        summary = result.summary()
        assert summary.scheduler == "OURS"

    def test_fps_definition4_also_available(self):
        result = run_simulation(tiny_scenario(), "OURS")
        assert result.interactive_fps_definition4 == pytest.approx(
            result.interactive_fps, rel=0.15
        )

    def test_drain_completes_everything(self):
        # No prewarm and a short horizon: work outlives the trace.
        result = run_simulation(
            tiny_scenario(duration=0.5, prewarm=False),
            "FCFS",
            config=RunConfig(drain=True),
        )
        assert result.drained
        assert result.jobs_completed == result.jobs_submitted
        assert result.simulated_time > 0.5

    def test_drain_time_bounded(self):
        result = run_simulation(
            tiny_scenario(duration=0.5, prewarm=False),
            "FCFS",
            config=RunConfig(drain=True, max_drain_time=0.2),
        )
        assert result.simulated_time <= 0.5 + 0.2 + 1e-9

    def test_horizon_mode_reports_unfinished(self):
        result = run_simulation(
            tiny_scenario(duration=0.5, prewarm=False), "FCFS"
        )
        assert result.unfinished_jobs > 0
        assert not result.drained


class TestCompareSchedulers:
    def test_runs_all(self):
        results = compare_schedulers(tiny_scenario(), ["OURS", "FCFSL", "FCFS"])
        assert [r.scheduler_name for r in results] == ["OURS", "FCFSL", "FCFS"]
        # Identical trace: same submissions everywhere.
        assert len({r.jobs_submitted for r in results}) == 1

    def test_fresh_cluster_per_run(self):
        results = compare_schedulers(tiny_scenario(), ["OURS", "OURS"])
        assert results[0].jobs_completed == results[1].jobs_completed


class TestNodeFailureInjection:
    def test_crash_schedule_survives(self):
        config = RunConfig(faults=FaultPlan.from_node_failures([(1.0, 1)]))
        result = run_simulation(tiny_scenario(duration=3.0), "OURS", config=config)
        assert result.jobs_completed > 0
        # Degrades versus the healthy run but keeps serving.
        healthy = run_simulation(tiny_scenario(duration=3.0), "OURS")
        assert result.interactive_fps <= healthy.interactive_fps

    def test_invalid_node_rejected(self):
        config = RunConfig(faults=FaultPlan.from_node_failures([(0.5, 99)]))
        with pytest.raises(ValueError, match="fault plan references node"):
            run_simulation(tiny_scenario(duration=1.0), "OURS", config=config)
