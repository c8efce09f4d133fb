"""Tests for the Round-Robin baseline."""

import pytest

from repro.core.chunks import Dataset
from repro.core.rr import RRScheduler
from repro.core.scheduler_base import Trigger
from repro.util.units import GiB, MiB

from tests.conftest import MiniHarness


class TestRR:
    def test_trigger_immediate(self):
        assert RRScheduler.trigger is Trigger.IMMEDIATE

    def test_cyclic_dealing(self, harness, dataset_1g):
        sched = RRScheduler()
        job = harness.job(dataset_1g)
        sched.schedule([job], harness.ctx)
        nodes = [a.node for a in harness.ctx.take_assignments()]
        assert nodes == [0, 1, 2, 3]

    def test_cursor_persists_across_jobs(self, harness):
        sched = RRScheduler()
        ds = Dataset("small", 512 * MiB)  # 2 tasks
        sched.schedule([harness.job(ds)], harness.ctx)
        first = [a.node for a in harness.ctx.take_assignments()]
        sched.schedule([harness.job(ds)], harness.ctx)
        second = [a.node for a in harness.ctx.take_assignments()]
        assert first == [0, 1]
        assert second == [2, 3]

    def test_ignores_load(self, harness, dataset_1g):
        """A saturated node still receives its turn (RR's blindness)."""
        sched = RRScheduler()
        harness.tables.available[1] = 100.0
        job = harness.job(dataset_1g)
        sched.schedule([job], harness.ctx)
        nodes = [a.node for a in harness.ctx.take_assignments()]
        assert 1 in nodes

    def test_skips_failed_nodes(self, harness, dataset_1g):
        sched = RRScheduler()
        harness.tables.mark_node_failed(1)
        job = harness.job(dataset_1g)
        sched.schedule([job], harness.ctx)
        nodes = [a.node for a in harness.ctx.take_assignments()]
        assert 1 not in nodes
        assert len(nodes) == 4

    def test_all_failed_raises(self, harness, dataset_1g):
        sched = RRScheduler()
        for k in range(4):
            harness.tables.mark_node_failed(k)
        with pytest.raises(RuntimeError, match="no schedulable"):
            sched.schedule([harness.job(dataset_1g)], harness.ctx)

    def test_reset(self, harness):
        sched = RRScheduler()
        ds = Dataset("small", 256 * MiB)
        sched.schedule([harness.job(ds)], harness.ctx)
        harness.ctx.take_assignments()
        sched.reset()
        sched.schedule([harness.job(ds)], harness.ctx)
        (a,) = harness.ctx.take_assignments()
        assert a.node == 0

    def test_registry_has_rr(self):
        from repro.core.registry import SCHEDULER_NAMES, make_scheduler

        assert "RR" in SCHEDULER_NAMES
        assert isinstance(make_scheduler("rr"), RRScheduler)

    def test_end_to_end_poor_locality(self):
        """On Scenario 1 (scaled), RR lands between FCFS and the
        locality-aware schedulers: balanced but cache-blind."""
        from repro.sim.simulator import run_simulation
        from repro.workload.scenarios import scenario_1

        sc = scenario_1(scale=0.2)
        rr = run_simulation(sc, "RR")
        ours = run_simulation(sc, "OURS")
        assert rr.interactive_fps < 0.5 * ours.interactive_fps
        assert rr.hit_rate < ours.hit_rate
