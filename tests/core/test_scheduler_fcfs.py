"""Tests for the FCFS scheduler family."""

import pytest

from repro.core.chunks import Dataset, UniformDecomposition
from repro.core.fcfs import FCFSLScheduler, FCFSScheduler, FCFSUScheduler
from repro.core.job import JobType
from repro.core.scheduler_base import Trigger
from repro.util.units import GiB, MiB

from tests.conftest import MiniHarness, assignments_by_chunk


class TestFCFS:
    def test_trigger_immediate(self):
        assert FCFSScheduler.trigger is Trigger.IMMEDIATE

    def test_all_tasks_assigned_exactly_once(self, harness, dataset_1g):
        sched = FCFSScheduler()
        job = harness.job(dataset_1g)
        sched.schedule([job], harness.ctx)
        assignments = harness.ctx.take_assignments()
        assert len(assignments) == 4
        assert {a.task for a in assignments} == set(job.tasks)

    def test_spreads_by_available_time(self, harness, dataset_1g):
        """4 equal tasks on 4 idle nodes → one per node."""
        sched = FCFSScheduler()
        job = harness.job(dataset_1g)
        sched.schedule([job], harness.ctx)
        nodes = sorted(a.node for a in harness.ctx.take_assignments())
        assert nodes == [0, 1, 2, 3]

    def test_ignores_locality(self, harness, dataset_1g):
        """A cached chunk on a loaded node is NOT preferred."""
        sched = FCFSScheduler()
        j1 = harness.job(dataset_1g)
        sched.schedule([j1], harness.ctx)
        harness.ctx.take_assignments()
        # All nodes now equally booked with one cold task each; chunk 0
        # cached (predicted) on node 0.  A new job over the same data is
        # again spread by available time only — chunk 0 goes to node 0
        # only if it happens to be the min-available node.
        j2 = harness.job(dataset_1g)
        sched.schedule([j2], harness.ctx)
        assignments = harness.ctx.take_assignments()
        assert len(assignments) == 4  # greedy always assigns

    def test_arrival_order_respected(self, harness):
        """Jobs scheduled in list order (first come, first served)."""
        ds_small = Dataset("small", 256 * MiB)  # 1 task
        sched = FCFSScheduler()
        jobs = [harness.job(ds_small, action=i) for i in range(4)]
        sched.schedule(jobs, harness.ctx)
        assignments = harness.ctx.take_assignments()
        assert [a.task.job.action for a in assignments] == [0, 1, 2, 3]


class TestFCFSL:
    def test_prefers_cached_node(self, harness, dataset_1g):
        sched = FCFSLScheduler()
        j1 = harness.job(dataset_1g)
        sched.schedule([j1], harness.ctx)
        first = assignments_by_chunk(harness.ctx.take_assignments())
        j2 = harness.job(dataset_1g)
        sched.schedule([j2], harness.ctx)
        second = assignments_by_chunk(harness.ctx.take_assignments())
        # Every chunk returns to the node that cached it.
        assert first == second

    def test_spills_when_cached_node_overloaded(self, harness, dataset_1g):
        """If the caching node's backlog exceeds the I/O cost, the task
        goes elsewhere (the dynamic-balance property of §V-A)."""
        sched = FCFSLScheduler()
        ds_small = Dataset("small", 256 * MiB)
        j1 = harness.job(ds_small)
        sched.schedule([j1], harness.ctx)
        (a1,) = harness.ctx.take_assignments()
        cached_node = a1.node
        # Pile far more than one I/O worth of predicted work onto it.
        io = harness.tables.io_estimate(j1.tasks[0].chunk)
        harness.tables.available[cached_node] += 3 * io
        j2 = harness.job(ds_small)
        sched.schedule([j2], harness.ctx)
        (a2,) = harness.ctx.take_assignments()
        assert a2.node != cached_node

    def test_sticks_with_cached_node_under_small_backlog(
        self, harness, dataset_1g
    ):
        sched = FCFSLScheduler()
        ds_small = Dataset("small", 256 * MiB)
        j1 = harness.job(ds_small)
        sched.schedule([j1], harness.ctx)
        (a1,) = harness.ctx.take_assignments()
        # Node drained but re-booked with a backlog smaller than the
        # I/O cost → staying put is cheaper than a cold load elsewhere.
        harness.tables.available[a1.node] = 0.2
        j2 = harness.job(ds_small)
        sched.schedule([j2], harness.ctx)
        (a2,) = harness.ctx.take_assignments()
        assert a2.node == a1.node


class TestFCFSU:
    def test_uniform_decomposition(self):
        sched = FCFSUScheduler()
        policy = sched.make_decomposition(node_count=4, chunk_max=256 * MiB)
        assert isinstance(policy, UniformDecomposition)
        assert policy.node_count == 4

    def test_chunk_pinned_to_node(self, dataset_1g):
        harness = MiniHarness()
        sched = FCFSUScheduler()
        harness_ctx = harness.ctx
        # Swap in the uniform policy as the service would.
        harness_ctx.decomposition = sched.make_decomposition(4, 256 * MiB)
        job = harness.job(dataset_1g)
        sched.schedule([job], harness_ctx)
        assignments = harness_ctx.take_assignments()
        assert len(assignments) == 4
        for a in assignments:
            assert a.node == a.task.chunk.index

    def test_wrong_task_count_rejected(self, harness):
        """FCFSU with the chunked policy (wrong wiring) fails loudly."""
        sched = FCFSUScheduler()
        # Chunked policy yields 2 tasks for 512 MiB — not one per node.
        job = harness.job(Dataset("half", 512 * MiB))
        with pytest.raises(ValueError, match="one task per node"):
            sched.schedule([job], harness.ctx)
