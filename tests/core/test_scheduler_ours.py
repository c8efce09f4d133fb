"""Tests for OURS — the paper's Algorithm 1."""

import pytest

from repro.core.chunks import Dataset
from repro.core.job import JobType
from repro.core.ours import OursScheduler
from repro.core.scheduler_base import Trigger
from repro.util.units import GiB, MiB

from tests.conftest import MiniHarness, assignments_by_chunk


@pytest.fixture
def ours() -> OursScheduler:
    return OursScheduler(cycle=0.015)


class TestBasics:
    def test_trigger_cycle(self):
        assert OursScheduler.trigger is Trigger.CYCLE

    def test_validation(self):
        with pytest.raises(ValueError):
            OursScheduler(cycle=0)

    def test_empty_cycle_noop(self, ours, harness):
        ours.schedule([], harness.ctx)
        assert harness.ctx.take_assignments() == []


class TestInteractiveHeuristics:
    def test_same_chunk_same_cycle_same_node(self, ours, harness, dataset_1g):
        """Heuristic 3: interactive tasks over the same chunk within a
        cycle all land on one rendering node."""
        jobs = [harness.job(dataset_1g, action=i) for i in range(3)]
        ours.schedule(jobs, harness.ctx)
        by_chunk = assignments_by_chunk(harness.ctx.take_assignments())
        assert len(by_chunk) == 4
        for nodes in by_chunk.values():
            assert len(nodes) == 3
            assert len(set(nodes)) == 1

    def test_interactive_scheduled_immediately(self, ours, harness, dataset_1g):
        job = harness.job(dataset_1g)
        ours.schedule([job], harness.ctx)
        assert len(harness.ctx.take_assignments()) == 4
        assert ours.pending_task_count() == 0

    def test_cached_chunk_goes_to_cached_node(self, ours, harness, dataset_1g):
        chunks = harness.decomposition.decompose(dataset_1g)
        harness.tables.warm(chunks[0], 3)
        job = harness.job(dataset_1g)
        ours.schedule([job], harness.ctx)
        by_chunk = assignments_by_chunk(harness.ctx.take_assignments())
        assert by_chunk[chunks[0].key] == [3]

    def test_load_spreads_to_other_nodes_when_cached_node_backed_up(
        self, ours, harness
    ):
        """§V-A: following cycles may pick other nodes to distribute the
        workload once the caching node is saturated."""
        ds = Dataset("hot", 256 * MiB)
        chunk = harness.decomposition.decompose(ds)[0]
        harness.tables.warm(chunk, 0)
        io = harness.tables.io_estimate(chunk)
        harness.tables.available[0] += 2 * io
        job = harness.job(ds)
        ours.schedule([job], harness.ctx)
        (a,) = harness.ctx.take_assignments()
        assert a.node != 0

    def test_noncached_longest_estimate_first(self, ours, harness):
        """Non-cached interactive chunks are ordered by Estimate (LPT)."""
        big = Dataset("big", 1 * GiB)  # 4 chunks of 256 MiB
        small = Dataset("small", 128 * MiB)  # 1 chunk of 128 MiB
        j_small = harness.job(small, action=0)
        j_big = harness.job(big, action=1)
        ours.schedule([j_small, j_big], harness.ctx)
        assignments = harness.ctx.take_assignments()
        # The 256 MiB chunks (larger estimate) precede the 128 MiB one.
        sizes = [a.task.chunk.size for a in assignments]
        assert sizes.index(128 * MiB) == len(sizes) - 1


class TestBatchDeferral:
    def test_batch_deferred_when_nodes_busy(self, ours, harness, dataset_1g):
        """Heuristic 2: batch jobs are held until nodes become available."""
        for k in range(harness.cluster.node_count):
            harness.tables.available[k] = 100.0  # booked far past λ
        job = harness.job(dataset_1g, job_type=JobType.BATCH)
        ours.schedule([job], harness.ctx)
        assert harness.ctx.take_assignments() == []
        assert ours.pending_task_count() == 4

    def test_deferred_batch_runs_on_later_cycle(self, ours, harness, dataset_1g):
        for k in range(harness.cluster.node_count):
            harness.tables.available[k] = 100.0
        job = harness.job(dataset_1g, job_type=JobType.BATCH)
        ours.schedule([job], harness.ctx)
        harness.ctx.take_assignments()
        # Nodes drain; a later (empty) cycle picks the backlog up — the
        # nodes never served interactive work, so ε is satisfied.
        for k in range(harness.cluster.node_count):
            harness.tables.available[k] = 0.0
        ours.schedule([], harness.ctx)
        assert len(harness.ctx.take_assignments()) == 4
        assert ours.pending_task_count() == 0

    def test_cached_batch_fills_node_until_lambda(self, ours, harness):
        """Algorithm 1 lines 16-22: cached batch tasks fill a node only
        until its predicted available time crosses the next cycle."""
        ds = Dataset("anim", 256 * MiB)
        chunk = harness.decomposition.decompose(ds)[0]
        harness.tables.warm(chunk, 1)
        # Other nodes recently served interactive work, so the cold-
        # batch phase (ε test) cannot place overflow copies there.
        now = harness.cluster.now
        for k in (0, 2, 3):
            harness.tables.last_interactive_assign[k] = now
        jobs = [
            harness.job(ds, job_type=JobType.BATCH, action=i, sequence=i)
            for i in range(100)
        ]
        ours.schedule(jobs, harness.ctx)
        assignments = harness.ctx.take_assignments()
        assert 0 < len(assignments) < 100
        assert all(a.node == 1 for a in assignments)
        # Exactly enough renders to book node 1 past λ = 15 ms.
        render = harness.cost.render_time(chunk.size, 1)
        import math

        assert len(assignments) == math.ceil(ours.cycle / render)
        assert ours.pending_task_count() == 100 - len(assignments)

    def test_cold_batch_respects_interactive_idle_threshold(
        self, ours, harness, dataset_1g
    ):
        """Heuristic 4 / ε: a node that served interactive work recently
        does not start a cold batch load."""
        interactive = harness.job(dataset_1g)
        ours.schedule([interactive], harness.ctx)
        harness.ctx.take_assignments()
        # All four nodes just served interactive tasks at t=0.  Nodes
        # drain instantly in the tables for the sake of the test:
        for k in range(harness.cluster.node_count):
            harness.tables.available[k] = 0.0
        cold = harness.job(
            Dataset("cold", 256 * MiB), job_type=JobType.BATCH
        )
        ours.schedule([cold], harness.ctx)
        assert harness.ctx.take_assignments() == []
        assert ours.pending_task_count() == 1

    def test_cold_batch_runs_after_idle_period(self, ours, harness, dataset_1g):
        interactive = harness.job(dataset_1g)
        ours.schedule([interactive], harness.ctx)
        harness.ctx.take_assignments()
        cold = harness.job(Dataset("cold", 256 * MiB), job_type=JobType.BATCH)
        ours.schedule([cold], harness.ctx)
        harness.ctx.take_assignments()
        assert ours.pending_task_count() == 1
        # Simulate a long interactive lull: ε = Estimate/2 ≈ 1.3 s.
        harness.advance(10.0)
        for k in range(harness.cluster.node_count):
            harness.tables.available[k] = harness.cluster.now
        ours.schedule([], harness.ctx)
        assert len(harness.ctx.take_assignments()) == 1
        assert ours.pending_task_count() == 0

    def test_noncached_batch_fewest_replicas_first(self, ours, harness):
        """Backlog chunks with no replicas anywhere are placed before
        chunks already cached on (saturated) nodes."""
        replicated = Dataset("replicated", 256 * MiB)
        fresh = Dataset("fresh", 256 * MiB)
        chunk_r = harness.decomposition.decompose(replicated)[0]
        harness.tables.warm(chunk_r, 0)
        # Node 0 saturated so the cached-batch phase cannot take it.
        harness.tables.available[0] = 100.0
        j_r = harness.job(replicated, job_type=JobType.BATCH, action=0)
        j_f = harness.job(fresh, job_type=JobType.BATCH, action=1)
        ours.schedule([j_r, j_f], harness.ctx)
        assignments = harness.ctx.take_assignments()
        assert assignments, "idle nodes should take cold batch work"
        assert assignments[0].task.job is j_f

    def test_interactive_priority_over_batch(self, ours, harness, dataset_1g):
        """Interactive tasks of a cycle are all placed before any batch
        task of the same cycle."""
        batch = harness.job(dataset_1g, job_type=JobType.BATCH, action=0)
        live = harness.job(dataset_1g, action=1)
        ours.schedule([batch, live], harness.ctx)
        assignments = harness.ctx.take_assignments()
        kinds = [a.task.job.job_type for a in assignments]
        first_batch = kinds.index(JobType.BATCH) if JobType.BATCH in kinds else len(kinds)
        assert all(k is JobType.INTERACTIVE for k in kinds[:first_batch])
        assert all(k is JobType.BATCH for k in kinds[first_batch:])

    def test_reset_clears_backlog(self, ours, harness, dataset_1g):
        for k in range(harness.cluster.node_count):
            harness.tables.available[k] = 100.0
        ours.schedule(
            [harness.job(dataset_1g, job_type=JobType.BATCH)], harness.ctx
        )
        harness.ctx.take_assignments()
        assert ours.pending_task_count() == 4
        ours.reset()
        assert ours.pending_task_count() == 0
