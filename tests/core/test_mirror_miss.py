"""The head-node mirror's miss path: one LRU insert plus replica upkeep.

A miss in ``record_assignment`` (or ``warm``) inserts the chunk into the
node's mirror once, keeps the replica sets of the chunk and of every
evicted chunk exact, and tells the OURS backlog index only about chunks
it tracks.
"""

from repro.core.chunks import Dataset
from repro.core.ours import OursScheduler
from repro.core.tables import ReplicaBucketIndex
from repro.sim.simulator import run_simulation
from repro.util.units import GiB, MiB

from tests.conftest import MiniHarness
from tests.integration.test_invariants import random_scenario


class CountingIndex(ReplicaBucketIndex):
    """Backlog index that records every replica-count notification."""

    __slots__ = ("calls",)

    def __init__(self, tables) -> None:
        super().__init__(tables)
        self.calls = []

    def count_changed(self, chunk) -> None:
        self.calls.append(chunk)
        super().count_changed(chunk)


def miss_harness():
    """Two nodes holding two 256 MiB chunks each, a counting index."""
    harness = MiniHarness(node_count=2, memory_quota=512 * MiB)
    index = harness.tables.backlog_index = CountingIndex(harness.tables)
    return harness, index


def test_untracked_chunks_never_reach_the_index():
    harness, index = miss_harness()
    tasks = harness.ctx.decompose(harness.job(Dataset("ds-a", 2 * GiB)))
    for task in tasks:  # 8 misses on node 0, 6 of them evicting
        harness.ctx.assign(task, 0)
    assert index.calls == []
    mirror = harness.tables.mirrors[0]
    assert mirror.chunks() == [tasks[-2].chunk, tasks[-1].chunk]
    assert harness.tables.cached_nodes(tasks[0].chunk) == set()
    harness.tables.check_invariants()


def test_tracked_chunks_are_reported_on_insert_and_evict():
    harness, index = miss_harness()
    tables = harness.tables
    tasks = harness.ctx.decompose(harness.job(Dataset("ds-a", 1 * GiB)))
    tracked = tasks[0].chunk
    index.add(tracked)

    harness.ctx.assign(tasks[0], 1)  # insert of the tracked chunk
    assert index.calls == [tracked]
    harness.ctx.assign(tasks[1], 1)  # untracked insert, no eviction
    harness.ctx.assign(tasks[2], 1)  # evicts the tracked chunk
    assert index.calls == [tracked, tracked]
    assert tables.replica_count(tracked) == 0
    index.begin_pass()
    tables.check_invariants()


def test_warm_of_a_resident_chunk_is_a_touch():
    harness, index = miss_harness()
    tables = harness.tables
    a, b = harness.ctx.decompose(harness.job(Dataset("ds-a", 512 * MiB)))
    tables.warm(a.chunk, 0)
    tables.warm(b.chunk, 0)
    index.add(a.chunk)
    tables.warm(a.chunk, 0)
    assert tables.mirrors[0].chunks() == [b.chunk, a.chunk]
    assert index.calls == []
    assert tables.cached_nodes(a.chunk) == {0}


class CheckedOurs(OursScheduler):
    """OURS that checks every table invariant after each cycle."""

    def __init__(self) -> None:
        super().__init__()
        self.most_tracked = 0

    def schedule(self, jobs, ctx) -> None:
        super().schedule(jobs, ctx)
        tables = ctx.tables
        self.most_tracked = max(self.most_tracked, len(tables.backlog_index))
        tables.check_invariants()


def test_ours_run_with_mirror_misses_keeps_tables_consistent():
    """Mid-run, with a non-empty backlog index, every invariant holds."""
    scheduler = CheckedOurs()
    result = run_simulation(random_scenario(5), scheduler)
    assert sum(p.cache_misses for p in result.profile.nodes) > 0
    assert scheduler.most_tracked > 0
