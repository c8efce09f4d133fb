"""The per-invocation heap of ``place_min_available`` is exact.

``place_min_available`` keeps one heap of ``(Available[k], k)`` for a
whole task sequence instead of scanning ``Available`` per task.  Driven
side by side with the sequential ``min_available_node()`` + ``assign``
loop it replaced, from the same tables state, both must produce the
same node sequence and leave identical tables behind: the available
times, every mirror's LRU order, the replica sets, the pending
estimates and (when the run is audited) the decision records.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import Dataset
from repro.core.scheduler_base import SchedulerContext, place_min_available
from repro.obs.audit import REASON_ONLY_AVAILABLE, AuditConfig, AuditLog
from repro.util.units import GiB, MiB

from tests.conftest import MiniHarness

#: Few distinct values so ties are common; +inf stands for failed or
#: quarantined nodes.
_TIME = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.5, math.inf]),
    st.floats(0.0, 5.0, allow_nan=False),
)

DATASETS = [Dataset(f"ds-{i}", 1 * GiB) for i in range(3)]  # 4 chunks each


def build(available, executors, warm, now, audited):
    """A harness whose tables start from the given state."""
    # Two 256 MiB chunks per node: placements evict as well as insert.
    harness = MiniHarness(node_count=len(available), memory_quota=512 * MiB)
    tables = harness.tables
    tables.executors_per_node = executors
    for dataset, index, node in warm:
        chunk = harness.decomposition.decompose(DATASETS[dataset])[index]
        tables.warm(chunk, node % len(available))
    tables.available[:] = available
    log = AuditLog(AuditConfig()) if audited else None
    harness.ctx = SchedulerContext(
        harness.cluster, tables, harness.decomposition, audit=log
    )
    if now:
        harness.advance(now)
    return harness, log


def state(harness, log):
    tables = harness.tables
    return {
        "available": list(tables.available),
        "mirrors": [m.chunks() for m in tables.mirrors],
        "replicas": {c: set(nodes) for c, nodes in tables._replicas.items()},
        "pending": list(tables._pending_est.items()),
        "pending_per_node": list(tables._pending_per_node),
        "records": None if log is None else [r.to_dict() for r in log.records],
    }


@given(
    available=st.lists(_TIME, min_size=1, max_size=8),
    executors=st.sampled_from([1, 2]),
    picks=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=40
    ),
    warm=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 7)),
        max_size=10,
    ),
    now=st.sampled_from([0.0, 1.0]),
    audited=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_heap_matches_sequential_scan(
    available, executors, picks, warm, now, audited
):
    heap_side, heap_log = build(available, executors, warm, now, audited)
    scan_side, scan_log = build(available, executors, warm, now, audited)
    # One task per pick; repeated (dataset, chunk) picks reuse a chunk.
    tasks = [
        heap_side.ctx.decompose(heap_side.job(DATASETS[d]))[i] for d, i in picks
    ]

    place_min_available(tasks, heap_side.ctx)
    for task in tasks:
        scan_side.ctx.assign(
            task, scan_side.tables.min_available_node(), REASON_ONLY_AVAILABLE
        )

    heap_nodes = [a.node for a in heap_side.ctx.take_assignments()]
    scan_nodes = [a.node for a in scan_side.ctx.take_assignments()]
    assert heap_nodes == scan_nodes
    assert state(heap_side, heap_log) == state(scan_side, scan_log)
    heap_side.tables.check_invariants()


def test_each_placement_goes_through_assign():
    """Bounds check, tables and assignment list all see every task."""
    harness = MiniHarness(node_count=4)
    seen = []
    assign = harness.ctx.assign

    class Spy(SchedulerContext):
        __slots__ = ()

        def assign(self, task, node, reason=None):
            seen.append((task, node, reason))
            assign(task, node, reason)

    spy = Spy(harness.cluster, harness.tables, harness.decomposition)
    tasks = spy.decompose(harness.job(Dataset("ds-spy", 1 * GiB)))
    place_min_available(tasks, spy)
    assert [t for t, _n, _r in seen] == tasks
    assert {r for _t, _n, r in seen} == {REASON_ONLY_AVAILABLE}
    assert len(harness.tables._pending_est) == len(tasks)
