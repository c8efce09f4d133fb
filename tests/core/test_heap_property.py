"""Model-based property tests for the min-available-node selection.

``SchedulerTables.min_available_node()`` and the inline scan in OURS'
interactive placement must both name the lowest-id node among those
with the minimal available time, never a failed or quarantined node
while a live one exists.  Both are checked against an independent
linear scan over a model of the table.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunks import Dataset
from repro.core.ours import OursScheduler
from repro.util.units import GiB

from tests.conftest import MiniHarness


def expected_node(values, excluded):
    """Lowest id with the minimal value among non-excluded nodes.

    With every node excluded the whole table sits at +inf and the
    first-minimum tie order names node 0.
    """
    best = None
    for k, value in enumerate(values):
        if k in excluded:
            continue
        if best is None or value < values[best]:
            best = k
    return 0 if best is None else best


def ours_choice(harness: MiniHarness) -> int:
    """Node the OURS inline scan picks for one uncached interactive chunk."""
    job = harness.job(Dataset("ds-prop", 1 * GiB))
    tasks = harness.ctx.decompose(job)[:1]
    OursScheduler()._place_interactive_chunk(
        tasks[0].chunk, tasks, harness.ctx, harness.tables, 0.0, None
    )
    (assignment,) = harness.ctx.take_assignments()
    return assignment.node


def test_min_node_correct_across_many_writes():
    """A long run of writes keeps the first-minimum tie order."""
    p = 8
    harness = MiniHarness(node_count=p)
    available = harness.tables.available
    for i in range(400):
        node = (i * 5) % p
        available[node] = float((i * 7919) % 100)
        best = harness.tables.min_available_node()
        assert best == available.index(min(available))


@given(
    n=st.integers(1, 12),
    ops=st.lists(
        st.tuples(st.integers(0, 11), st.floats(0.0, 100.0)), max_size=150
    ),
)
@settings(max_examples=100, deadline=None)
def test_min_node_matches_linear_scan(n, ops):
    """After any sequence of table writes both selections agree with a scan."""
    harness = MiniHarness(node_count=n)
    tables = harness.tables
    values = [0.0] * n
    for node, value in ops:
        node %= n
        values[node] = value
        tables.available[node] = value
        assert tables.min_available_node() == expected_node(values, set())
    assert ours_choice(harness) == expected_node(values, set())


@given(
    n=st.integers(2, 8),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "fail", "quarantine", "recover"]),
            st.integers(0, 7),
            st.floats(0.0, 50.0),
        ),
        max_size=60,
    ),
)
@settings(max_examples=100, deadline=None)
def test_min_excluding_matches_linear_scan(n, ops):
    """Failed and quarantined nodes are skipped until they recover."""
    harness = MiniHarness(node_count=n)
    tables = harness.tables
    values = [0.0] * n
    excluded = set()
    for op, node, value in ops:
        node %= n
        if op == "write":
            if node in excluded:
                continue  # nothing is assigned to an excluded node
            tables.available[node] = value
        elif op == "fail":
            tables.mark_node_failed(node)
            excluded.add(node)
        elif op == "quarantine":
            tables.quarantine(node)
            excluded.add(node)
        else:
            tables.mark_node_recovered(node, now=value)
            excluded.discard(node)
        values[node] = value
        assert tables.min_available_node() == expected_node(values, excluded)
    if len(excluded) < n:
        assert ours_choice(harness) == expected_node(values, excluded)
