"""Golden digests: scheduling and observed behaviour are pinned by committed values.

Every other trace-hash test compares two runs from the same checkout,
so a deterministic change in behaviour passes them all.  These tests
compare each cell against ``tests/golden/digests.json``: the
assignment-trace hash and length of every trace cell, the per-observer
output hashes of every observation cell, and ``events_processed`` of
every single-observer cell.  Regenerate the file only with
``python tests/golden/update_digests.py`` and a stated reason.
"""

import pytest

from tests.golden.update_digests import (
    CELLS,
    OBS_CELLS,
    SINK_CELLS,
    compute_digest,
    compute_observation_digest,
    compute_sink_events,
    load_digests,
)

DIGESTS = load_digests()


def test_every_cell_is_pinned():
    keys = [cell[0] for cell in CELLS + OBS_CELLS + SINK_CELLS]
    assert sorted(DIGESTS) == sorted(keys)


@pytest.mark.parametrize(
    "key,number,scale,scheduler,storm", CELLS, ids=[cell[0] for cell in CELLS]
)
def test_trace_matches_golden_digest(key, number, scale, scheduler, storm):
    expected = DIGESTS[key]
    assert expected["length"] > 0
    assert compute_digest(number, scale, scheduler, storm) == expected, key


@pytest.mark.parametrize(
    "key,number,scale,scheduler", OBS_CELLS, ids=[cell[0] for cell in OBS_CELLS]
)
def test_observation_matches_golden_digest(key, number, scale, scheduler):
    expected = DIGESTS[key]
    assert all(part["length"] > 0 for part in expected.values())
    assert compute_observation_digest(number, scale, scheduler) == expected, key


@pytest.mark.parametrize("key,sink", SINK_CELLS, ids=[cell[0] for cell in SINK_CELLS])
def test_single_observer_event_count_matches_golden(key, sink):
    assert compute_sink_events(sink) == DIGESTS[key], key
