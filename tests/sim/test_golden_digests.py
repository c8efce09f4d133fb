"""Golden digests: scheduling behaviour is pinned by committed values.

Every other trace-hash test compares two runs from the same checkout,
so a deterministic change in behaviour passes them all.  These tests
compare each cell's assignment-trace hash and length against
``tests/golden/digests.json``; regenerate it only with
``python tests/golden/update_digests.py`` and a stated reason.
"""

import pytest

from tests.golden.update_digests import CELLS, compute_digest, load_digests

DIGESTS = load_digests()


def test_every_cell_is_pinned():
    assert sorted(DIGESTS) == sorted(key for key, *_ in CELLS)


@pytest.mark.parametrize(
    "key,number,scale,scheduler,storm", CELLS, ids=[cell[0] for cell in CELLS]
)
def test_trace_matches_golden_digest(key, number, scale, scheduler, storm):
    expected = DIGESTS[key]
    assert expected["length"] > 0
    assert compute_digest(number, scale, scheduler, storm) == expected, key
