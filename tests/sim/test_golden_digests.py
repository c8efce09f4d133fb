"""Golden digests: scheduling and observed behaviour are pinned by committed values.

Every other trace-hash test compares two runs from the same checkout,
so a deterministic change in behaviour passes them all.  These tests
compare each cell against ``tests/golden/digests.json``: the
assignment-trace hash and length of every trace cell, the per-observer
output hashes of every observation cell, ``events_processed`` of every
single-observer cell, the final metrics registry of every metrics
cell, each CLI verb's parser spec, and the exit codes,
output and written files of every CLI case.  Regenerate the file only with
``python tests/golden/update_digests.py`` and a stated reason.
"""

import pytest

from tests.golden.update_digests import (
    CELLS,
    CLI_CELLS,
    CLI_PARSER_CELLS,
    METRICS_CELLS,
    OBS_CELLS,
    SINK_CELLS,
    compute_cli_digest,
    compute_cli_parser_digest,
    compute_digest,
    compute_metrics_digest,
    compute_observation_digest,
    compute_sink_events,
    load_digests,
)

DIGESTS = load_digests()


def test_every_cell_is_pinned():
    cells = (
        CELLS + OBS_CELLS + SINK_CELLS + METRICS_CELLS + CLI_PARSER_CELLS + CLI_CELLS
    )
    keys = [cell[0] for cell in cells]
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


@pytest.mark.parametrize(
    "key,number,scale,scheduler,variant",
    METRICS_CELLS,
    ids=[cell[0] for cell in METRICS_CELLS],
)
def test_metrics_registry_matches_golden(key, number, scale, scheduler, variant):
    expected = DIGESTS[key]
    assert all(part["length"] > 0 for part in expected.values())
    assert compute_metrics_digest(number, scale, scheduler, variant) == expected, key


@pytest.mark.parametrize(
    "key,verb", CLI_PARSER_CELLS, ids=[cell[0] for cell in CLI_PARSER_CELLS]
)
def test_cli_parser_matches_golden(key, verb):
    assert compute_cli_parser_digest(verb) == DIGESTS[key], key


@pytest.mark.parametrize(
    "key,steps,files", CLI_CELLS, ids=[cell[0] for cell in CLI_CELLS]
)
def test_cli_output_matches_golden(key, steps, files):
    assert compute_cli_digest(steps, files) == DIGESTS[key], key
