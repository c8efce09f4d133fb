"""Observation costs exactly one event per probe tick and never moves placements.

Every sink rides the probe of its grid interval, one probe per distinct
interval: counters on ~256 ticks, metrics and the stream together on ~64,
the timeline on its own interval.  A run with every sink on therefore
processes exactly the summed probe ticks more events than a bare run,
and places every task identically.
"""

import pytest

from repro.obs.counters import TRACK_QUEUE
from repro.obs.stream import StreamConfig
from repro.obs.tracer import Tracer
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario


@pytest.mark.parametrize("drain", [False, True], ids=["horizon", "drain"])
def test_observation_costs_one_event_per_probe_tick(drain, tmp_path):
    bare = run_simulation(
        make_scenario(2, scale=0.1, seed=1),
        "OURS",
        RunConfig(drain=drain, record_assignments=True),
    )
    tracer = Tracer()
    observed = run_simulation(
        make_scenario(2, scale=0.1, seed=1),
        "OURS",
        RunConfig(
            drain=drain,
            record_assignments=True,
            tracer=tracer,
            metrics=True,
            timeline_interval=0.25,
            stream=StreamConfig(path=tmp_path / "run.ndjson"),
        ),
    )
    counter_ticks = sum(
        1 for e in tracer.events if e.phase == "C" and e.name == TRACK_QUEUE
    )
    # The attach-time tick closes no window; every later tick closes one.
    window_ticks = len(observed.metrics.windows) + 1
    timeline_ticks = len(observed.timeline_samples.samples)
    # The stream shares the metrics probe: one snapshot per window.
    assert observed.stream.snapshots == len(observed.metrics.windows)
    if not drain:
        assert (counter_ticks, window_ticks, timeline_ticks) == (257, 65, 49)
    extra = observed.events_processed - bare.events_processed
    assert extra == counter_ticks + window_ticks + timeline_ticks
    assert observed.assignment_trace_hash() == bare.assignment_trace_hash()
