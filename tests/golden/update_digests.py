"""Regenerate the committed golden digests (``tests/golden/digests.json``).

Each trace cell runs one scenario under one scheduler with
``RunConfig(record_assignments=True)`` and pins the assignment-trace
hash and length.  Each observation cell runs with every observer on
(tracer, metrics, timeline, stream) and pins one hash per observer
output; each sink cell pins ``events_processed`` with exactly one
observer on.  ``tests/sim/test_golden_digests.py`` recomputes every
cell and compares it with the committed file, so a deterministic change
in scheduling or observed behaviour fails the suite instead of passing
unnoticed.

Run from the repository root::

    python tests/golden/update_digests.py

Regenerating changes what the suite accepts as correct: every use must
be justified in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from typing import Any, Dict, Iterable, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(_HERE, "digests.json")

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(_HERE, os.pardir, os.pardir, "src"))

from repro.core.registry import SCHEDULER_NAMES  # noqa: E402
from repro.faults.plan import FaultPlan  # noqa: E402
from repro.obs.stream import StreamConfig, read_stream  # noqa: E402
from repro.obs.tracer import Tracer  # noqa: E402
from repro.sim.run_config import RunConfig  # noqa: E402
from repro.sim.simulator import run_simulation  # noqa: E402
from repro.workload.scenarios import make_scenario  # noqa: E402

#: Per-scenario scales: large enough that every scheduler places work
#: through all its phases (scenario 1 completes no tasks below 0.1),
#: small enough for the tier-1 suite.
SCENARIO_SCALES: List[Tuple[int, float]] = [(1, 0.1), (2, 0.1), (3, 0.02), (4, 0.01)]

#: Fault cells: a healing storm crashes, revives and quarantines nodes,
#: driving the tables' failure and recovery paths.
STORM_SEED = 1
STORM_SCENARIOS: List[Tuple[int, float]] = [(1, 0.1), (2, 0.1)]
STORM_SCHEDULERS = ["OURS", "FCFSL", "FCFS", "RR"]

#: ``(key, scenario number, scale, scheduler, storm seed or None)``.
Cell = Tuple[str, int, float, str, Optional[int]]


def _cells() -> List[Cell]:
    cells: List[Cell] = []
    for number, scale in SCENARIO_SCALES:
        for scheduler in sorted(SCHEDULER_NAMES):
            cells.append((f"s{number}@{scale}/{scheduler}", number, scale, scheduler, None))
    for number, scale in STORM_SCENARIOS:
        for scheduler in STORM_SCHEDULERS:
            key = f"s{number}@{scale}/{scheduler}+storm{STORM_SEED}"
            cells.append((key, number, scale, scheduler, STORM_SEED))
    return cells


CELLS: List[Cell] = _cells()

#: Observation cells: ``(key, scenario number, scale, scheduler)`` run
#: with a tracer, metrics, a timeline and a stream all on.
OBS_TIMELINE_INTERVAL = 0.25
OBS_CELLS: List[Tuple[str, int, float, str]] = [
    (f"obs:s{number}@{scale}/{scheduler}", number, scale, scheduler)
    for number, scale in [(1, 0.1), (2, 0.1)]
    for scheduler in ["FCFS", "OURS"]
]

#: Stream record fields that depend on the wall clock or on how many
#: observer events share the queue; the observation hashes skip them.
STREAM_UNPINNED = frozenset({"wall_s", "events", "d_events"})

#: Sink cells: ``(key, observer)`` on s2@0.1/OURS with one observer on.
SINKS = ["tracer", "metrics", "stream", "timeline"]
SINK_CELLS: List[Tuple[str, str]] = [
    (f"events:s2@0.1/OURS+{sink}", sink) for sink in SINKS
]


def compute_digest(
    number: int, scale: float, scheduler: str, storm: Optional[int]
) -> Dict[str, object]:
    """Run one cell; return its trace hash and length."""
    scenario = make_scenario(number, scale=scale)
    faults = None
    if storm is not None:
        faults = FaultPlan.storm(
            storm,
            node_count=scenario.system.node_count,
            duration=scenario.trace.duration,
            heal=True,
        )
    result = run_simulation(
        scenario, scheduler, RunConfig(record_assignments=True, faults=faults)
    )
    trace = result.assignment_trace
    if not trace:
        raise AssertionError(f"empty assignment trace for {number}/{scheduler}")
    return {"hash": result.assignment_trace_hash(), "length": len(trace)}


def _canon(value: Any) -> str:
    """A bit-exact text form: floats as hex, dict keys sorted."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{k!r}:{_canon(v)}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    return repr(value)


def _hash_rows(rows: Iterable[Any]) -> Dict[str, object]:
    digest = hashlib.sha256()
    length = 0
    for row in rows:
        digest.update(_canon(row).encode())
        digest.update(b"\n")
        length += 1
    return {"hash": digest.hexdigest(), "length": length}


def _observed_run(number: int, scale: float, scheduler: str, sinks, tmp: str):
    scenario = make_scenario(number, scale=scale)
    config = RunConfig(
        tracer=Tracer() if "tracer" in sinks else None,
        metrics="metrics" in sinks,
        timeline_interval=OBS_TIMELINE_INTERVAL if "timeline" in sinks else None,
        stream=(
            StreamConfig(path=os.path.join(tmp, "run.ndjson"))
            if "stream" in sinks
            else None
        ),
    )
    return run_simulation(scenario, scheduler, config)


def compute_observation_digest(
    number: int, scale: float, scheduler: str
) -> Dict[str, object]:
    """Run one cell with every observer on; hash each observer's output."""
    with tempfile.TemporaryDirectory() as tmp:
        result = _observed_run(number, scale, scheduler, SINKS, tmp)
        records = read_stream(os.path.join(tmp, "run.ndjson"))
    stream = [
        {k: v for k, v in r.items() if k not in STREAM_UNPINNED}
        for r in records
        if r["type"] in ("run", "snapshot", "anomaly")
    ]
    return {
        "counters": _hash_rows(
            (e.pid, e.name, e.ts, e.args)
            for e in result.tracer.events
            if e.phase == "C"
        ),
        "windows": _hash_rows(
            dataclasses.astuple(w) for w in result.metrics.windows
        ),
        "timeline": _hash_rows(
            dataclasses.astuple(s) for s in result.timeline_samples.samples
        ),
        "stream": _hash_rows(stream),
    }


def compute_sink_events(sink: str) -> Dict[str, object]:
    """``events_processed`` of s2@0.1/OURS with only ``sink`` on."""
    with tempfile.TemporaryDirectory() as tmp:
        result = _observed_run(2, 0.1, "OURS", [sink], tmp)
    return {"events_processed": result.events_processed}


def load_digests() -> Dict[str, Dict[str, object]]:
    """The committed digests, keyed by cell."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    digests = {
        key: compute_digest(number, scale, scheduler, storm)
        for key, number, scale, scheduler, storm in CELLS
    }
    for key, number, scale, scheduler in OBS_CELLS:
        digests[key] = compute_observation_digest(number, scale, scheduler)
    for key, sink in SINK_CELLS:
        digests[key] = compute_sink_events(sink)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
