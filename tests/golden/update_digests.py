"""Regenerate the committed golden digests (``tests/golden/digests.json``).

Each cell runs one scenario under one scheduler with
``RunConfig(record_assignments=True)`` and pins the assignment-trace
hash and length.  ``tests/sim/test_golden_digests.py`` recomputes every
cell and compares it with the committed file, so a deterministic change
in scheduling behaviour fails the suite instead of passing unnoticed.

Run from the repository root::

    python tests/golden/update_digests.py

Regenerating changes what the suite accepts as correct: every use must
be justified in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(_HERE, "digests.json")

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(_HERE, os.pardir, os.pardir, "src"))

from repro.core.registry import SCHEDULER_NAMES  # noqa: E402
from repro.faults.plan import FaultPlan  # noqa: E402
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


def load_digests() -> Dict[str, Dict[str, object]]:
    """The committed digests, keyed by cell."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    digests = {
        key: compute_digest(number, scale, scheduler, storm)
        for key, number, scale, scheduler, storm in CELLS
    }
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
