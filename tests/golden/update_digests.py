"""Regenerate the committed golden digests (``tests/golden/digests.json``).

Each trace cell runs one scenario under one scheduler with
``RunConfig(record_assignments=True)`` and pins the assignment-trace
hash and length.  Each observation cell runs with every observer on
(tracer, metrics, timeline, stream) and pins one hash per observer
output; each sink cell pins ``events_processed`` with exactly one
observer on.  Each metrics cell pins the final metrics registry of one
run (its JSONL snapshot and its Prometheus text).  Each CLI parser cell
pins one verb's flags, defaults and help text; each CLI output cell runs ``repro.cli.main`` on fixed argv
and pins the exit codes, stderr, stdout with its wall-clock fields
masked, and the names of the files written.
``tests/sim/test_golden_digests.py`` recomputes every cell and compares
it with the committed file, so a deterministic change in scheduling,
observed behaviour or the command line fails the suite instead of
passing unnoticed.

Run from the repository root::

    python tests/golden/update_digests.py

Regenerating changes what the suite accepts as correct: every use must
be justified in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from typing import Any, Dict, Iterable, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(_HERE, "digests.json")

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(_HERE, os.pardir, os.pardir, "src"))

from repro.cli import build_parser, main as cli_main  # noqa: E402
from repro.core.registry import SCHEDULER_NAMES  # noqa: E402
from repro.faults.plan import FaultPlan  # noqa: E402
from repro.frontend.config import (  # noqa: E402
    AdmissionConfig,
    BackpressureConfig,
    DegradeConfig,
    FrontendConfig,
)
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

#: Metrics cells: ``(key, scenario number, scale, scheduler, variant)``
#: run with ``metrics=True``.  ``variant`` is ``None``, ``"overload"``
#: (the frontend and 2.5x load of ``cli:simulate-overload``) or
#: ``"storm"`` (the healed storm below); s3 under FCFS is I/O-heavy.
METRICS_STORM_SEED = 11
METRICS_CELLS: List[Tuple[str, int, float, str, Optional[str]]] = [
    ("metrics:s2@0.1/OURS", 2, 0.1, "OURS", None),
    ("metrics:s2@0.1/FCFS", 2, 0.1, "FCFS", None),
    ("metrics:s2@0.03/OURS+overload", 2, 0.03, "OURS", "overload"),
    (f"metrics:s1@0.1/OURS+storm{METRICS_STORM_SEED}", 1, 0.1, "OURS", "storm"),
    ("metrics:s3@0.05/FCFS", 3, 0.05, "FCFS", None),
]

#: The scheduler-cost histogram times invocations on the wall clock;
#: the metrics hashes keep only its observation count.
SCHED_COST = "repro_sched_cost_seconds"

#: CLI parser cells: ``(key, verb)``, one per subcommand.
CLI_VERBS = [
    "simulate", "federate", "explain", "report", "faults",
    "watch", "render", "animate", "schedulers", "scenarios",
]
CLI_PARSER_CELLS: List[Tuple[str, str]] = [
    (f"cli-parser:{verb}", verb) for verb in CLI_VERBS
]

#: A stream with a header and no summary record: ``watch`` gives up on it.
_DEAD_STREAM = (
    '{"type": "run", "schema": 1, "scenario": "s", "scheduler": "OURS", '
    '"horizon": 6.0, "interval": 0.1, "shard": 0}\n'
)

_STORM_ARGV = [
    "faults", "--scenario", "1", "--scale", "0.05", "--storm", "11",
    "--audit", "{tmp}/fa.jsonl", "--report", "{tmp}/rca.json",
    "--stream", "{tmp}/fs.ndjson",
]

#: CLI output cells: ``(key, steps, files)``.  Each step is one argv
#: run through ``repro.cli.main`` in a fresh directory (``{tmp}`` in an
#: argument is that directory); ``files`` are written there first.
CLI_CELLS: List[Tuple[str, List[List[str]], Dict[str, str]]] = [
    ("cli:simulate-observed", [[
        "simulate", "--scenario", "2", "--scale", "0.05",
        "--schedulers", "OURS,FCFS", "--metrics", "{tmp}/m.jsonl",
        "--slo", "fps=33.33", "--slo", "latency:p95=0.25",
        "--trace", "{tmp}/t.json", "--audit", "{tmp}/a.jsonl",
        "--stream", "{tmp}/s.ndjson", "--per-action", "--profile",
    ]], {}),
    ("cli:simulate-overload", [[
        "simulate", "--scenario", "2", "--scale", "0.03", "--load", "2.5",
        "--admission", "sessions=8", "--queue-limit", "32:shed-oldest",
        "--degrade",
    ]], {}),
    ("cli:federate", [[
        "federate", "--scenario", "4", "--scale", "0.02", "--shards", "2",
        "--metrics", "{tmp}/fm.jsonl", "--stream", "{tmp}/fs.ndjson",
        "--out", "{tmp}/fed.html",
    ]], {}),
    ("cli:explain", [["explain", "--scenario", "2", "--scale", "0.05"]], {}),
    ("cli:report-svg", [[
        "report", "--scenario", "2", "--scale", "0.03",
        "--out", "{tmp}/r.html", "--svg", "{tmp}/tl.svg",
    ]], {}),
    ("cli:faults-storm", [_STORM_ARGV], {}),
    ("cli:watch-once", [_STORM_ARGV, ["watch", "{tmp}/fs.ndjson", "--once"]], {}),
    ("cli:schedulers", [["schedulers"]], {}),
    ("cli:scenarios", [["scenarios"]], {}),
    ("cli:err-simulate-unknown-scheduler", [["simulate", "--schedulers", "BOGUS"]], {}),
    ("cli:err-simulate-admission", [[
        "simulate", "--scenario", "2", "--scale", "0.03", "--admission", "bogus=1",
    ]], {}),
    ("cli:err-simulate-queue-limit", [[
        "simulate", "--scenario", "2", "--scale", "0.03", "--queue-limit", "fast",
    ]], {}),
    ("cli:err-simulate-load", [["simulate", "--scenario", "1", "--load", "2.0"]], {}),
    ("cli:err-simulate-stall-timeout", [["simulate", "--stall-timeout", "5"]], {}),
    ("cli:err-faults-unknown-scheduler", [["faults", "--scheduler", "BOGUS"]], {}),
    ("cli:err-faults-bad-plan", [["faults", "--plan", "meteor@1:node=0"]], {}),
    ("cli:err-faults-plan-and-storm", [[
        "faults", "--plan", "crash@1:node=0", "--storm", "7",
    ]], {}),
    ("cli:err-report-unknown-scheduler", [["report", "--schedulers", "BOGUS"]], {}),
    ("cli:err-report-three-schedulers", [["report", "--schedulers", "OURS,FCFS,SF"]], {}),
    ("cli:err-explain-one-scheduler", [["explain", "--schedulers", "OURS"]], {}),
    ("cli:err-explain-unknown-scheduler", [["explain", "--schedulers", "OURS,BOGUS"]], {}),
    ("cli:err-federate-unknown-scheduler", [["federate", "--scheduler", "BOGUS"]], {}),
    ("cli:err-federate-shards", [["federate", "--shards", "0"]], {}),
    ("cli:err-watch-missing", [["watch", "{tmp}/nope.ndjson", "--once"]], {}),
    ("cli:err-watch-poll", [["watch", "x.ndjson", "--poll", "0"]], {}),
    ("cli:err-watch-quiet", [[
        "watch", "{tmp}/dead.ndjson", "--poll", "0.02", "--idle-timeout", "0.2",
    ]], {"dead.ndjson": _DEAD_STREAM}),
]

#: Wall-clock fields of the CLI's output, masked before hashing:
#: watch's checkpoint lines (their count depends on run speed), the
#: ``in X.XXs wall`` and ``(N events/s)`` throughput fields, and the
#: host-time scheduling cost closing each comparison-table row.
_CLI_MASKS = [
    (re.compile(r"^wall .*\n", re.M), ""),
    (re.compile(r" in \d+\.\d+s wall"), " in <wall>"),
    (re.compile(r"\([\d,]+ events/s\)"), "(<rate> events/s)"),
    (re.compile(r"^(\S+(?: +\S+){5} +\S+%) +\S+$", re.M), r"\1 <cost>"),
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


def metrics_run(
    number: int,
    scale: float,
    scheduler: str,
    variant: Optional[str],
    registry=None,
):
    """Run one metrics cell (into ``registry`` when one is given)."""
    load = 2.5 if variant == "overload" else 1.0
    scenario = make_scenario(number, scale=scale, load=load)
    frontend = faults = None
    if variant == "overload":
        frontend = FrontendConfig(
            admission=AdmissionConfig(max_sessions=8),
            backpressure=BackpressureConfig(queue_limit=32, policy="shed-oldest"),
            degrade=DegradeConfig(),
        )
    elif variant == "storm":
        faults = FaultPlan.storm(
            METRICS_STORM_SEED,
            node_count=scenario.system.node_count,
            duration=scenario.trace.duration,
            heal=True,
        )
    config = RunConfig(
        metrics=registry if registry is not None else True,
        frontend=frontend,
        faults=faults,
    )
    return run_simulation(scenario, scheduler, config)


def compute_metrics_digest(
    number: int, scale: float, scheduler: str, variant: Optional[str]
) -> Dict[str, object]:
    """Hash one run's final registry: JSONL snapshot and Prometheus text."""
    registry = metrics_run(number, scale, scheduler, variant).metrics.registry
    snapshot = [
        {k: row[k] for k in ("name", "kind", "labels", "count")}
        if row["name"] == SCHED_COST
        else row
        for row in registry.snapshot()
    ]
    prometheus = [
        line
        for line in registry.to_prometheus().splitlines()
        if not line.startswith((f"{SCHED_COST}_bucket", f"{SCHED_COST}_sum"))
    ]
    return {"snapshot": _hash_rows(snapshot), "prometheus": _hash_rows(prometheus)}


def compute_cli_parser_digest(verb: str) -> Dict[str, object]:
    """Hash one verb's parser spec (not its ``--help`` rendering, which
    differs between Python versions)."""
    sub = next(
        a for a in build_parser()._actions if a.dest == "command"
    ).choices[verb]
    return _hash_rows(
        (
            a.option_strings,
            a.dest,
            a.default,
            list(a.choices) if a.choices is not None else None,
            a.help,
            getattr(a.type, "__name__", a.type),
            a.metavar,
        )
        for a in sub._actions
    )


def _mask(text: str, tmp: str) -> str:
    text = text.replace(tmp, "<tmp>")
    for pattern, replacement in _CLI_MASKS:
        text = pattern.sub(replacement, text)
    return text


def compute_cli_digest(
    steps: List[List[str]], files: Dict[str, str]
) -> Dict[str, object]:
    """Run each argv step in one fresh directory; pin exits, output, files."""
    exits = []
    stdout = hashlib.sha256()
    stderr = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for argv in steps:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                exits.append(cli_main([a.replace("{tmp}", tmp) for a in argv]))
            stdout.update(_mask(out.getvalue(), tmp).encode())
            stderr.update(_mask(err.getvalue(), tmp).encode())
        written = sorted(
            os.path.relpath(os.path.join(root, name), tmp)
            for root, _, names in os.walk(tmp)
            for name in names
            if name not in files
        )
    return {
        "exit": exits,
        "files": written,
        "stderr": stderr.hexdigest(),
        "stdout": stdout.hexdigest(),
    }


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
    for key, number, scale, scheduler, variant in METRICS_CELLS:
        digests[key] = compute_metrics_digest(number, scale, scheduler, variant)
    for key, verb in CLI_PARSER_CELLS:
        digests[key] = compute_cli_parser_digest(verb)
    for key, steps, files in CLI_CELLS:
        digests[key] = compute_cli_digest(steps, files)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
