"""The benchmark's workloads: how each one runs and how its output is checked.

One run of a workload is ``slices`` fresh processes (see ``child.py``),
one after the other; each process runs ``units`` jobs to completion,
one at a time.  A unit is one ``repro.simulate`` call or one
``repro.cli.main(argv)`` call, with its own scenario seed derived from
the benchmark seed, so one benchmark seed fixes the whole input.

One Scenario-2 trace holds few user actions and batch submissions, so
the work in a single trace varies by ~16% from seed to seed.  Summing
many traces per run is what keeps the per-seed spread of the
end-to-end metrics small.

The output check runs after the timed region and reduces a process's
outputs to one sha256 digest plus a list of broken invariants.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from html.parser import HTMLParser
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

SEED_STRIDE = 1000


def unit_seeds(seed: int, slice_index: int, units: int) -> List[int]:
    """Scenario seeds of one process's units (disjoint across processes)."""
    first = seed * SEED_STRIDE + slice_index * units
    return list(range(first, first + units))


@dataclass(frozen=True)
class SimBatch:
    """Scenario × scheduler through the public ``repro.simulate`` API."""

    scenario: int
    scheduler: str
    scale: float
    slices: int
    units: int
    cli = False

    def run(self, seeds: Sequence[int], out_dir: Path) -> int:
        import repro

        for seed in seeds:
            repro.simulate(self.scenario, self.scheduler, scale=self.scale, seed=seed)
        return 0

    def check(self, seeds: Sequence[int], out_dir: Path, capture) -> Tuple[str, List[str]]:
        results = capture.results
        problems = sim_invariants(results)
        if len(results) != len(seeds):
            problems.append(f"expected {len(seeds)} runs, got {len(results)}")
        return digest_results(results), problems


@dataclass(frozen=True)
class CliReport:
    """``repro report`` A/B from argv: two traced, audited runs → HTML."""

    scenario: int
    schedulers: Tuple[str, str]
    scale: float
    slices: int
    units: int
    cli = True

    def argv(self, seed: int, out_dir: Path) -> List[str]:
        return [
            "report",
            "--scenario", str(self.scenario),
            "--schedulers", ",".join(self.schedulers),
            "--scale", repr(self.scale),
            "--seed", str(seed),
            "--out", str(out_dir / f"report-{seed}.html"),
        ]

    def run(self, seeds: Sequence[int], out_dir: Path) -> int:
        import repro.cli

        return max(repro.cli.main(self.argv(seed, out_dir)) for seed in seeds)

    def check(self, seeds: Sequence[int], out_dir: Path, capture) -> Tuple[str, List[str]]:
        import repro.cli

        problems = sim_invariants(capture.results)
        runs = len(self.schedulers) * len(seeds)
        if len(capture.results) != runs:
            problems.append(f"expected {runs} runs, got {len(capture.results)}")
        h = hashlib.sha256()
        for seed in seeds:
            html = (out_dir / f"report-{seed}.html").read_text(encoding="utf-8")
            problems += html_problems(html)
            for name in self.schedulers:
                if name not in html:
                    problems.append(f"report for seed {seed} does not name {name}")
            # The page embeds the package version; a version bump is not
            # a change in behaviour, so it is masked before hashing.
            h.update(html.replace(repro.cli.package_version(), "<version>").encode())
        return h.hexdigest(), problems


@dataclass(frozen=True)
class CliFederate:
    """``repro federate`` from argv on a process pool."""

    scenario: int
    shards: int
    workers: int
    scale: float
    slices: int
    units: int
    cli = True

    def argv(self, seed: int, out_dir: Path) -> List[str]:
        return [
            "federate",
            "--scenario", str(self.scenario),
            "--shards", str(self.shards),
            "--workers", str(self.workers),
            "--scale", repr(self.scale),
            "--seed", str(seed),
            "--out", str(out_dir / f"federation-{seed}.html"),
        ]

    def run(self, seeds: Sequence[int], out_dir: Path) -> int:
        import repro.cli

        return max(repro.cli.main(self.argv(seed, out_dir)) for seed in seeds)

    def check(self, seeds: Sequence[int], out_dir: Path, capture) -> Tuple[str, List[str]]:
        from repro import build_shards, make_scenario

        if len(capture.federated) != len(seeds):
            return "", [
                f"expected {len(seeds)} federated runs, got {len(capture.federated)}"
            ]
        problems: List[str] = []
        h = hashlib.sha256()
        for seed, fed in zip(seeds, capture.federated):
            problems += sim_invariants(fed.shard_results)
            scenario = make_scenario(
                self.scenario, scale=self.scale, seed=seed, users=self.shards
            )
            trace = scenario.trace
            _, _, pairs = build_shards(scenario, fed.config)
            routed = sum(len(shard.trace.requests) for shard, _ in pairs)
            if routed != len(trace.requests):
                problems.append(
                    f"seed {seed}: shards hold {routed} of "
                    f"{len(trace.requests)} input requests"
                )
            # Generators may emit a request just past the trace duration;
            # a run bounded by that horizon never submits it, federated
            # or not.
            in_window = sum(1 for r in trace.requests if r.time <= trace.duration)
            if fed.jobs_submitted != in_window:
                problems.append(
                    f"seed {seed}: merged submissions {fed.jobs_submitted} != "
                    f"{in_window} input requests within the horizon"
                )
            problems += html_problems(
                (out_dir / f"federation-{seed}.html").read_text(encoding="utf-8")
            )
            h.update(
                f"{fed.digest()}|{fed.jobs_submitted}|{fed.jobs_completed}|"
                f"{fed.tasks_executed}|{fed.events_processed}\n".encode()
            )
        return h.hexdigest(), problems


#: Sizes are set so one run takes about ``run_seconds`` on a 2-core x86
#: host.
WORKLOADS: Dict[str, object] = {
    "s2-ours-locality": SimBatch(
        scenario=2, scheduler="OURS", scale=0.5, slices=4, units=4
    ),
    "s3-fcfs-overload": SimBatch(
        scenario=3, scheduler="FCFS", scale=0.08, slices=3, units=3
    ),
    "report-ab-cli": CliReport(
        scenario=2, schedulers=("OURS", "FCFS"), scale=0.4, slices=2, units=2
    ),
    "federate-2w": CliFederate(
        scenario=2, shards=2, workers=2, scale=0.5, slices=3, units=3
    ),
}


# -- output checks -------------------------------------------------------------


def digest_results(results: Sequence) -> str:
    """sha256 over each run's counters and its job records (floats via hex)."""
    h = hashlib.sha256()
    for r in results:
        h.update(
            f"{r.events_processed}|{r.tasks_executed}|"
            f"{r.collector.scheduling.tasks_assigned}|{r.jobs_completed}|"
            f"{r.tasks_hit}\n".encode()
        )
        for record in r.records:
            h.update(
                "|".join(
                    v.hex() if isinstance(v, float) else repr(v) for v in record
                ).encode()
            )
            h.update(b"\n")
    return h.hexdigest()


def sim_invariants(results: Sequence) -> List[str]:
    problems = []
    for k, r in enumerate(results):
        assigned = r.collector.scheduling.tasks_assigned
        # Hits and misses are tallied when a task starts, executions when
        # it ends: at a horizon, up to one task per executor is mid-run.
        started = r.tasks_hit + r.tasks_missed
        executors = sum(node.executors for node in r.profile.nodes)
        if r.drained and started != r.tasks_executed:
            problems.append(f"run {k}: hits + misses != tasks executed")
        if not 0 <= started - r.tasks_executed <= executors:
            problems.append(
                f"run {k}: {started} tasks started, {r.tasks_executed} executed"
            )
        if assigned < r.tasks_executed:
            problems.append(f"run {k}: {assigned} assignments < {r.tasks_executed} tasks")
        if not 0 < r.jobs_completed <= r.jobs_submitted:
            problems.append(
                f"run {k}: {r.jobs_completed} of {r.jobs_submitted} jobs completed"
            )
    return problems


#: Elements that never take a closing tag.
VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta source track wbr".split()
)


class _TagBalance(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.stack: List[str] = []
        self.problems: List[str] = []

    def handle_starttag(self, tag, attrs):
        if tag not in VOID_TAGS:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in VOID_TAGS:
            return
        if not self.stack or self.stack[-1] != tag:
            self.problems.append(
                f"</{tag}> closes <{self.stack[-1] if self.stack else '-'}>"
            )
            return
        self.stack.pop()


def html_problems(html: str) -> List[str]:
    """Why ``html`` is not a well-formed page (empty when it is)."""
    if not html.lstrip().lower().startswith("<!doctype html>"):
        return ["page does not start with <!DOCTYPE html>"]
    parser = _TagBalance()
    parser.feed(html)
    parser.close()
    problems = parser.problems[:3]
    if parser.stack:
        problems.append(f"unclosed tags: {parser.stack[-3:]}")
    return problems
