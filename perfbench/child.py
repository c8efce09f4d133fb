"""One run of one workload in a fresh process.

    python3 perfbench/child.py --workload NAME --seed N --slice K \
        --out DIR --launched T [--trace]

``--launched`` is the launcher's ``time.perf_counter()`` reading just
before it started this process (a system-wide monotonic clock on
Linux), so set-up and total times include interpreter start-up.  The
run writes ``DIR/result.json``; with ``--trace`` it also writes its
spans to ``DIR/spans-*.pkl`` and the per-layer metrics into the result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import pickle
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


class Capture:
    """Light hooks present in every run, traced or not.

    They keep each run's result object for the output check and note
    when each process first enters the event loop, which ends set-up.
    One call each per simulation, so they cost nothing measurable.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self.results: list = []
        self.federated: list = []
        self.first_event = None

    def install(self) -> None:
        from repro.cluster.event_queue import EventQueue

        def keep(store, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                store.append(result)
                return result

            return wrapper

        spans.replace_function(
            "repro.sim.simulator", "run_simulation",
            lambda f: keep(self.results, f),
        )
        spans.replace_function(
            "repro.federation.federation", "run_federation",
            lambda f: keep(self.federated, f),
        )
        loop = EventQueue.run
        seen = set()

        @functools.wraps(loop)
        def run(queue, *args, **kwargs):
            pid = os.getpid()
            if pid not in seen:
                seen.add(pid)
                now = perf_counter()
                if pid == self.main_pid:
                    self.first_event = now
                else:
                    (self.out_dir / f"first-event-{pid}").write_text(repr(now))
            return loop(queue, *args, **kwargs)

        EventQueue.run = run

    def first_event_time(self) -> float:
        times = [
            float(p.read_text()) for p in self.out_dir.glob("first-event-*")
        ]
        if self.first_event is not None:
            times.append(self.first_event)
        return min(times)

    def sim_results(self) -> list:
        return self.results + [
            r for fed in self.federated for r in fed.shard_results
        ]


def usage_now() -> tuple:
    """(CPU seconds, peak RSS MiB) of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def layer_metrics(summary: dict, capture: Capture, stats: dict) -> dict:
    """Per-layer metrics of one traced run (see README.md for each)."""
    names = summary["names"]
    counts = summary["counts"]

    def calls(prefix: str) -> int:
        return sum(v["calls"] for n, v in names.items() if n.startswith(prefix))

    def total(prefix: str) -> float:
        return sum(v["total_s"] for n, v in names.items() if n.startswith(prefix))

    def self_s(prefix: str) -> float:
        return sum(v["self_s"] for n, v in names.items() if n.startswith(prefix))

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return a / b * scale if b else 0.0

    layer_self = {layer: 0.0 for layer in spans.LAYERS}
    for name, entry in names.items():
        layer_self[spans.layer_of(name)] += entry["self_s"]
    # The main process only waits while its pool workers run shards;
    # the workers' own spans account for that time.
    layer_self["federation"] -= summary["federation_wait_s"]
    all_self = sum(layer_self.values())

    results = capture.sim_results()
    tasks = sum(r.tasks_executed for r in results)
    events = calls("event:")
    assignments = counts.get("scheduler.assignments", 0)
    record_calls = names.get("tables.record_assignment", {}).get("calls", 0)
    mirror_inserts = counts.get("lru.mirror.inserts", 0)
    sampler_prefixes = {
        kind: f"event:{module}." for module, kind in spans.SAMPLER_MODULES.items()
    }
    m = {
        "event_queue.events": events,
        "event_queue.self_s": layer_self["event_queue"],
        "event_queue.ns_per_event": ratio(layer_self["event_queue"], events, 1e9),
        "event_queue.schedules": names.get("event_queue.schedule", {}).get("calls", 0)
        + counts.get("event_queue.bulk_schedules", 0),
        "service.submits": sum(r.jobs_submitted for r in results),
        "service.cycles": calls("event:repro.sim.service.VisualizationService._on_cycle"),
        "service.task_finishes": calls("service.task_finish"),
        "service.self_s": layer_self["service"],
        "scheduler.invocations": calls("scheduler.schedule."),
        "scheduler.assignments": assignments,
        "scheduler.self_s": layer_self["scheduler"],
        "scheduler.us_per_assignment": ratio(layer_self["scheduler"], assignments, 1e6),
        "scheduler.assignments_per_task": ratio(assignments, tasks),
        "tables.record_assignment.calls": record_calls,
        "tables.record_assignment.self_s": self_s("tables.record_assignment"),
        "tables.correct_completion.calls": calls("tables.correct_completion"),
        "tables.correct_completion.self_s": self_s("tables.correct_completion"),
        "tables.mirror_inserts": mirror_inserts,
        "tables.mirror_evictions": counts.get("lru.mirror.evictions", 0),
        "tables.mirror_miss_ratio": ratio(mirror_inserts, record_calls),
        "tables.self_s": layer_self["tables"],
        "node.dispatches": calls("node.dispatch"),
        "node.tasks_executed": tasks,
        "node.self_s": layer_self["node"],
        "node.us_per_task": ratio(layer_self["node"], tasks, 1e6),
        "node.cache_hit_ratio": ratio(
            sum(r.tasks_hit for r in results),
            sum(r.tasks_hit + r.tasks_missed for r in results),
        ),
        "memory.node_inserts": counts.get("lru.node.inserts", 0),
        "memory.node_evictions": counts.get("lru.node.evictions", 0),
        "storage.loads": counts.get("storage.loads", 0),
        "storage.bytes": counts.get("storage.bytes", 0),
        "job.decompose_calls": calls("job.decompose"),
        "job.tasks_built": counts.get("job.tasks_built", 0),
        "job.self_s": layer_self["job"],
        "collectors.records": calls("collectors.on_job_complete"),
        "collectors.self_s": layer_self["collectors"],
        "workload.requests": counts.get("workload.requests", 0),
        "workload.build_s": total("workload.make_scenario"),
        "setup.import_s": stats["import_s"],
        "setup.build_s": summary["setup_build_s"],
        "obs.sampler_self_s": sum(self_s(p) for p in sampler_prefixes.values()),
        "obs.audit_decisions": sum(len(r.audit) for r in results if r.audit),
        "obs.timeline_extract_s": total("obs.extract_timeline"),
        "obs.render_s": total("obs.render."),
        "obs.report_bytes": counts.get("obs.report_bytes", 0),
        "federation.build_shards_s": total("federation.build_shards"),
        "federation.shard_loop_s": sum(
            r.wall_seconds for fed in capture.federated for r in fed.shard_results
        ),
        "federation.pool_overhead_s": total("federation.run_federation")
        - total("federation.build_shards")
        - summary["federation_wait_s"],
        "federation.merge_s": self_s("federation.merge."),
        "federation.result_pickle_bytes": sum(
            len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL))
            for fed in capture.federated
            for r in fed.shard_results
        ),
        "cli.import_s": stats["cli_import_s"],
        "cli.export_s": total("obs.write_report"),
        "trace.coverage": ratio(
            sum(v["main_root_s"] for v in names.values()), stats["total_s"]
        ),
    }
    for kind, prefix in sampler_prefixes.items():
        m[f"obs.ticks.{kind}"] = calls(prefix)
    for layer in spans.LAYERS:
        m[f"{layer}.share"] = ratio(layer_self[layer], all_self)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slice", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    spec = workloads.WORKLOADS[args.workload]
    seeds = workloads.unit_seeds(args.seed, args.slice, spec.units)

    t = perf_counter()
    import repro  # noqa: F401

    import_s = perf_counter() - t
    cli_import_s = 0.0
    if spec.cli:
        t = perf_counter()
        import repro.cli  # noqa: F401

        cli_import_s = perf_counter() - t
    capture = Capture(out_dir)
    capture.install()
    recorder = spans.install(out_dir) if args.trace else None

    with open(out_dir / "program-output.txt", "w") as log, contextlib.redirect_stdout(log):
        status = spec.run(seeds, out_dir)
    done = perf_counter()
    cpu_s, peak_rss_mb = usage_now()
    if recorder is not None:
        recorder.dump()
    if status != 0:
        raise SystemExit(f"workload exited with status {status}")

    results = capture.sim_results()
    stats = {
        "total_s": done - args.launched,
        "setup_s": capture.first_event_time() - args.launched,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
        "cli_import_s": cli_import_s,
        "tasks": sum(r.tasks_executed for r in results),
        "assignments": sum(r.collector.scheduling.tasks_assigned for r in results),
        "events": sum(r.events_processed for r in results),
        "loop_s": sum(r.wall_seconds for r in results),
    }
    digest, problems = spec.check(seeds, out_dir, capture)
    record = {"stats": stats, "digest": digest, "problems": problems}
    if recorder is not None:
        summary = spans.summarize(spans.load(out_dir), os.getpid())
        record["layers"] = layer_metrics(summary, capture, stats)
    (out_dir / "result.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
