"""The repository benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A *batch* of a workload is its
``slices`` fresh ``perfbench/child.py`` processes, one after the other,
each with a pinned environment and its own share of the seed's input
(see ``workloads.py``).  Every process's outputs are checked.

``--trace 0`` runs batches until ``--seconds`` is spent (at least one)
and reports the end-to-end metrics, each the median over batches.
``--trace 1`` runs the first slice untraced and traced in turn (at
least one pair) and reports the per-layer metrics of the traced runs.
A human-readable table goes to standard error; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Environment every process gets.  One BLAS/OpenMP thread: unpinned,
#: the numpy import starts a thread per core and CPU time exceeds wall
#: time.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: A process that takes longer than this is killed and counted as failed.
RUN_TIMEOUT_S = 60.0
#: No new batch or pair starts after this many seconds.
BUDGET_CAP_S = 120.0
EXPECTED_PATH = HERE / "expected.json"


def quartiles(values: Sequence[float]) -> List[float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(workload: str, seed: int, slice_index: int, out_dir: Path,
           traced: bool) -> dict:
    """Run one slice of the workload in a fresh process; return its record.

    The record carries ``ok`` (ran and passed its own checks) and
    ``error``; its ``digest`` is compared with the expected one later.
    """
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--slice", str(slice_index),
        "--out", str(out_dir),
    ]
    if traced:
        cmd.append("--trace")
    log_path = out_dir / "child-log.txt"
    with open(log_path, "w") as log:
        launched = perf_counter()
        proc = subprocess.Popen(
            cmd + ["--launched", repr(launched)],
            stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # The session holds the process and any pool workers it forked.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = None
    base = {"slice": slice_index, "traced": traced}
    result_path = out_dir / "result.json"
    if code != 0 or not result_path.exists():
        tail = log_path.read_text(errors="replace").strip().splitlines()[-5:]
        reason = "timed out" if code is None else f"exit code {code}"
        return {**base, "ok": False, "digest": None,
                "error": f"{reason}: {' | '.join(tail)}"}
    record = json.loads(result_path.read_text())
    record.update(base)
    record["ok"] = not record["problems"]
    record["error"] = "; ".join(record["problems"])
    return record


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, Dict[str, List[str]]]:
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def judge(records: List[dict], expected: Optional[List[str]]) -> List[dict]:
    """Mark each process failed whose digest is wrong; return the records.

    With recorded digests for this seed, each slice must match its own.
    Without, every process of a slice (untraced and traced alike) must
    match the first one that passed its checks.
    """
    reference: Dict[int, Optional[str]] = {}
    for record in records:
        k = record["slice"]
        if k not in reference:
            if expected is not None:
                reference[k] = expected[k] if k < len(expected) else None
            else:
                reference[k] = next(
                    (r["digest"] for r in records if r["ok"] and r["slice"] == k),
                    None,
                )
        if record["ok"] and record["digest"] != reference[k]:
            record["ok"] = False
            record["error"] = (
                f"slice {k}: output digest {record['digest'][:16]} != expected "
                f"{(reference[k] or '-')[:16]}"
            )
    return records


def error_rate(records: List[dict]) -> float:
    """Processes that failed or whose output check failed, over attempted."""
    return sum(1 for r in records if not r["ok"]) / len(records)


def batch_metrics(batch: List[dict]) -> Dict[str, float]:
    """End-to-end metrics of one complete batch.

    Times and CPU add up over the batch's processes; set-up time and
    peak memory are per process, so they are the median over them.
    """
    stats = [r["stats"] for r in batch]
    return {
        "total_s": sum(s["total_s"] for s in stats),
        "setup_s": statistics.median(s["setup_s"] for s in stats),
        "cpu_s": sum(s["cpu_s"] for s in stats),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in stats),
        "assignments_per_s": sum(s["assignments"] for s in stats)
        / sum(s["loop_s"] for s in stats),
    }


def end_to_end(records: List[dict], slices: int) -> Dict[str, float]:
    """Median of each end-to-end metric over the batches that passed."""
    batches = [records[i:i + slices] for i in range(0, len(records), slices)]
    rows = [
        batch_metrics(b) for b in batches
        if len(b) == slices and all(r["ok"] for r in b)
    ]
    if not rows:
        return {}
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def per_layer(records: List[dict]) -> Dict[str, float]:
    """Median of each per-layer metric over the traced runs that passed."""
    traced = [r for r in records if r["ok"] and r["traced"]]
    plain = [r for r in records if r["ok"] and not r["traced"]]
    if not traced or not plain:
        return {}
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead"] = statistics.median(
        r["stats"]["total_s"] for r in traced
    ) / statistics.median(r["stats"]["total_s"] for r in plain)
    for name, key in (("event_queue.events_per_s", "events"),
                      ("node.tasks_per_s", "tasks")):
        metrics[name] = statistics.median(
            r["stats"][key] / r["stats"]["loop_s"] for r in plain
        )
    return metrics


def metric_units(kind: str) -> Dict[str, str]:
    """Name → unit of the ``end_to_end`` or ``per_layer`` metrics, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> List[dict]:
    """Launch the workload's processes; return their judged records."""
    spec = workloads.WORKLOADS[workload]
    out_root = HERE / "_out" / f"{workload}-seed{seed}-trace{int(trace)}"
    # Compile once so no process pays for writing bytecode.
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    # One untraced/traced pair of the first slice, or one full batch.
    round_plan = [(0, False), (0, True)] if trace else [
        (k, False) for k in range(spec.slices)
    ]
    start = perf_counter()
    records: List[dict] = []
    while True:
        round_start = perf_counter()
        for slice_index, traced in round_plan:
            records.append(launch(
                workload, seed, slice_index,
                out_root / f"run{len(records)}", traced,
            ))
        now = perf_counter()
        if now - start + (now - round_start) > min(seconds, BUDGET_CAP_S):
            break
    shutil.rmtree(out_root, ignore_errors=True)
    expected = load_expected().get(workload, {}).get(str(seed))
    return judge(records, expected)


def print_table(workload: str, seed: int, records: List[dict], recorded: bool,
                metrics: dict, units: dict) -> None:
    err = sys.stderr
    failed = sum(1 for r in records if not r["ok"])
    print(f"workload {workload}, seed {seed}: {len(records)} processes, "
          f"{failed} failed, error_rate {error_rate(records):.3f} fraction",
          file=err)
    if not recorded:
        print("  no recorded digest for this seed: processes were checked "
              "against each other", file=err)
    for r in records:
        if not r["ok"]:
            print(f"  FAILED: {r['error']}", file=err)
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units.get(name, '')}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    records = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        units = metric_units("per_layer")
        metrics = per_layer(records)
    else:
        units = metric_units("end_to_end")
        metrics = end_to_end(records, workloads.WORKLOADS[args.workload].slices)
    metrics = {name: metrics[name] for name in units if name in metrics}
    recorded = str(args.seed) in load_expected().get(args.workload, {})
    print_table(args.workload, args.seed, records, recorded, metrics, units)
    if not metrics:
        print("no complete passing run; no metrics to report", file=sys.stderr)
        return 1
    failed = sum(1 for r in records if not r["ok"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
