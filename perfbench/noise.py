"""Measure the benchmark's own noise floor (A/A spread per metric).

    python3 perfbench/noise.py --seeds 0-9 [--workloads a,b] [--sets 2] \
        [--seconds 20] [--json OUT]

Runs ``run.py --trace 0`` once per (set, seed, workload), seed-major so
machine drift spreads evenly over the workloads.  For each workload and
end-to-end metric it prints the spread of the per-seed values, i.e.
(Q3 - Q1) / median from ``statistics.quantiles(values, n=4)``, next to
the metric's bound in BENCHMARK.json, and with ``--sets 2`` how far the
second set's median moved from the first's.  A bound tighter than three
times the measured spread cannot resolve a change of that size.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import spread  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="write every run's output here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    # values[set][workload][metric] -> per-seed values
    values: List[Dict[str, Dict[str, List[float]]]] = []
    raw = []
    for set_index in range(args.sets):
        values.append({w: {m: [] for m in bounds} for w in names})
        for seed in seeds:
            for workload in names:
                out = run_once(workload, seed, args.seconds)
                raw.append({"set": set_index, "workload": workload, "seed": seed, **out})
                if not out["correct"]:
                    print(f"{workload} seed {seed}: output check failed", file=sys.stderr)
                for metric, entry in out["metrics"].items():
                    values[set_index][workload][metric].append(entry["value"])
                print(f"set {set_index} seed {seed} {workload}: done", file=sys.stderr)
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1))

    worst = {m: 0.0 for m in bounds}
    print(f"{'workload':18s} {'metric':18s} {'median':>12s} {'spread':>8s} "
          f"{'bound':>6s} {'drift':>8s}")
    for workload in names:
        for metric, bound in bounds.items():
            first = values[0][workload][metric]
            s = max(spread(v[workload][metric]) for v in values)
            worst[metric] = max(worst[metric], s)
            drift = ""
            if args.sets > 1:
                a = statistics.median(first)
                b = statistics.median(values[1][workload][metric])
                drift = f"{(b - a) / a:+.3f}"
            flag = "" if s * 3 <= bound else ("  >bound/3" if s <= bound else "  >bound")
            print(f"{workload:18s} {metric:18s} {statistics.median(first):12.5g} "
                  f"{s:8.4f} {bound:6.3f} {drift:>8s}{flag}")
    print("worst spread per metric (3x this is the tightest resolvable bound):")
    for metric, s in worst.items():
        print(f"  {metric:18s} {s:.4f}  -> 3x = {3 * s:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
