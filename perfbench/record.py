"""Record the expected output digest of each workload for a range of seeds.

    python3 perfbench/record.py --seeds 0-31 [--workloads a,b] [--update]

Runs every process of each (workload, seed) once, untraced, and stores
the digest of each process's outputs in ``perfbench/expected.json``;
``run.py`` then fails every process whose digest differs.  An already recorded digest that comes out
different is an error unless ``--update`` is given: a digest changes
only when the simulated behaviour changes, and that must be deliberate.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from noise import parse_seeds  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args(argv)
    expected = run.load_expected()
    out_dir = HERE / "_out" / "record"
    changed = []
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            digests = []
            for k in range(workloads.WORKLOADS[workload].slices):
                record = run.launch(workload, seed, k, out_dir, traced=False)
                if not record["ok"]:
                    raise SystemExit(f"{workload} seed {seed}: {record['error']}")
                digests.append(record["digest"])
            table = expected.setdefault(workload, {})
            old = table.get(str(seed))
            if old is not None and old != digests:
                changed.append(f"{workload} seed {seed}")
                if not args.update:
                    continue
            table[str(seed)] = digests
            print(f"{workload} seed {seed}: recorded", file=sys.stderr)
    shutil.rmtree(out_dir, ignore_errors=True)
    ordered = {
        workload: dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        for workload, table in sorted(expected.items())
    }
    run.EXPECTED_PATH.write_text(json.dumps(ordered, indent=1) + "\n")
    if changed and not args.update:
        print("digest changed (kept the recorded one): " + ", ".join(changed),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
