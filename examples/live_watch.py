#!/usr/bin/env python3
"""Live telemetry streaming: watch a run from its NDJSON stream file.

A production visualization service is a long-lived process — the
operator's first question is always "what is it doing *right now*?".
This example runs Scenario 1 under OURS with a :class:`StreamConfig`
attached, so the simulator emits schema-versioned NDJSON snapshots on
the metric-window grid *while the run executes*, then replays the
stream file the way ``repro watch`` does: a live status table, fault
markers, online anomaly alarms, and the closing summary.

With ``--storm`` a deterministic four-fault storm is injected and the
online detectors (EWMA z-score + CUSUM) are scored against the ground
truth plan — the same leaves the ``BENCH_stream`` regression gate pins.

Run:
    python examples/live_watch.py [--scale 0.1] [--storm] [--out run.ndjson]
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from repro import RunConfig, run_simulation, scenario_1
from repro.faults import FaultPlan
from repro.obs import StreamConfig, read_stream, score_anomalies


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--storm", action="store_true",
                        help="inject the deterministic 4-fault storm")
    parser.add_argument("--out", type=Path, default=None,
                        help="stream file path (default: a temp file)")
    args = parser.parse_args()

    path = args.out or Path(tempfile.mkdtemp()) / "run.ndjson"
    scenario = scenario_1(scale=args.scale)

    plan = None
    if args.storm:
        plan = FaultPlan.storm(
            11,
            node_count=scenario.system.node_count,
            duration=scenario.trace.duration,
            heal=True,
        )

    result = run_simulation(
        scenario,
        "OURS",
        config=RunConfig(
            drain=args.storm,
            faults=plan,
            stream=StreamConfig(path=path),
        ),
    )
    report = result.stream
    print(f"streamed {report.snapshots} snapshots "
          f"({report.records_written} records) to {report.path}")
    print(f"{result.events_processed:,} events in "
          f"{result.wall_seconds:.2f}s wall "
          f"({result.events_per_sec:,.0f} events/s)\n")

    # Replay the file the way `repro watch` does — everything below
    # uses only the NDJSON records, not the in-memory result.
    records = read_stream(path)
    header = records[0]
    print(f"--- replaying {header['scenario']} / {header['scheduler']} "
          f"(schema {header['schema']}) ---")
    print(f"{'t':>7} {'done':>6} {'queue':>6} {'fps':>7} "
          f"{'p95 ms':>7} {'hit%':>6}")
    for record in records:
        kind = record["type"]
        if kind == "snapshot" and int(record["t"] / header["interval"]) % 8 == 0:
            print(f"{record['t']:7.1f} {record['jobs_completed']:6d} "
                  f"{record['outstanding']:6d} {record['fps']:7.2f} "
                  f"{record['latency_p95'] * 1e3:7.1f} "
                  f"{record['hit_rate'] * 100:6.1f}")
        elif kind == "fault":
            print(f"        fault: {record['kind']} at t={record['time']:.1f}s")
        elif kind == "anomaly":
            print(f"        !! {record['kind']} at t={record['time']:.1f}s "
                  f"({record['detector']}, score {record['score']:.1f})")
    summary = records[-1]
    print(f"--- summary: {summary['snapshots']} snapshots, "
          f"{summary['anomalies']} anomalies, {summary['stalls']} stalls ---")

    if plan is not None:
        grade = score_anomalies(report.anomalies, plan)
        print(f"\nonline detection score: {grade['localized']}/"
              f"{grade['total']} faults localized "
              f"(recall {grade['recall']:.0%}, "
              f"{grade['false_positives']} false positives)")


if __name__ == "__main__":
    main()
