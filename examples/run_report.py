#!/usr/bin/env python3
"""Build a self-contained HTML run report from a traced simulation.

Every run that carries a ``Tracer`` can be turned into a single HTML
file: per-node Gantt lanes (io/render/composite), queue-depth and
utilization tracks, a dataset→node cache-residency heatmap, SLO and
fault overlays, and the worst-p99 jobs with their critical paths drawn
onto the timeline.  With two schedulers the report renders the runs
side by side and marks the first scheduling decision where they
diverge — the moment the two policies stop being the same policy.

The CLI wraps this exact flow as ``repro report``; this example shows
the library API so reports can ride inside other experiments.

Run:
    python examples/run_report.py [--scale 0.1] [--out run.html]
"""

from __future__ import annotations

import argparse

from repro import RunConfig, run_simulation, scenario_2
from repro.obs import (
    AuditConfig,
    SLObjective,
    SLOMonitor,
    Tracer,
    first_divergence,
    render_report_html,
    write_report,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--out", default="run.html")
    args = parser.parse_args()

    results, models = [], []
    for name in ("OURS", "FCFS"):
        # Each run carries its own job-id allocator counting from 0,
        # so trace span names — and the rendered bytes — are identical
        # across reruns with no reset bookkeeping.
        scenario = scenario_2(scale=args.scale)
        result = run_simulation(
            scenario,
            name,
            config=RunConfig(
                tracer=Tracer(),  # spans + counters feed the Gantt
                audit=AuditConfig(capacity=None),  # decisions + paths
            ),
        )
        monitor = SLOMonitor(
            [SLObjective.parse(f"fps={scenario.target_framerate:g}")]
        )
        results.append(result)
        models.append(
            result.timeline(slo_reports=monitor.evaluate(result))
        )
        print(
            f"{name:>5}: fps {result.interactive_fps:6.2f} | hit "
            f"{result.hit_rate:.2%} | segments "
            f"{len(models[-1].segments)}"
        )

    divergence = first_divergence(results[0].audit, results[1].audit)
    if divergence is not None:
        print(
            f"first divergence at decision #{divergence.index}: "
            f"t={divergence.a.time:.3f}s — OURS chose node "
            f"{divergence.a.node} ({divergence.a.reason}), FCFS chose "
            f"node {divergence.b.node} ({divergence.b.reason})"
        )

    page = render_report_html(models, divergence=divergence)
    write_report(args.out, page)
    print(f"wrote {args.out} ({len(page) / 1024:.0f} KiB, self-contained)")


if __name__ == "__main__":
    main()
