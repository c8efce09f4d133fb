"""Report overhead: timeline extraction + render cost on Scenario 2.

The ``repro report`` pipeline post-processes a traced run — extraction
joins spans/audit/causal/fault data into the timeline model, then the
renderer emits the SVG/HTML.  Both stages must stay a small fraction of
the simulation they describe, or nobody generates reports routinely.
This bench measures the three stages (simulate, extract, render) on a
smoke-scale Scenario 2 A/B pair and emits
``benchmarks/results/BENCH_report.json`` for the regression gate.

The payload's deterministic leaves (segment/residency/marker counts and
output byte sizes) pin the report *content*: a renderer change that
silently drops half the Gantt, or a tracer change that stops emitting
cache instants, shifts these counts and fails the gate even though no
timing moved.
"""

from __future__ import annotations

import time
from typing import Dict

from benchmarks._shared import bench_scale, emit_json, emit_report
from repro.obs import (
    AuditConfig,
    Tracer,
    first_divergence,
    render_report_html,
    render_timeline_svg,
)
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import scenario_2

SCALE = bench_scale(0.05)
SCHEDULERS = ("OURS", "FCFS")
BINS = 60


def _run_pipeline() -> Dict[str, Dict[str, float]]:
    """One full report build, timed per stage."""
    sample: Dict[str, Dict[str, float]] = {}
    results, models = [], []
    sim_wall = extract_wall = 0.0
    for name in SCHEDULERS:
        scenario = scenario_2(scale=SCALE)
        start = time.perf_counter()
        result = run_simulation(
            scenario,
            name,
            config=RunConfig(
                tracer=Tracer(), audit=AuditConfig(capacity=None)
            ),
        )
        sim_wall += time.perf_counter() - start
        start = time.perf_counter()
        model = result.timeline()
        extract_wall += time.perf_counter() - start
        results.append(result)
        models.append(model)
    start = time.perf_counter()
    svg = render_timeline_svg(models[0], bins=BINS)
    svg_wall = time.perf_counter() - start
    divergence = first_divergence(results[0].audit, results[1].audit)
    start = time.perf_counter()
    page = render_report_html(models, divergence=divergence, bins=BINS)
    html_wall = time.perf_counter() - start
    model = models[0]
    sample["timing"] = {
        "wall_s": sim_wall + extract_wall + svg_wall + html_wall,
        "simulate_wall_s": sim_wall,
        "extract_wall_s": extract_wall,
        "render_svg_wall_s": svg_wall,
        "render_html_wall_s": html_wall,
    }
    # Deterministic content pins (virtual-time derived, byte-stable).
    sample["content"] = {
        "segments": float(len(model.segments)),
        "residency_spans": float(len(model.residency)),
        "datasets": float(len(model.datasets)),
        "markers": float(len(model.markers)),
        "paths": float(len(model.paths)),
        "svg_bytes": float(len(svg.encode("utf-8"))),
        "html_bytes": float(len(page.encode("utf-8"))),
    }
    return sample


def test_report_overhead(benchmark):
    """Measure and persist report extraction/render cost + content pins."""
    sample = benchmark.pedantic(_run_pipeline, rounds=1, iterations=1)
    timing = sample["timing"]
    content = sample["content"]

    payload = {
        "bench": "report_overhead",
        "scenario": "scenario2",
        "scale": SCALE,
        "schedulers": list(SCHEDULERS),
        "bins": BINS,
        "results": sample,
    }
    out = emit_json("report", payload)

    post_wall = (
        timing["extract_wall_s"]
        + timing["render_svg_wall_s"]
        + timing["render_html_wall_s"]
    )
    lines = [
        f"report overhead — scenario 2 A/B ({'+'.join(SCHEDULERS)}), "
        f"scale {SCALE}",
        "",
        f"   simulate: {timing['simulate_wall_s'] * 1e3:8.1f} ms",
        f"    extract: {timing['extract_wall_s'] * 1e3:8.1f} ms",
        f" render svg: {timing['render_svg_wall_s'] * 1e3:8.1f} ms",
        f"render html: {timing['render_html_wall_s'] * 1e3:8.1f} ms",
        "",
        f"segments {content['segments']:,.0f} · residency spans "
        f"{content['residency_spans']:,.0f} · svg "
        f"{content['svg_bytes'] / 1024:,.0f} KiB · html "
        f"{content['html_bytes'] / 1024:,.0f} KiB",
        f"machine-readable: {out}",
    ]
    emit_report("report_overhead", "\n".join(lines))

    # The report stages must stay cheap relative to the simulation they
    # describe (generous bounds: shared CI machines are noisy).
    assert content["segments"] > 0
    assert content["residency_spans"] > 0
    assert content["html_bytes"] > content["svg_bytes"] > 0
    assert post_wall < max(4.0 * timing["simulate_wall_s"], 5.0)
