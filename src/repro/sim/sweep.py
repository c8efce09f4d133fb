"""Experiment harness: parameter sweeps and seed replication.

The Fig. 8/9-style studies are parameter sweeps (vary one knob, run the
simulation, tabulate metrics), and rigorous comparisons need
replication over workload seeds.  This module packages both patterns so
benches, examples, and downstream studies don't re-implement the loop.

Both :func:`sweep` and :func:`replicate` accept an opt-in ``workers=N``
to fan the independent runs out over a process pool.  Results are
keyed deterministically — ``(value, scheduler)`` for sweeps, seed order
for replication — so the parallel path returns exactly what the serial
path would (the simulator itself is deterministic).  Parallel execution
requires the scenario factory, schedulers, and the
:class:`~repro.sim.run_config.RunConfig` to be picklable (module-level
functions, registry names, and a frontend-bearing ``RunConfig`` are;
lambdas and closures are not).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.scheduler_base import Scheduler
from repro.reporting.report import sweep_table
from repro.sim.run_config import RunConfig
from repro.sim.simulator import SimulationResult, _run
from repro.workload.scenarios import Scenario

ScenarioFactory = Callable[..., Scenario]
SchedulerLike = Union[str, Callable[[], Scheduler]]


def _instantiate(scheduler: SchedulerLike) -> Union[str, Scheduler]:
    return scheduler() if callable(scheduler) else scheduler


def _run_point(
    scenario_factory: Callable,
    point,
    scheduler: SchedulerLike,
    config: RunConfig,
) -> SimulationResult:
    """Worker body for one (sweep point | seed) × scheduler run.

    Module-level so it is picklable for :class:`ProcessPoolExecutor`;
    detaches the timeline sampler's service reference (a cycle through
    the whole cluster) before the result crosses the process boundary.
    """
    result = _run(scenario_factory(point), _instantiate(scheduler), config)
    if result.timeline_samples is not None:
        result.timeline_samples._service = None
    return result


def _run_grid(
    scenario_factory: Callable,
    points: Sequence,
    schedulers: Sequence[SchedulerLike],
    workers: Optional[int],
    config: RunConfig,
) -> List[SimulationResult]:
    """Run every (point, scheduler) pair, serially or on a process pool.

    Results come back in grid order (points outer, schedulers inner)
    either way, so callers key them identically on both paths.
    """
    pairs = [(point, sched) for point in points for sched in schedulers]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_point, scenario_factory, point, sched, config)
                for point, sched in pairs
            ]
            return [f.result() for f in futures]
    return [
        _run_point(scenario_factory, point, sched, config)
        for point, sched in pairs
    ]


@dataclass
class SweepResult:
    """Results of a one-dimensional parameter sweep."""

    parameter: str
    values: List[float]
    schedulers: List[str]
    results: Dict[tuple, SimulationResult] = field(default_factory=dict)

    def result(self, value: float, scheduler: str) -> SimulationResult:
        """The run at one sweep point."""
        return self.results[(value, scheduler)]

    def series(
        self, metric: Callable[[SimulationResult], float]
    ) -> Dict[str, List[float]]:
        """Extract ``metric`` per scheduler across the sweep."""
        return {
            s: [metric(self.results[(v, s)]) for v in self.values]
            for s in self.schedulers
        }

    def table(
        self,
        metric: Callable[[SimulationResult], float],
        *,
        title: str = "",
        fmt: str = "{:>12.2f}",
    ) -> str:
        """Render one metric as a Fig. 8/9-style text table."""
        return sweep_table(
            self.parameter, self.values, self.series(metric), title=title, fmt=fmt
        )


def sweep(
    parameter: str,
    values: Sequence[float],
    scenario_factory: Callable[[float], Scenario],
    schedulers: Sequence[SchedulerLike],
    *,
    workers: Optional[int] = None,
    config: Optional[RunConfig] = None,
) -> SweepResult:
    """Run ``scenario_factory(value)`` under each scheduler per value.

    Args:
        parameter: Display name of the swept knob.
        values: Sweep points (passed to the factory).
        scenario_factory: Builds the scenario for one sweep point.
        schedulers: Registry names or zero-arg factories.
        workers: Fan the independent runs out over a process pool of
            this size (``None``/``1`` = serial).  Requires picklable
            factory/schedulers/config; results are identical to the
            serial path.
        config: :class:`~repro.sim.run_config.RunConfig` applied to
            every run of the sweep (``None`` = all defaults).
    """
    if not values:
        raise ValueError("sweep needs at least one value")
    if not schedulers:
        raise ValueError("sweep needs at least one scheduler")
    run_config = config if config is not None else RunConfig()
    out = SweepResult(parameter=parameter, values=list(values), schedulers=[])
    names: List[str] = []
    grid = _run_grid(scenario_factory, values, schedulers, workers, run_config)
    index = 0
    for value in values:
        for _scheduler in schedulers:
            result = grid[index]
            index += 1
            out.results[(value, result.scheduler_name)] = result
            if result.scheduler_name not in names:
                names.append(result.scheduler_name)
    out.schedulers = names
    return out


@dataclass(frozen=True)
class MetricStats:
    """Mean and sample standard deviation of one metric across seeds."""

    mean: float
    std: float
    values: tuple

    @classmethod
    def of(cls, values: Sequence[float]) -> "MetricStats":
        n = len(values)
        if n == 0:
            return cls(mean=0.0, std=0.0, values=())
        mean = sum(values) / n
        if n == 1:
            return cls(mean=mean, std=0.0, values=tuple(values))
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        return cls(mean=mean, std=math.sqrt(var), values=tuple(values))

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.std:.3f} (n={len(self.values)})"


@dataclass
class ReplicationResult:
    """Seed-replicated metrics for one scheduler."""

    scheduler: str
    seeds: List[int]
    results: List[SimulationResult]

    def stat(self, metric: Callable[[SimulationResult], float]) -> MetricStats:
        """Aggregate ``metric`` across the replicas."""
        return MetricStats.of([metric(r) for r in self.results])

    @property
    def fps(self) -> MetricStats:
        """Delivered interactive framerate across seeds."""
        return self.stat(lambda r: r.interactive_fps)

    @property
    def interactive_latency(self) -> MetricStats:
        """Mean interactive latency across seeds."""
        return self.stat(lambda r: r.interactive_latency.mean)

    @property
    def hit_rate(self) -> MetricStats:
        """Executed-task hit rate across seeds."""
        return self.stat(lambda r: r.hit_rate)


def replicate(
    scenario_factory: Callable[[int], Scenario],
    scheduler: SchedulerLike,
    seeds: Sequence[int],
    *,
    workers: Optional[int] = None,
    config: Optional[RunConfig] = None,
) -> ReplicationResult:
    """Run ``scenario_factory(seed)`` once per seed under one scheduler.

    Quantifies the workload-seed sensitivity that single-trace
    comparisons (the paper's, and this repo's scenario benches) cannot.
    ``workers=N`` runs the seeds on a process pool (results keyed by
    seed order, identical to the serial path).  ``config`` applies one
    :class:`~repro.sim.run_config.RunConfig` to every replica.
    """
    if not seeds:
        raise ValueError("replicate needs at least one seed")
    run_config = config if config is not None else RunConfig()
    results = _run_grid(scenario_factory, seeds, [scheduler], workers, run_config)
    name: Optional[str] = results[-1].scheduler_name if results else None
    return ReplicationResult(
        scheduler=name or "?", seeds=list(seeds), results=results
    )


__all__ = [
    "SweepResult",
    "sweep",
    "MetricStats",
    "ReplicationResult",
    "replicate",
]
