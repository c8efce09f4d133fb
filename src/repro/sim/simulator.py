"""Top-level simulation runner: scenario x scheduler → results.

:func:`run_simulation` wires a scenario's cluster, a scheduler, and the
workload trace into one discrete-event run and returns a
:class:`SimulationResult` with everything the evaluation section reports
(framerates, latencies, hit rates, scheduling costs, utilization).

Run options travel in one :class:`~repro.sim.run_config.RunConfig`::

    result = run_simulation(scenario, "OURS", config=RunConfig(drain=True))

:func:`compare_schedulers` runs the same scenario under several policies
— the shape of Figs. 4-7.
"""

from __future__ import annotations

import gc
import hashlib
import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultReport
    from repro.obs.stream import StreamReport

from repro.cluster.cluster import Cluster
from repro.cluster.event_queue import PRIORITY_ARRIVAL, EventQueue
from repro.core.cost_model import mean
from repro.core.job import JobIdAllocator, JobType
from repro.core.registry import make_scheduler
from repro.core.scheduler_base import Scheduler
from repro.reporting.analysis import (
    LatencyStats,
    SchedulerSummary,
    batch_working_time,
    delivered_framerates_by_action,
    framerates_by_action,
    latency_stats,
    mean_interactive_framerate,
    summarize,
)
from repro.reporting.collectors import JobRecord, SimulationCollector
from repro.reporting.timeline import TimelineSampler
from repro.obs.audit import AuditConfig, AuditLog
from repro.obs.causal import CausalCollector, CriticalPathAnalysis
from repro.obs.counters import CounterSampler, default_counter_interval
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsSampler,
    RunMetrics,
    default_window_interval,
)
from repro.obs.profile import ClusterProfile
from repro.obs.tracer import PID_HEAD, Tracer, active_tracer, pid_for_node
from repro.frontend.frontend import FrontendStats, ServiceFrontend
from repro.sim.run_config import RunConfig
from repro.sim.service import VisualizationService
from repro.workload.scenarios import Scenario


#: One completed task assignment: ``(user, action, sequence, task_index,
#: dataset, chunk_index, node_id, start_time, finish_time, io_time,
#: cache_hit)``.  Job ids are deliberately absent — they depend on the
#: run's id-allocator namespace, so shard-namespaced federated runs
#: would hash differently from otherwise-identical plain runs;
#: ``(user, action, sequence)`` identifies the job instead.
AssignmentRecord = Tuple[
    int, int, int, int, str, int, int, float, float, float, bool
]


def hash_assignment_trace(trace: Sequence[AssignmentRecord]) -> str:
    """A bit-exact digest of an assignment trace.

    Floats are hashed via :meth:`float.hex`, so two traces hash equal
    only when every timestamp matches to the last bit — the invariant
    the golden-trace tests pin across optimizations and across
    serial/parallel sweep execution.
    """
    digest = hashlib.sha256()
    for rec in trace:
        digest.update(
            "|".join(
                v.hex() if isinstance(v, float) else repr(v) for v in rec
            ).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class SimulationResult:
    """Everything measured in one scenario x scheduler run."""

    scenario_name: str
    scheduler_name: str
    horizon: float
    target_framerate: float
    collector: SimulationCollector
    jobs_submitted: int
    jobs_completed: int
    simulated_time: float
    events_processed: int
    mean_node_utilization: float
    drained: bool
    tasks_executed: int = 0
    tasks_hit: int = 0
    tasks_missed: int = 0
    timeline_samples: Optional["TimelineSampler"] = None
    profile: Optional["ClusterProfile"] = None
    tracer: Optional["Tracer"] = None
    metrics: Optional["RunMetrics"] = None
    frontend: Optional["FrontendStats"] = None
    assignment_trace: Optional[List[AssignmentRecord]] = None
    audit: Optional["AuditLog"] = None
    critical_paths: Optional["CriticalPathAnalysis"] = None
    fault_report: Optional["FaultReport"] = None
    #: Wall-clock seconds spent inside the event loop (including drain).
    wall_seconds: float = 0.0
    stream: Optional["StreamReport"] = None

    @property
    def events_per_sec(self) -> float:
        """Event-loop throughput: events processed per wall second."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_processed / self.wall_seconds

    def assignment_trace_hash(self) -> str:
        """Digest of the recorded assignment trace.

        Requires the run to have used
        ``RunConfig(record_assignments=True)``.
        """
        if self.assignment_trace is None:
            raise ValueError(
                "no assignment trace recorded; run with "
                "RunConfig(record_assignments=True)"
            )
        return hash_assignment_trace(self.assignment_trace)

    # -- job records -----------------------------------------------------------

    @property
    def records(self) -> List[JobRecord]:
        """All completed-job records."""
        return self.collector.records

    @property
    def unfinished_jobs(self) -> int:
        """Jobs submitted but not completed within the run."""
        return self.jobs_submitted - self.jobs_completed

    # -- headline metrics --------------------------------------------------------

    @property
    def frame_interval(self) -> float:
        """Request spacing of one action: 1 / target framerate."""
        return 1.0 / self.target_framerate

    def interactive_framerates(self) -> Dict[int, float]:
        """Definition-4 framerate per interactive action."""
        return framerates_by_action(self.records)

    def delivered_framerates(self) -> Dict[int, float]:
        """Delivered framerate per interactive action."""
        return delivered_framerates_by_action(
            self.records, self.collector.action_issues, self.frame_interval
        )

    @property
    def interactive_fps(self) -> float:
        """Mean per-action *delivered* framerate (Fig. 4-7 bars)."""
        return mean(list(self.delivered_framerates().values()))

    @property
    def interactive_fps_definition4(self) -> float:
        """Mean per-action Definition-4 framerate (completion spacing)."""
        return mean_interactive_framerate(self.records)

    @property
    def interactive_latency(self) -> LatencyStats:
        """Interactive-job latency summary (Fig. 4-7 marked lines)."""
        return latency_stats(self.records, JobType.INTERACTIVE)

    @property
    def batch_latency(self) -> LatencyStats:
        """Batch-job latency summary (Fig. 5-7 left bars)."""
        return latency_stats(self.records, JobType.BATCH)

    @property
    def batch_working_time(self) -> float:
        """Mean batch ``JExec`` (Fig. 5-7 right bars)."""
        return batch_working_time(self.records)

    @property
    def hit_rate(self) -> float:
        """Data-reuse hit rate over *executed* tasks (Table III).

        Counts every task the rendering nodes ran (hits and misses are
        tallied when a task begins executing), including tasks of jobs
        that had not fully completed by the horizon; the collector's
        per-completed-job hit counts remain available via
        ``collector.hit_rate``.
        """
        total = self.tasks_hit + self.tasks_missed
        if total == 0:
            return 0.0
        return self.tasks_hit / total

    @property
    def sched_cost_us(self) -> float:
        """Average scheduling cost per job in µs (Table III)."""
        return self.collector.scheduling.mean_cost_per_job_us

    # -- observability -----------------------------------------------------

    def timeline(self, *, slo_reports=(), top_paths: int = 3):
        """Join this run's recorders into one drawable timeline model.

        Requires the run to have carried a tracer
        (``RunConfig(tracer=Tracer())``); audit, critical-path, and
        fault data are folded in when present.  See
        :func:`repro.obs.timeline.extract_timeline`.

        Raises:
            repro.obs.timeline.TimelineError: If no trace was recorded.
        """
        from repro.obs.timeline import extract_timeline

        return extract_timeline(
            self, slo_reports=slo_reports, top_paths=top_paths
        )

    def node_utilization_fractions(self) -> Dict[int, Dict[str, float]]:
        """Per-node ``{io, render, composite, idle}`` fractions.

        Each node's four fractions sum to 1.0; see
        :class:`~repro.obs.profile.NodeProfile`.
        """
        if self.profile is None:
            return {}
        return {p.node_id: p.fractions() for p in self.profile.nodes}

    def profile_table(self, *, title: str = "") -> str:
        """The per-node time-breakdown text table."""
        if self.profile is None:
            return "(no profile recorded)"
        return self.profile.table(title=title)

    def summary(self) -> SchedulerSummary:
        """One comparison row for this run."""
        return summarize(
            self.scheduler_name,
            self.records,
            hit_rate=self.hit_rate,
            sched_cost_us=self.sched_cost_us,
            action_issues=self.collector.action_issues,
            frame_interval=self.frame_interval,
        )


def run_simulation(
    scenario: Scenario,
    scheduler: Union[str, Scheduler],
    config: Optional[RunConfig] = None,
) -> SimulationResult:
    """Run one scenario under one scheduler.

    Args:
        scenario: System configuration + workload trace.
        scheduler: A registry name (e.g. ``"OURS"``) or an instance.
        config: A :class:`~repro.sim.run_config.RunConfig` describing
            how to run — drain control, storage seed, observability
            (tracer / metrics / timeline), the fault plan, and the
            overload-management ``frontend``.  ``None`` means all
            defaults (horizon-bounded, uninstrumented, no frontend).

    Returns:
        A :class:`SimulationResult` (``result.profile`` carries the
        per-node io/render/composite/idle breakdown; ``result.frontend``
        the overload accounting when a frontend was configured).
    """
    if config is None:
        config = RunConfig()
    return _run(scenario, scheduler, config)


def _run(
    scenario: Scenario,
    scheduler: Union[str, Scheduler],
    config: RunConfig,
) -> SimulationResult:
    """The actual run loop; ``config`` is fully resolved here."""
    if isinstance(scheduler, str):
        scheduler = make_scheduler(scheduler)
    scheduler.reset()

    drain = config.drain
    events = EventQueue()
    cluster = scenario.system.build_cluster(
        events=events, storage_seed=config.storage_seed
    )
    live_tracer = active_tracer(config.tracer)
    registry: Optional[MetricsRegistry] = None
    if config.metrics:
        registry = (
            config.metrics
            if isinstance(config.metrics, MetricsRegistry)
            else MetricsRegistry()
        )
    audit_log: Optional[AuditLog] = None
    causal: Optional[CausalCollector] = None
    if config.audit:
        audit_cfg = (
            config.audit
            if isinstance(config.audit, AuditConfig)
            else AuditConfig()
        )
        audit_log = AuditLog(
            audit_cfg, scheduler=scheduler.name, scenario=scenario.name
        )
        causal = CausalCollector()
    service = VisualizationService(
        cluster,
        scheduler,
        scenario.system.chunk_max,
        tracer=live_tracer,
        metrics=registry,
        audit=audit_log,
        job_ids=JobIdAllocator(config.job_namespace),
    )
    if causal is not None:
        # A per-job completion listener, not a per-task cluster listener:
        # the cluster keeps its single-listener task-finish fast path and
        # the collector fires once per job, after finish_time is set.
        service.add_completion_listener(causal.on_job_complete)
    frontend: Optional[ServiceFrontend] = None
    if config.frontend is not None:
        frontend = ServiceFrontend(
            config.frontend,
            service,
            target_framerate=scenario.target_framerate,
            horizon=None if drain else scenario.trace.duration,
            metrics=registry,
            audit=audit_log,
        )
    metrics_sampler: Optional[MetricsSampler] = None
    if registry is not None:
        for node in cluster.nodes:
            node.set_metrics(registry)
        cluster.storage.set_metrics(registry)
        horizon_hint = scenario.trace.duration
        window = (
            config.metrics_interval
            if config.metrics_interval is not None
            else default_window_interval(horizon_hint)
        )
        metrics_sampler = MetricsSampler(
            registry, window, horizon=None if drain else horizon_hint
        )
        metrics_sampler.attach(service)
    counter_sampler: Optional[CounterSampler] = None
    if live_tracer is not None:
        live_tracer.name_process(PID_HEAD, "head node")
        for node in cluster.nodes:
            live_tracer.name_process(
                pid_for_node(node.node_id), f"render node {node.node_id}"
            )
            node.set_tracer(live_tracer)
            if audit_log is not None:
                node.set_flow_events(True)
        horizon_hint = scenario.trace.duration
        interval = (
            config.counter_interval
            if config.counter_interval is not None
            else default_counter_interval(horizon_hint)
        )
        counter_sampler = CounterSampler(
            live_tracer,
            interval,
            horizon=None if drain else horizon_hint,
            per_node_cache=cluster.node_count <= 16,
        )
        counter_sampler.attach(service)
    assignment_trace: Optional[List[AssignmentRecord]] = None
    if config.record_assignments:
        assignment_trace = []
        record = assignment_trace.append

        def _record_assignment(node, task) -> None:
            job = task.job
            record(
                (
                    job.user,
                    job.action,
                    job.sequence,
                    task.index,
                    task.chunk.dataset,
                    task.chunk.index,
                    node.node_id,
                    task.start_time,
                    task.finish_time,
                    task.io_time,
                    bool(task.cache_hit),
                )
            )

        cluster.add_task_finish_listener(_record_assignment)
    if scenario.prewarm:
        service.prewarm(scenario.trace.datasets)
    sampler: Optional[TimelineSampler] = None
    if config.timeline_interval is not None:
        horizon_hint = None if drain else scenario.trace.duration
        sampler = TimelineSampler(config.timeline_interval, horizon=horizon_hint)
        sampler.attach(service)

    fault_runtime = None
    if config.faults is not None:
        # Lazy import: fault-free runs never touch the subsystem.  The
        # runtime schedules every planned event here.
        from repro.faults.injector import FaultRuntime

        fault_runtime = FaultRuntime(
            config.faults,
            events,
            cluster,
            service,
            tracer=live_tracer,
            audit=audit_log,
        )
        fault_runtime.arm()

    stream = None
    if config.stream is not None:
        # Lazy import like the fault subsystem: stream-off runs never
        # touch the module.  The stream's grid ticks are pure observers
        # on the event queue, so streamed runs stay bit-identical to
        # unstreamed ones (pinned by the golden-trace tests).
        import dataclasses as _dc

        from repro.obs.stream import TelemetryStream, default_stream_interval

        stream_cfg = config.stream
        if stream_cfg.interval is None:
            stream_cfg = _dc.replace(
                stream_cfg,
                interval=default_stream_interval(scenario.trace.duration),
            )
        stream = TelemetryStream(
            stream_cfg,
            scenario=scenario.name,
            scheduler=scheduler.name,
            horizon=None if drain else scenario.trace.duration,
            target_framerate=scenario.target_framerate,
            job_namespace=config.job_namespace,
        )
        if fault_runtime is not None:
            stream.note_injections(fault_runtime.report.injections)
        stream.attach(service)

    submit = (
        frontend.submit_request if frontend is not None else service.submit_request
    )
    datasets = {d.name: d for d in scenario.trace.datasets}
    # Bulk-load the whole trace: one heapify beats one heappush per
    # arrival (Scenario 2 at full scale preloads ~20k requests).
    events.schedule_many(
        (
            (request.time, submit, (request, datasets[request.dataset]))
            for request in scenario.trace.requests
        ),
        priority=PRIORITY_ARRIVAL,
    )
    service.start()
    if frontend is not None:
        frontend.start()

    def has_pending() -> bool:
        if service.has_work():
            return True
        return frontend is not None and frontend.waiting_count > 0

    horizon = scenario.trace.duration
    # The event loop allocates heavily (events, tasks, assignments) but
    # creates no cycles it needs collected mid-run; generational GC
    # sweeps over the live simulation graph are pure overhead, so the
    # collector is paused for the loop (restored even on error).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    wall_t0 = _time.perf_counter()
    try:
        # Streamed runs count ``processed`` live so grid ticks and the
        # stall watchdog read exact event counts mid-run; unstreamed
        # runs keep the batched fast path.
        events.run(until=horizon, live_count=stream is not None)
        drained = not has_pending()
        if drain and not drained:
            limit = (
                None
                if config.max_drain_time is None
                else horizon + config.max_drain_time
            )
            while has_pending():
                next_time = events.peek_time()
                if next_time is None:
                    break
                if limit is not None and next_time > limit:
                    break
                events.step()
            drained = not has_pending()
    finally:
        wall_seconds = _time.perf_counter() - wall_t0
        if gc_was_enabled:
            gc.enable()

    stream_report = None
    if stream is not None:
        # Stop the watchdog, write the summary record, and drop the file
        # handle so the result stays picklable across sweep workers.
        stream_report = stream.close()
    if audit_log is not None:
        # Flush and drop the JSONL stream handle so the log (and the
        # result carrying it) stays picklable across sweep workers.
        audit_log.close()
    return SimulationResult(
        scenario_name=scenario.name,
        scheduler_name=scheduler.name,
        horizon=horizon,
        target_framerate=scenario.target_framerate,
        collector=service.collector,
        jobs_submitted=service.jobs_submitted,
        jobs_completed=service.jobs_completed,
        simulated_time=events.now,
        events_processed=events.processed,
        mean_node_utilization=cluster.mean_utilization(max(events.now, 1e-9)),
        drained=drained,
        tasks_executed=sum(n.tasks_executed for n in cluster.nodes),
        tasks_hit=sum(n.cache_hits for n in cluster.nodes),
        tasks_missed=sum(n.cache_misses for n in cluster.nodes),
        timeline_samples=sampler,
        profile=ClusterProfile.from_cluster(cluster, max(events.now, 1e-9)),
        tracer=live_tracer,
        metrics=(
            RunMetrics(
                registry=registry,
                windows=metrics_sampler.windows if metrics_sampler else [],
                scenario=scenario.name,
                scheduler=scheduler.name,
            )
            if registry is not None
            else None
        ),
        frontend=frontend.stats() if frontend is not None else None,
        assignment_trace=assignment_trace,
        audit=audit_log,
        critical_paths=causal.analysis() if causal is not None else None,
        fault_report=(
            fault_runtime.finalize() if fault_runtime is not None else None
        ),
        wall_seconds=wall_seconds,
        stream=stream_report,
    )


def compare_schedulers(
    scenario: Scenario,
    schedulers: Sequence[Union[str, Scheduler]],
    *,
    config: Optional[RunConfig] = None,
    drain: bool = False,
    max_drain_time: Optional[float] = None,
) -> List[SimulationResult]:
    """Run the same scenario under each scheduler (Figs. 4-7 harness).

    Every run replays the identical trace on a fresh cluster.  Pass a
    :class:`~repro.sim.run_config.RunConfig` to control the runs; the
    ``drain`` / ``max_drain_time`` shortcuts remain for the common case.
    """
    if config is None:
        config = RunConfig(drain=drain, max_drain_time=max_drain_time)
    return [_run(scenario, sched, config) for sched in schedulers]


__all__ = [
    "RunConfig",
    "SimulationResult",
    "run_simulation",
    "compare_schedulers",
    "hash_assignment_trace",
]
