"""The consolidated run configuration for the simulation entry points.

:class:`RunConfig` replaces the keyword-argument pile that
:func:`~repro.sim.simulator.run_simulation` had grown (drain control,
storage seed, observability toggles, failure schedule, ...) with one
frozen, picklable object.  That one object is what
:func:`~repro.sim.sweep.sweep` and :func:`~repro.sim.sweep.replicate`
ship across process-pool boundaries, what benches persist next to their
numbers, and where new run-scoped features (like the overload-management
``frontend``) land without widening every call site.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.frontend.config import FrontendConfig
    from repro.obs.audit import AuditConfig
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.stream import StreamConfig
    from repro.obs.tracer import Tracer


@dataclass(frozen=True)
class RunConfig:
    """Everything about *how* to run a scenario (not *what* to run).

    Attributes:
        drain: Keep simulating past the trace horizon until all
            submitted jobs complete.  The paper's measurements are
            horizon-bounded (``False``).
        max_drain_time: Bound on the drain phase, in simulated seconds
            past the horizon (``None`` = unbounded).
        storage_seed: Seed for I/O jitter (when the storage spec
            enables it).
        timeline_interval: Sample cluster dynamics every this many
            simulated seconds (``result.timeline_samples``); ``None``
            disables.
        faults: Optional :class:`~repro.faults.plan.FaultPlan` — the
            fault-injection subsystem (crashes, stragglers, cache
            wipes, storage degradation, plus detection/recovery when
            the plan carries them).  ``None`` (default) is
            bit-identical to a run without the subsystem.
        tracer: Optional :class:`~repro.obs.tracer.Tracer` recording
            spans and counter tracks.
        counter_interval: Sampling period of the tracer's counter
            tracks (defaults to ~256 samples over the horizon).
        metrics: ``True`` or an explicit
            :class:`~repro.obs.metrics.MetricsRegistry` enables the
            metrics layer (``result.metrics``).
        metrics_interval: Length of one metrics aggregation window in
            simulated seconds (defaults to ~64 windows).
        frontend: Optional
            :class:`~repro.frontend.config.FrontendConfig` placing the
            overload-management frontend (admission control,
            backpressure, graceful degradation) between the trace and
            the service.  ``None`` (default) is bit-identical to a run
            without the frontend subsystem.
        record_assignments: Record the full per-task assignment trace
            (who ran what, where, when) on
            ``result.assignment_trace``.  The trace is a list of plain
            tuples (picklable, so it survives ``workers=N`` sweeps) and
            backs the golden-trace determinism tests via
            ``result.assignment_trace_hash()``.
        audit: ``True`` or an explicit
            :class:`~repro.obs.audit.AuditConfig` enables the
            decision-audit layer: every assignment records its
            candidate-node snapshot and reason code
            (``result.audit``), and the causal collector attributes
            each completed job's latency to phases
            (``result.critical_paths``).  ``False`` (default) is
            bit-identical to a run without the audit subsystem.
        stream: Optional :class:`~repro.obs.stream.StreamConfig` — the
            live-telemetry bus.  When set, the run emits schema-versioned
            NDJSON snapshot/anomaly records to ``stream.path`` *while it
            executes* (tail with ``repro watch``), runs the online
            anomaly detectors, and attaches a
            :class:`~repro.obs.stream.StreamReport` as
            ``result.stream``.  ``None`` (default) is bit-identical to a
            run without the subsystem.
        job_namespace: Namespace for this run's
            :class:`~repro.core.job.JobIdAllocator` — job ids start at
            ``job_namespace * NAMESPACE_STRIDE``.  A federation gives
            shard ``k`` namespace ``k`` so merged per-shard ids never
            collide; the default ``0`` yields the plain ``0, 1, 2, ...``
            sequence (byte-identical to the historical global counter).
    """

    drain: bool = False
    max_drain_time: Optional[float] = None
    storage_seed: int = 0
    timeline_interval: Optional[float] = None
    tracer: Optional["Tracer"] = None
    counter_interval: Optional[float] = None
    metrics: Union[bool, "MetricsRegistry"] = False
    metrics_interval: Optional[float] = None
    frontend: Optional["FrontendConfig"] = None
    record_assignments: bool = False
    audit: Union[bool, "AuditConfig"] = False
    faults: Optional["FaultPlan"] = None
    stream: Optional["StreamConfig"] = None
    job_namespace: int = 0

    def replace(self, **changes) -> "RunConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)


__all__ = ["RunConfig"]
