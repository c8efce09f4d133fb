"""Fault injection runtime — wires a plan into one simulation run.

:class:`FaultRuntime` is created by the simulator when
``RunConfig(faults=...)`` is set and arms every planned event on the
virtual clock through the regular event queue.  With ``faults=None``
the simulator never constructs one, so fault-free runs stay
bit-identical to the pre-subsystem code (golden-trace pinned).

Two operating modes:

* **Vanilla** (``plan.detection is None``) — crashes are applied
  through ``service.fail_node`` per the paper's §VI-D design: the head
  node is instantly aware and reschedules orphans with the
  ``fallback`` reason.  Stragglers, cache
  wipes, and storage degradation simply happen, unnoticed.
* **Self-healing** (``plan.detection`` set) — the head node is *not*
  told about faults.  A crashed node silently stops; placements onto it
  are absorbed by a dispatch guard; the heartbeat monitor must time out
  before the recovery engine marks the node failed and requeues the
  stranded work (audit reason ``requeue-crash``).  Stragglers and wipes
  are caught by the estimate-vs-actual outlier detector on the task
  completion path and healed by quarantine/speculation/rewarm.

The runtime also keeps the :class:`FaultReport` surfaced as
``SimulationResult.fault_report``: injected-event counts, every
detection with its latency, every recovery action, and the final
jobs-lost tally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set

from repro.cluster.event_queue import PRIORITY_ARRIVAL, PRIORITY_CYCLE
from repro.faults.detect import Detection, HealthMonitor, NodeHealth
from repro.faults.plan import (
    CacheWipe,
    FaultPlan,
    NodeCrash,
    StorageDegrade,
    Straggler,
)
from repro.faults.recovery import RecoveryAction, RecoveryEngine


class Injection(NamedTuple):
    """One planned fault as injected: kind, target, onset, and lift.

    ``node`` is ``-1`` for cluster-wide events (full wipes, storage
    degradation); ``until`` is the planned lift time — revival, straggler
    clear, storage restore — or ``None`` when the fault is permanent.
    Recorded at arm time straight from the plan, so the list is
    deterministic and available even on runs that end mid-fault.
    """

    kind: str
    node: int
    time: float
    until: Optional[float] = None

    def to_dict(self) -> dict:
        """JSON-friendly form (bench artifacts, CLI --report)."""
        return {
            "kind": self.kind,
            "node": self.node,
            "time": self.time,
            "until": self.until,
        }


@dataclass
class FaultReport:
    """What the fault subsystem did and observed during one run."""

    self_healing: bool
    crashes: int = 0
    stragglers: int = 0
    wipes: int = 0
    storage_faults: int = 0
    revivals: int = 0
    injections: List[Injection] = field(default_factory=list)
    detections: List[Detection] = field(default_factory=list)
    actions: List[RecoveryAction] = field(default_factory=list)
    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_lost: int = 0

    @property
    def events_injected(self) -> int:
        return self.crashes + self.stragglers + self.wipes + self.storage_faults

    def detection_latencies(self) -> List[float]:
        """Latencies of detections attributable to a known injection."""
        return [d.latency for d in self.detections if d.latency is not None]

    @property
    def detection_latency_mean(self) -> float:
        latencies = self.detection_latencies()
        return sum(latencies) / len(latencies) if latencies else 0.0

    @property
    def detection_latency_max(self) -> float:
        latencies = self.detection_latencies()
        return max(latencies) if latencies else 0.0

    def action_counts(self) -> Dict[str, int]:
        """Recovery actions per reason code (deterministic, gate-friendly)."""
        counts: Dict[str, int] = {}
        for action in self.actions:
            counts[action.kind] = counts.get(action.kind, 0) + 1
        return counts

    def tasks_requeued(self) -> int:
        """Tasks re-placed by crash requeue + speculative re-issue."""
        return sum(
            a.count
            for a in self.actions
            if a.kind in ("requeue-crash", "speculative")
        )

    def summary(self) -> str:
        """One line: injections, detections, actions, jobs lost."""
        mode = "self-healing" if self.self_healing else "vanilla"
        parts = [
            f"{self.events_injected} faults injected ({mode})",
            f"{len(self.detections)} detections",
            f"{len(self.actions)} recovery actions",
            f"{self.jobs_lost} jobs lost",
        ]
        if self.detections and self.detection_latencies():
            parts.insert(
                2,
                f"detection latency mean {self.detection_latency_mean * 1e3:.1f} ms"
                f" / max {self.detection_latency_max * 1e3:.1f} ms",
            )
        return ", ".join(parts)

    def to_dict(self) -> dict:
        """JSON-friendly form (bench artifacts, CLI --report)."""
        return {
            "self_healing": self.self_healing,
            "crashes": self.crashes,
            "stragglers": self.stragglers,
            "wipes": self.wipes,
            "storage_faults": self.storage_faults,
            "revivals": self.revivals,
            "injections": [i.to_dict() for i in self.injections],
            "detections": [d.to_dict() for d in self.detections],
            "actions": [a.to_dict() for a in self.actions],
            "detection_latency_mean": self.detection_latency_mean,
            "detection_latency_max": self.detection_latency_max,
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "jobs_lost": self.jobs_lost,
        }


class FaultRuntime:
    """Arms one :class:`FaultPlan` on a live simulation."""

    def __init__(
        self,
        plan: FaultPlan,
        events,
        cluster,
        service,
        *,
        tracer=None,
        audit=None,
    ) -> None:
        self.plan = plan
        self.events = events
        self.cluster = cluster
        self.service = service
        self.tracer = tracer
        self.audit = audit
        self.report = FaultReport(self_healing=plan.self_healing)
        self.monitor: Optional[HealthMonitor] = None
        self.engine: Optional[RecoveryEngine] = None
        if plan.detection is not None:
            self.monitor = HealthMonitor(plan.detection, cluster.node_count)
            if plan.recovery is not None:
                self.engine = RecoveryEngine(
                    plan.recovery, service, audit=audit, tracer=tracer
                )
        #: Tasks stranded on a crashed-but-undetected node (its orphans
        #: plus placements absorbed by the dispatch guard).
        self._stash: Dict[int, List] = {}
        self._undetected: Set[int] = set()
        self._crash_time: Dict[int, float] = {}
        self._straggle_time: Dict[int, float] = {}
        self._wipe_time: Dict[int, float] = {}
        self._heartbeat_armed = False
        self._base_spec = None

    # -- arming ------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every planned event; install detection hooks."""
        node_count = self.cluster.node_count
        highest = self.plan.max_node()
        if highest >= node_count:
            raise ValueError(
                f"fault plan references node {highest} "
                f"(cluster has {node_count} nodes)"
            )
        events = self.events
        for event in self.plan.events:
            until = getattr(event, "until", None)
            if isinstance(event, NodeCrash):
                until = event.revive_at
            target = getattr(event, "node", None)
            self.report.injections.append(
                Injection(
                    event.kind,
                    target if target is not None else -1,
                    event.time,
                    until,
                )
            )
            if isinstance(event, NodeCrash):
                self.report.crashes += 1
                if self.monitor is not None:
                    events.schedule(
                        event.time,
                        self._inject_crash,
                        event,
                        priority=PRIORITY_ARRIVAL,
                    )
                else:
                    # §VI-D semantics: the head node learns of the
                    # crash at the instant it happens.
                    events.schedule(
                        event.time,
                        self.service.fail_node,
                        event.node,
                        priority=PRIORITY_ARRIVAL,
                    )
                if event.revive_at is not None:
                    events.schedule(
                        event.revive_at,
                        self._revive,
                        event.node,
                        priority=PRIORITY_ARRIVAL,
                    )
            elif isinstance(event, Straggler):
                self.report.stragglers += 1
                events.schedule(
                    event.time,
                    self._inject_straggler,
                    event,
                    priority=PRIORITY_ARRIVAL,
                )
                if event.until is not None:
                    events.schedule(
                        event.until,
                        self._clear_straggler,
                        event,
                        priority=PRIORITY_ARRIVAL,
                    )
            elif isinstance(event, CacheWipe):
                self.report.wipes += 1
                events.schedule(
                    event.time,
                    self._inject_wipe,
                    event,
                    priority=PRIORITY_ARRIVAL,
                )
            elif isinstance(event, StorageDegrade):
                self.report.storage_faults += 1
                events.schedule(
                    event.time,
                    self._inject_storage,
                    event,
                    priority=PRIORITY_ARRIVAL,
                )
                if event.until is not None:
                    events.schedule(
                        event.until,
                        self._restore_storage,
                        priority=PRIORITY_ARRIVAL,
                    )
        if self.monitor is not None:
            self.service._dispatch_guard = self._absorb_dead_placement
            self.cluster.add_task_finish_listener(
                self._on_task_finish, prepend=True
            )

    # -- injection: crash --------------------------------------------------

    def _inject_crash(self, event: NodeCrash) -> None:
        """Self-healing crash: the node dies silently; the head node's
        tables are left untouched until the heartbeat timeout fires."""
        node = self.cluster.nodes[event.node]
        now = self.events.now
        orphans = node.fail()
        if orphans:
            self._stash.setdefault(event.node, []).extend(orphans)
        self._crash_time[event.node] = now
        self._undetected.add(event.node)
        # The node's last successful heartbeat was (approximately) the
        # instant it died; the timeout counts from here.
        self.monitor.last_seen[event.node] = now
        self._trace_instant("crash injected", now, event.node)
        self._arm_heartbeat()

    def _absorb_dead_placement(self, assignment) -> bool:
        """Dispatch guard: swallow placements onto undetected-dead nodes.

        The head node believes the node is healthy, so the tables keep
        the assignment's bookkeeping; the task is stashed and will be
        requeued (or handed back on revival) once the truth emerges.
        """
        if assignment.node in self._undetected:
            self._stash.setdefault(assignment.node, []).append(assignment.task)
            return True
        return False

    def _arm_heartbeat(self) -> None:
        if not self._heartbeat_armed:
            self._heartbeat_armed = True
            self.events.schedule(
                self.events.now + self.plan.detection.heartbeat_interval,
                self._heartbeat,
                priority=PRIORITY_CYCLE,
            )

    def _heartbeat(self) -> None:
        """One probe round; self-rescheduling while crashes await detection."""
        self._heartbeat_armed = False
        now = self.events.now
        alive = [node._alive for node in self.cluster.nodes]
        for node in self.monitor.beat(now, alive):
            if node in self._undetected:
                self._detect_crash(node, now)
        if self._undetected:
            self._arm_heartbeat()

    def _detect_crash(self, node: int, now: float) -> None:
        self._undetected.discard(node)
        self.report.detections.append(
            Detection("crash", node, now, now - self._crash_time[node])
        )
        self._trace_instant("crash detected", now, node)
        stranded = self._stash.pop(node, [])
        if self.engine is not None:
            self.engine.requeue_crash(node, stranded, now)
            self.report.actions = self.engine.actions

    def _revive(self, node_id: int) -> None:
        """Planned revival: the node rejoins with a cold cache."""
        node = self.cluster.nodes[node_id]
        if node.alive:
            return
        now = self.events.now
        node.revive()
        self.report.revivals += 1
        if node_id in self._undetected:
            # Revived before the timeout fired: hand the stashed work
            # back — the head node never knew anything was wrong, and
            # its bookkeeping (in-flight counts, pending estimates) is
            # still consistent with the tasks running there.
            self._undetected.discard(node_id)
            for task in self._stash.pop(node_id, []):
                self.cluster.dispatch(task, node_id)
        else:
            tables = self.service.tables
            tables.mark_node_recovered(node_id, now)
            # The head node knows this node rebooted with a cold cache:
            # resync its mirror so hit predictions stay truthful.
            for chunk in list(tables.mirrors[node_id].chunks()):
                tables.drop_cached(chunk, node_id)
        if self.monitor is not None:
            self.monitor.mark_recovered(node_id, now)
        self._trace_instant("revived", now, node_id)

    # -- injection: straggler / wipe / storage ----------------------------

    def _inject_straggler(self, event: Straggler) -> None:
        node = self.cluster.nodes[event.node]
        node.render_factor = event.render_factor
        node.io_factor = event.io_factor
        self._straggle_time.setdefault(event.node, self.events.now)
        self._trace_instant("straggler onset", self.events.now, event.node)

    def _clear_straggler(self, event: Straggler) -> None:
        node = self.cluster.nodes[event.node]
        node.render_factor = 1.0
        node.io_factor = 1.0

    def _inject_wipe(self, event: CacheWipe) -> None:
        now = self.events.now
        if event.node is not None:
            targets = [event.node]
        else:
            targets = [
                node.node_id for node in self.cluster.nodes if node.alive
            ]
        for node_id in targets:
            cache = self.cluster.nodes[node_id].cache
            if event.dataset is not None:
                for chunk in cache.chunks():
                    if chunk.dataset == event.dataset:
                        cache.evict(chunk)
            else:
                cache.clear()
            self._wipe_time.setdefault(node_id, now)
            self._trace_instant("cache wiped", now, node_id)
        # The head node's mirror is deliberately left stale: hit
        # predictions now mispredict until detection resyncs them.

    def _inject_storage(self, event: StorageDegrade) -> None:
        import dataclasses

        storage = self.cluster.storage
        if self._base_spec is None:
            self._base_spec = storage.spec
        base = self._base_spec
        shared = base.shared_bandwidth
        storage.spec = dataclasses.replace(
            base,
            latency=base.latency * event.latency_factor,
            bandwidth=base.bandwidth * event.bandwidth_factor,
            shared_bandwidth=(
                shared * event.bandwidth_factor if shared is not None else None
            ),
        )
        self._trace_instant("storage degraded", self.events.now, -1)

    def _restore_storage(self) -> None:
        if self._base_spec is not None:
            self.cluster.storage.spec = self._base_spec

    # -- detection: outliers ----------------------------------------------

    def _on_task_finish(self, node, task) -> None:
        """Prepended task-finish listener: runs before the service pops
        the pending estimate, so the prediction is still available."""
        node_id = node.node_id
        monitor = self.monitor
        if monitor.health[node_id] is NodeHealth.DEGRADED:
            return
        estimate = self.service.tables._pending_est.get(task)
        if estimate is None or task.start_time is None:
            return
        # Surprise miss: the head node predicted a cache hit when it
        # placed the task (the pending estimate is exactly the render
        # time — no I/O term), yet the task reports a miss.  Outside a
        # wipe the mirror tracks the real cache, so this is direct
        # evidence the real cache lost content behind the mirror's back.
        tables = self.service.tables
        render = tables.cost.render_time(
            task.chunk.size, task.job.composite_group_size
        )
        surprise = not task.cache_hit and estimate == render
        if surprise and self.engine is not None:
            until = self.engine.rewarm_until.get(node_id)
            if until is not None and task.finish_time <= until:
                # The head already knows this cache is being rebuilt —
                # mispredictions from placements made before the rewarm
                # resync are expected, not a fresh wipe.  Skip the whole
                # observation: the inflated duration would otherwise
                # feed the straggler streak.
                return
        verdict = monitor.observe_task(
            node_id,
            estimate,
            task.finish_time - task.start_time,
            task.cache_hit,
            surprise=surprise,
        )
        if verdict == "straggler":
            self._detect_straggler(node_id)
        elif verdict == "wipe":
            self._detect_wipe(node_id)

    def _detect_straggler(self, node: int) -> None:
        now = self.events.now
        injected = self._straggle_time.get(node)
        self.report.detections.append(
            Detection(
                "straggler",
                node,
                now,
                now - injected if injected is not None else None,
            )
        )
        self._trace_instant("straggler detected", now, node)
        if self.engine is not None:
            if self.engine.quarantine(node, now):
                self.monitor.mark_degraded(node)
            self.report.actions = self.engine.actions

    def _detect_wipe(self, node: int) -> None:
        now = self.events.now
        injected = self._wipe_time.get(node)
        self.report.detections.append(
            Detection(
                "wipe",
                node,
                now,
                now - injected if injected is not None else None,
            )
        )
        self._trace_instant("wipe detected", now, node)
        if self.engine is not None:
            self.engine.rewarm(node, now)
            self.report.actions = self.engine.actions

    # -- wrap-up -----------------------------------------------------------

    def finalize(self) -> FaultReport:
        """Fill the end-of-run tallies; returns the report."""
        report = self.report
        report.jobs_submitted = self.service.jobs_submitted
        report.jobs_completed = self.service.jobs_completed
        report.jobs_lost = report.jobs_submitted - report.jobs_completed
        if self.engine is not None:
            report.actions = self.engine.actions
        return report

    def _trace_instant(self, name: str, now: float, node: int) -> None:
        if self.tracer is not None:
            from repro.obs.tracer import PID_HEAD

            self.tracer.instant(
                PID_HEAD,
                "faults",
                name,
                now,
                category="service",
                args={"node": node},
            )


__all__ = ["FaultReport", "FaultRuntime"]
