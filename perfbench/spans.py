"""In-memory span recording around each layer's public entry points.

A traced benchmark run calls :func:`install` after importing ``repro``
and before building anything.  It replaces entry points of every layer
(class attributes and module functions, including the aliases other
modules imported by name) with wrappers that record one span each:
``(name, start, end, parent)``.  Nothing under ``src/`` changes.

Spans live in flat arrays in every process.  Pool workers inherit the
wrappers through ``fork``; each worker resets the inherited buffers when
its first shard starts and writes its spans out when each shard ends.
The main process writes its spans out once, at the end of the run.  A
span's self time is its duration minus the durations of its direct
children; spans of one process nest strictly, so that is the part of
its interval no child covers.
"""

from __future__ import annotations

import array
import functools
import os
import pickle
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

#: Module prefix → layer, for event callbacks (first match wins).
EVENT_MODULE_LAYERS = (
    ("repro.sim.service", "service"),
    ("repro.cluster.", "node"),
    ("repro.core.", "scheduler"),
    ("repro.obs.", "obs"),
    ("repro.reporting.timeline", "obs"),
)

#: Span-name prefix → layer for the wrapped entry points.
NAME_LAYERS = (
    ("event_queue.", "event_queue"),
    ("service.", "service"),
    ("scheduler.", "scheduler"),
    ("tables.", "tables"),
    ("lru.mirror.", "tables"),
    ("node.", "node"),
    ("lru.node.", "node"),
    ("lru.other.", "node"),
    ("storage.", "node"),
    ("job.", "job"),
    ("collectors.", "collectors"),
    ("workload.", "workload"),
    ("simulator.", "setup"),
    ("obs.", "obs"),
    ("federation.", "federation"),
    ("cli.", "cli"),
)

LAYERS = (
    "event_queue",
    "service",
    "scheduler",
    "tables",
    "node",
    "job",
    "collectors",
    "workload",
    "setup",
    "obs",
    "federation",
    "cli",
    "other",
)

#: Event-callback module → the per-layer tick counter it feeds.
SAMPLER_MODULES = {
    "repro.obs.counters": "counter",
    "repro.obs.metrics": "metrics",
    "repro.reporting.timeline": "timeline",
    "repro.obs.stream": "stream",
}


def layer_of(name: str) -> str:
    """The layer a span name is attributed to."""
    if name.startswith("event:"):
        module = name[len("event:"):]
        for prefix, layer in EVENT_MODULE_LAYERS:
            if module.startswith(prefix):
                return layer
        return "other"
    for prefix, layer in NAME_LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


class Recorder:
    """Span buffers of one process plus counts taken at the wrappers."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.names = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.stack: List[int] = [-1]
        self.name_ids: Dict[str, int] = {}
        self.name_list: List[str] = []
        self.counts: Counter = Counter()
        self._dumps = 0

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.name_list)
            self.name_list.append(name)
        return nid

    def reset(self) -> None:
        """Drop every buffered span (in place: wrappers hold the arrays)."""
        self.pid = os.getpid()
        del self.names[:]
        del self.starts[:]
        del self.ends[:]
        del self.parents[:]
        self.stack[:] = [-1]
        self.counts.clear()

    def claim(self) -> None:
        """Reset buffers inherited from a parent process through fork."""
        if os.getpid() != self.pid:
            self.reset()

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``after(args, result)`` runs once the span has closed, to take
        counts from the call's arguments and result.
        """
        nid = self.name_id(name)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack
        )

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def dump(self) -> Path:
        """Write this process's spans and counts to the output directory."""
        path = self.out_dir / f"spans-{os.getpid()}-{self._dumps}.pkl"
        self._dumps += 1
        payload = {
            "pid": os.getpid(),
            "names": list(self.name_list),
            "name": self.names.tobytes(),
            "start": self.starts.tobytes(),
            "end": self.ends.tobytes(),
            "parent": self.parents.tobytes(),
            "counts": dict(self.counts),
        }
        with open(path, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return path


# -- installing the wrappers ------------------------------------------------


def replace_function(module_name: str, attr: str, make: Callable) -> None:
    """Replace a module-level function and every alias of it.

    Modules that did ``from x import f`` hold their own reference, so
    every loaded module whose ``attr`` is the same object is patched.
    """
    original = getattr(sys.modules[module_name], attr)
    replacement = make(original)
    for module in list(sys.modules.values()):
        if module is not None and getattr(module, attr, None) is original:
            setattr(module, attr, replacement)


def replace_method(cls, attr: str, make: Callable) -> None:
    setattr(cls, attr, make(cls.__dict__[attr]))


def install(out_dir: Path) -> Recorder:
    """Wrap every layer's entry points; return the process recorder.

    Must run after ``repro`` (and ``repro.cli`` for CLI workloads) is
    imported and before any scenario, cluster or service is built:
    several classes bind methods of their collaborators once, at
    construction.
    """
    from repro.cluster.cluster import Cluster
    from repro.cluster.event_queue import PRIORITY_DEFAULT, EventQueue
    from repro.cluster.memory import LRUChunkCache
    from repro.cluster.node import RenderNode
    from repro.cluster.storage import StorageModel
    from repro.core.job import RenderJob
    from repro.core.scheduler_base import Scheduler, SchedulerContext
    from repro.core.tables import SchedulerTables
    from repro.federation.result import FederatedResult
    from repro.reporting.collectors import SimulationCollector
    from repro.sim.service import VisualizationService

    rec = Recorder(out_dir)
    counts = rec.counts
    wrap = rec.wrap

    # Event callbacks: each queued callback runs inside a span named
    # after its function's module, so its time lands in that layer.
    event_ids: Dict[object, int] = {}
    names, starts, ends, parents, stack = (
        rec.names, rec.starts, rec.ends, rec.parents, rec.stack
    )

    def event_id(callback) -> int:
        fn = getattr(callback, "__func__", callback)
        nid = event_ids.get(fn)
        if nid is None:
            module = getattr(fn, "__module__", None) or type(fn).__module__
            qual = getattr(fn, "__qualname__", None) or type(fn).__qualname__
            nid = event_ids[fn] = rec.name_id(f"event:{module}.{qual}")
        return nid

    def call_event(nid, callback, *args):
        idx = len(starts)
        names.append(nid)
        parents.append(stack[-1])
        ends.append(0.0)
        stack.append(idx)
        starts.append(perf_counter())
        try:
            callback(*args)
        finally:
            ends[idx] = perf_counter()
            stack.pop()

    schedule = EventQueue.schedule
    schedule_many = EventQueue.schedule_many

    def traced_schedule(self, time, callback, *args, priority=PRIORITY_DEFAULT):
        schedule(
            self, time, call_event, event_id(callback), callback, *args,
            priority=priority,
        )

    def traced_schedule_many(self, events, *, priority=PRIORITY_DEFAULT):
        return schedule_many(
            self,
            (
                (time, call_event, (event_id(callback), callback) + tuple(args))
                for time, callback, args in events
            ),
            priority=priority,
        )

    EventQueue.schedule = wrap("event_queue.schedule", traced_schedule)
    def count_bulk(args, scheduled):
        counts["event_queue.bulk_schedules"] += scheduled

    EventQueue.schedule_many = wrap(
        "event_queue.schedule_many", traced_schedule_many, after=count_bulk
    )
    replace_method(EventQueue, "run", lambda f: wrap("event_queue.run", f))
    replace_method(EventQueue, "step", lambda f: wrap("event_queue.step", f))

    # Service: arrivals and cycles arrive as event callbacks; task
    # completions arrive through the cluster's finish listener.
    replace_method(
        VisualizationService,
        "_on_task_finish",
        lambda f: wrap("service.task_finish", f),
    )

    # Scheduler: every concrete policy's ``schedule`` plus the context's
    # placement calls.
    pending = [Scheduler]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "schedule" in cls.__dict__ and not getattr(
            cls.__dict__["schedule"], "__isabstractmethod__", False
        ):
            replace_method(
                cls,
                "schedule",
                lambda f, c=cls: wrap(f"scheduler.schedule.{c.__name__}", f),
            )

    def count_assign(args, result):
        counts["scheduler.assignments"] += 1

    def count_assign_all(args, result):
        counts["scheduler.assignments"] += len(args[1])

    replace_method(
        SchedulerContext,
        "assign",
        lambda f: wrap("scheduler.assign", f, after=count_assign),
    )
    replace_method(
        SchedulerContext,
        "assign_all",
        lambda f: wrap("scheduler.assign_all", f, after=count_assign_all),
    )

    # Head-node tables; the mirrors are told from node caches by
    # instance, registered as each tables object is built.
    mirror_ids: set = set()
    tables_init = SchedulerTables.__init__

    def register_mirrors(self, *args, **kwargs):
        tables_init(self, *args, **kwargs)
        mirror_ids.update(id(m) for m in self.mirrors)

    SchedulerTables.__init__ = register_mirrors
    replace_method(
        SchedulerTables,
        "record_assignment",
        lambda f: wrap("tables.record_assignment", f),
    )
    replace_method(
        SchedulerTables,
        "correct_completion",
        lambda f: wrap("tables.correct_completion", f),
    )

    cache_ids_by_node: set = set()
    node_init = RenderNode.__init__

    def register_node_cache(self, *args, **kwargs):
        node_init(self, *args, **kwargs)
        cache_ids_by_node.add(id(self.cache))

    RenderNode.__init__ = register_node_cache

    def cache_kind(cache) -> str:
        key = id(cache)
        if key in mirror_ids:
            return "mirror"
        if key in cache_ids_by_node:
            return "node"
        return "other"

    def wrap_lru(op: str, fn: Callable) -> Callable:
        per_kind = {
            kind: wrap(f"lru.{kind}.{op}", fn)
            for kind in ("mirror", "node", "other")
        }

        def dispatch(self, chunk):
            kind = cache_kind(self)
            result = per_kind[kind](self, chunk)
            if op == "insert":
                counts[f"lru.{kind}.evictions"] += len(result)
            elif op == "evict" and result:
                counts[f"lru.{kind}.evictions"] += 1
            return result

        functools.update_wrapper(dispatch, fn)
        return dispatch

    lru_insert = LRUChunkCache.__dict__["insert"]

    def counted_insert(self, chunk):
        # An insert of a resident chunk is a touch, not a load.
        if chunk not in self:
            counts[f"lru.{cache_kind(self)}.inserts"] += 1
        return lru_insert(self, chunk)

    functools.update_wrapper(counted_insert, lru_insert)
    LRUChunkCache.insert = wrap_lru("insert", counted_insert)
    replace_method(LRUChunkCache, "touch", lambda f: wrap_lru("touch", f))
    replace_method(LRUChunkCache, "evict", lambda f: wrap_lru("evict", f))

    # Node model.
    replace_method(Cluster, "dispatch", lambda f: wrap("node.dispatch", f))
    replace_method(RenderNode, "enqueue", lambda f: wrap("node.enqueue", f))

    def count_load(args, result):
        counts["storage.loads"] += 1
        counts["storage.bytes"] += args[1]

    replace_method(
        StorageModel,
        "begin_load",
        lambda f: wrap("storage.begin_load", f, after=count_load),
    )

    # Jobs: decomposition is idempotent, so tasks are counted only when
    # a call builds them.
    decompose = RenderJob.decompose
    traced_decompose = wrap("job.decompose", decompose)

    def counted_decompose(self, policy):
        fresh = not self.tasks
        tasks = traced_decompose(self, policy)
        if fresh:
            counts["job.tasks_built"] += len(tasks)
        return tasks

    functools.update_wrapper(counted_decompose, decompose)
    RenderJob.decompose = counted_decompose

    for attr in ("on_submit", "on_job_complete"):
        replace_method(
            SimulationCollector,
            attr,
            lambda f, a=attr: wrap(f"collectors.{a}", f),
        )

    # Workload, set-up and federation entry points.
    def count_requests(args, scenario):
        counts["workload.requests"] += len(scenario.trace.requests)

    replace_function(
        "repro.workload.scenarios",
        "make_scenario",
        lambda f: wrap("workload.make_scenario", f, after=count_requests),
    )
    replace_function(
        "repro.sim.simulator",
        "_run",
        lambda f: _clearing(mirror_ids, cache_ids_by_node, wrap("simulator.run", f)),
    )
    replace_function(
        "repro.federation.federation",
        "build_shards",
        lambda f: wrap("federation.build_shards", f),
    )
    replace_function(
        "repro.federation.federation",
        "run_federation",
        lambda f: wrap("federation.run_federation", f),
    )
    replace_function(
        "repro.federation.federation",
        "_run_shard",
        lambda f: _in_worker(rec, wrap("federation.shard", f)),
    )
    for attr in ("shard_table", "summary", "evaluate_slos", "merged_anomalies"):
        replace_method(
            FederatedResult,
            attr,
            lambda f, a=attr: wrap(f"federation.merge.{a}", f),
        )

    # Observation: the tracer's recording calls, the decision audit,
    # causal and SLO analyses, timeline extraction, page renderers and
    # the writer.
    from repro.obs.audit import AuditLog
    from repro.obs.causal import CausalCollector
    from repro.obs.slo import SLOMonitor
    from repro.obs.tracer import Tracer

    for attr in (
        "complete", "begin", "end", "instant", "counter",
        "flow_start", "flow_step", "flow_end",
    ):
        replace_method(Tracer, attr, lambda f, a=attr: wrap(f"obs.tracer.{a}", f))
    for attr in ("begin_invocation", "record_assignment"):
        replace_method(AuditLog, attr, lambda f, a=attr: wrap(f"obs.audit.{a}", f))
    # Decision records are built lazily, on first read of ``records``.
    AuditLog.records = property(
        wrap("obs.audit.records", AuditLog.__dict__["records"].fget)
    )
    for attr in ("note_assign", "analysis"):
        replace_method(
            CausalCollector, attr, lambda f, a=attr: wrap(f"obs.causal.{a}", f)
        )
    replace_method(SLOMonitor, "evaluate", lambda f: wrap("obs.slo.evaluate", f))
    replace_function(
        "repro.obs.causal",
        "first_divergence",
        lambda f: wrap("obs.first_divergence", f),
    )
    replace_function(
        "repro.obs.timeline",
        "extract_timeline",
        lambda f: wrap("obs.extract_timeline", f),
    )
    for attr in (
        "render_report_html",
        "render_federation_html",
        "render_timeline_svg",
    ):
        replace_function(
            "repro.obs.report", attr, lambda f, a=attr: wrap(f"obs.render.{a}", f)
        )

    def count_report(args, result):
        counts["obs.report_bytes"] += len(args[1].encode("utf-8"))

    replace_function(
        "repro.obs.report",
        "write_report",
        lambda f: wrap("obs.write_report", f, after=count_report),
    )

    if "repro.cli" in sys.modules:
        replace_function("repro.cli", "main", lambda f: wrap("cli.main", f))
    return rec


def _clearing(mirror_ids: set, node_ids: set, run: Callable) -> Callable:
    """Forget cache instances of earlier runs before each run builds its own."""

    @functools.wraps(run)
    def wrapper(*args, **kwargs):
        mirror_ids.clear()
        node_ids.clear()
        return run(*args, **kwargs)

    return wrapper


def _in_worker(rec: Recorder, run_shard: Callable) -> Callable:
    """Own the recorder in a pool worker and write spans after each shard."""
    main_pid = rec.pid

    @functools.wraps(run_shard)
    def wrapper(*args, **kwargs):
        if os.getpid() == main_pid:
            return run_shard(*args, **kwargs)
        rec.claim()
        try:
            return run_shard(*args, **kwargs)
        finally:
            rec.dump()
            rec.reset()

    return wrapper


# -- reading spans back -------------------------------------------------------


def load(out_dir: Path) -> List[dict]:
    """Every span file written under ``out_dir``, one dict per dump."""
    dumps = []
    for path in sorted(Path(out_dir).glob("spans-*.pkl")):
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        for key, code in (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i")):
            values = array.array(code)
            values.frombytes(payload[key])
            payload[key] = values
        dumps.append(payload)
    return dumps


def self_times(
    starts: Iterable[float], ends: Iterable[float], parents: Iterable[int]
) -> List[float]:
    """Per-span self time: duration minus the direct children's durations."""
    durations = [e - s for s, e in zip(starts, ends)]
    self_ = list(durations)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            self_[parent] -= durations[idx]
    return self_


def summarize(dumps: List[dict], main_pid: int) -> dict:
    """Per-name call counts and total/self seconds over all dumps.

    Returns a dict with

    * ``names``: ``{name: {"calls", "total_s", "self_s", "main_root_s"}}``,
      where ``main_root_s`` sums the main process's root spans of that
      name (the time spans cover there);
    * ``counts``: the wrappers' counts, summed over processes;
    * ``setup_build_s``: over all simulator runs, the time from entering
      the run to entering its event loop;
    * ``federation_wait_s``: over all federated runs, the busiest pool
      worker's time inside shard runs, which the main process spends
      waiting.
    """
    names: Dict[str, dict] = {}
    counts: Counter = Counter()
    setup_build_s = 0.0
    federations = []  # (start, end) of each run in the main process
    shards = []  # (pid, start, duration) of each shard run
    for dump in dumps:
        counts.update(dump["counts"])
        table = dump["names"]
        starts, ends, parents = dump["start"], dump["end"], dump["parent"]
        own = self_times(starts, ends, parents)
        is_main = dump["pid"] == main_pid
        span_names = [table[nid] for nid in dump["name"]]
        loop_entered = set()
        for idx, name in enumerate(span_names):
            entry = names.get(name)
            if entry is None:
                entry = names[name] = {
                    "calls": 0, "total_s": 0.0, "self_s": 0.0, "main_root_s": 0.0,
                }
            duration = ends[idx] - starts[idx]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += own[idx]
            parent = parents[idx]
            if parent < 0:
                if is_main:
                    entry["main_root_s"] += duration
            elif (
                name == "event_queue.run"
                and span_names[parent] == "simulator.run"
                and parent not in loop_entered
            ):
                loop_entered.add(parent)
                setup_build_s += starts[idx] - starts[parent]
            if name == "federation.shard":
                shards.append((dump["pid"], starts[idx], duration))
            elif name == "federation.run_federation" and is_main:
                federations.append((starts[idx], ends[idx]))
    federation_wait_s = 0.0
    for start, end in federations:
        busy: Dict[int, float] = {}
        for pid, shard_start, duration in shards:
            if pid != main_pid and start <= shard_start <= end:
                busy[pid] = busy.get(pid, 0.0) + duration
        federation_wait_s += max(busy.values(), default=0.0)
    return {
        "names": names,
        "counts": counts,
        "setup_build_s": setup_build_s,
        "federation_wait_s": federation_wait_s,
    }
