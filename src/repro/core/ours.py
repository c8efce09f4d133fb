"""OURS — the paper's cycle-based, locality-aware heuristic (Algorithm 1).

Every ω seconds (the *scheduling cycle*) the head node drains its job
queue and schedules in four phases:

1. **Decompose & categorize** — jobs split into per-chunk tasks, hashed
   into interactive (``H_I``) and batch (``H_B``) sub-queues by chunk.
   Batch tasks join a persistent backlog — they are *held* until
   rendering nodes become available (the batch-deferral heuristic).
2. **Interactive chunks** — split into cached (``Cache[c] ≠ ∅``) and
   non-cached; non-cached chunks are ordered longest-estimate-first (LPT
   — starting the most expensive loads earliest minimizes makespan; the
   paper says only "sort ... based on Estimate[c]").  Each chunk's tasks
   all go to ``argmin_k Available[k] + exec_estimate(c, k)`` — the node
   already caching ``c`` unless its backlog exceeds the I/O cost, which
   is how load spreads across replicas over successive cycles.
3. **Cached batch tasks** — node-centric (Algorithm 1 lines 16-22): each
   node pulls backlog tasks whose chunks it caches until its predicted
   available time crosses the next scheduling time λ = now + ω.
4. **Non-cached batch tasks** — backlog chunks sorted by cached-replica
   count (fewest first: chunks with replicas already had their chance in
   phase 3, and loading them elsewhere would duplicate cache); a node
   may take one only if it has had no interactive assignment for
   ε = Estimate[c]/2 seconds — disk I/O is far longer than a cycle, so
   a node busy with interactive work must not start a cold batch load.

Algorithm 1 runs all four phases every cycle; in particular the batch
backlog is (logically) re-sorted each time, which is the O(p x m log m)
scheduling cost the paper measures in Fig. 9 (it grows with the number
of data chunks in play).  This implementation serves that ordering from
the incrementally maintained
:class:`~repro.core.tables.ReplicaBucketIndex` on the head-node tables —
replica-count changes are folded in at phase-4 entry instead of
rebuilding the order from scratch — which is bit-identical to the
re-sort (the ``backlog_chunks_sorted`` counter still measures the
algorithmic work Fig. 9 reports; ``backlog_sorts_avoided`` counts the
chunk keys the index did *not* have to re-order).  The constructor's
``early_exit`` flag enables an optimization beyond the paper — skipping
the batch phases outright when every node is already booked past λ —
which flattens that cost curve; the Fig. 9 bench reports both variants.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.chunks import Chunk
from repro.core.job import JobType, RenderJob, RenderTask
from repro.core.scheduler_base import Scheduler, SchedulerContext, Trigger
from repro.obs.audit import (
    REASON_CACHE_HIT,
    REASON_FALLBACK,
    REASON_MIN_ESTIMATE,
)


class OursScheduler(Scheduler):
    """The paper's scheduling design (Algorithm 1, Table I parameters).

    Args:
        cycle: The scheduling cycle ω, chosen so interactive jobs are
            scheduled timely with minimal overhead (default 15 ms,
            i.e. at most a handful of interactive jobs per cycle at the
            paper's 33.33 fps target).
        early_exit: Optimization beyond the paper — skip the batch
            phases (including the backlog re-sort) when every node is
            already booked past the next scheduling time λ.  Off by
            default for fidelity to Algorithm 1.
    """

    name = "OURS"
    trigger = Trigger.CYCLE

    def __init__(self, cycle: float = 0.015, *, early_exit: bool = False) -> None:
        if cycle <= 0:
            raise ValueError(f"cycle must be > 0, got {cycle}")
        self.cycle = cycle
        self.early_exit = early_exit
        #: Deterministic work counters (cycles run; total chunk keys
        #: ordered by the non-cached batch phase) — used by the Fig. 9
        #: analysis, which must not depend on wall-clock noise.
        self.cycles_run = 0
        self.backlog_chunks_sorted = 0
        #: Chunk keys the incremental index served without re-ordering
        #: (``backlog_chunks_sorted`` minus the re-bucketed ones) —
        #: the work a per-cycle full re-sort would have repeated.
        self.backlog_sorts_avoided = 0
        #: H_B backlog: chunk -> FIFO of deferred batch tasks, in first-
        #: arrival order of chunks (OrderedDict preserves it).
        self._batch_backlog: "OrderedDict[Chunk, Deque[RenderTask]]" = OrderedDict()
        #: O(1)-maintained total of tasks across the backlog deques.
        self._pending_tasks = 0
        #: The tables' backlog index this scheduler last populated (so
        #: ``reset`` can clear membership it added).
        self._index = None

    def reset(self) -> None:
        self._batch_backlog.clear()
        self.cycles_run = 0
        self.backlog_chunks_sorted = 0
        self.backlog_sorts_avoided = 0
        self._pending_tasks = 0
        if self._index is not None:
            self._index.clear()
            self._index = None

    def pending_task_count(self) -> int:
        return self._pending_tasks

    # -- Algorithm 1 --------------------------------------------------------

    def schedule(self, jobs: Sequence[RenderJob], ctx: SchedulerContext) -> None:
        now = ctx.now
        lam = now + self.cycle  # λ — the next scheduling time
        tables = ctx.tables
        index = self._index = tables.backlog_index
        self.cycles_run += 1

        # Phase 1: decompose jobs and categorize tasks by chunk/type.
        # (Skipped outright on the frequent no-arrival cycles that only
        # drain backlog.)
        backlog = self._batch_backlog
        h_interactive: "Optional[OrderedDict[Chunk, List[RenderTask]]]" = None
        if jobs:
            h_interactive = OrderedDict()
            decompose = ctx.decompose
            interactive_get = h_interactive.get
            backlog_get = backlog.get
            for job in jobs:
                tasks = decompose(job)
                if job.job_type is JobType.INTERACTIVE:
                    for task in tasks:
                        bucket = interactive_get(task.chunk)
                        if bucket is None:
                            h_interactive[task.chunk] = [task]
                        else:
                            bucket.append(task)
                else:
                    self._pending_tasks += len(tasks)
                    for task in tasks:
                        dq = backlog_get(task.chunk)
                        if dq is None:
                            backlog[task.chunk] = deque((task,))
                            index.add(task.chunk)
                        else:
                            dq.append(task)

        # Phase 2: interactive chunks — cached first, then non-cached in
        # descending Estimate order (longest processing time first).
        if h_interactive:
            cached: List[tuple] = []
            noncached: List[tuple] = []
            replicas_get = tables._replicas.get
            estimate = tables.estimate
            for order, (chunk, tasks) in enumerate(h_interactive.items()):
                replicas = replicas_get(chunk)
                if replicas:
                    cached.append((chunk, tasks, replicas))
                else:
                    group = tasks[0].job.composite_group_size
                    # ``order`` is unique, so the sort never compares the
                    # trailing (unorderable) task lists.
                    noncached.append(
                        (-estimate(chunk, group), order, chunk, tasks)
                    )
            noncached.sort()
            place = self._place_interactive_chunk
            for chunk, tasks, replicas in cached:
                place(chunk, tasks, ctx, tables, now, replicas)
            for _neg_est, _order, chunk, tasks in noncached:
                place(chunk, tasks, ctx, tables, now, None)

        if not backlog:
            return
        if self.early_exit:
            # Optimization (beyond the paper): batch phases cannot place
            # anything when every node is booked past λ.
            min_node = tables.min_available_node()
            if tables.predicted_available(min_node, now) >= lam:
                return

        self._schedule_cached_batch(lam, ctx)
        if backlog:
            self._schedule_noncached_batch(lam, ctx)

    # -- phase 2 helper -------------------------------------------------------

    def _place_interactive_chunk(
        self,
        chunk: Chunk,
        tasks: List[RenderTask],
        ctx: SchedulerContext,
        tables,
        now: float,
        replicas,
    ) -> None:
        """Assign every interactive task on ``chunk`` to one best node.

        Hot path (once per interactive chunk per cycle): the table
        accessors (``predicted_available``, ``exec_estimate``) are
        inlined here — same arithmetic, no per-probe call overhead.
        ``replicas`` is ``tables``' live cached-node set for ``chunk``
        (or ``None``); membership is equivalent to the per-node mirror
        test by the tables' replica invariant.
        """
        group = tasks[0].job.composite_group_size
        render = tables._render_memo_get((chunk.size, group))
        if render is None:
            render = tables.cost.render_time(chunk.size, group)
        available = tables.available
        # Inlined ``tables.min_available_node()``: no call frame on the
        # hottest path.
        best = available.index(min(available))
        t = available[best]
        if t < now:
            t = now
        if replicas is not None and best in replicas:
            best_score = t + render
        else:
            best_score = t + (tables.io_estimate(chunk) + render)
        if replicas:
            for k in replicas:
                if k == best:
                    continue
                t = available[k]
                score = (t if t > now else now) + render
                if score < best_score:
                    best_score = score
                    best = k
        reason = (
            REASON_CACHE_HIT
            if replicas is not None and best in replicas
            else REASON_MIN_ESTIMATE
        )
        ctx.assign_all(tasks, best, reason)

    # -- phase 3: cached batch --------------------------------------------------

    def _schedule_cached_batch(self, lam: float, ctx: SchedulerContext) -> None:
        """Fill each node with backlog tasks whose chunks it caches."""
        tables = ctx.tables
        now = ctx.now
        backlog = self._batch_backlog
        index = tables.backlog_index
        available = tables.available
        assign = ctx.assign
        for k in range(ctx.node_count):
            t = available[k]
            if (t if t > now else now) >= lam:
                continue
            # Scan the node's mirrored cache (bounded by quota/chunk-size)
            # rather than the whole backlog.
            for chunk in tables.mirrors[k].chunks():
                dq = backlog.get(chunk)
                if dq is None:
                    continue
                while dq:
                    t = available[k]
                    if (t if t > now else now) >= lam:
                        break
                    assign(dq.popleft(), k)
                    self._pending_tasks -= 1
                if not dq:
                    del backlog[chunk]
                    index.discard(chunk)
                t = available[k]
                if (t if t > now else now) >= lam:
                    break

    # -- phase 4: non-cached batch -------------------------------------------------

    def _schedule_noncached_batch(self, lam: float, ctx: SchedulerContext) -> None:
        """Place cold batch tasks on interactively idle nodes.

        Backlog chunks are consumed by cached-replica count, fewest
        first (ties keep first-arrival order), from the incrementally
        maintained :class:`~repro.core.tables.ReplicaBucketIndex` —
        ``begin_pass`` folds in the replica-count changes accumulated
        since the previous cycle, which is exactly the view the
        per-cycle re-sort used to compute (counts read once at phase-4
        entry, frozen for the rest of the phase).
        """
        tables = ctx.tables
        now = ctx.now
        backlog = self._batch_backlog
        index = tables.backlog_index
        self.backlog_chunks_sorted += len(backlog)
        self.backlog_sorts_avoided += len(backlog) - index.begin_pass()
        available = tables.available
        assign = ctx.assign
        for k in range(ctx.node_count):
            chunk = index.peek()
            if chunk is None:
                break
            idle_for = now - tables.last_interactive_assign[k]
            while True:
                t = available[k]
                if (t if t > now else now) >= lam:
                    break
                dq = backlog.get(chunk)
                if dq is None or not dq:
                    # Defensive: a chunk tracked by the index but absent
                    # from the backlog (should not occur; both are
                    # updated in lockstep).
                    index.discard(chunk)
                    backlog.pop(chunk, None)
                    chunk = index.peek()
                    if chunk is None:
                        return
                    continue
                group = dq[0].job.composite_group_size
                epsilon = tables.estimate(chunk, group) / 2.0
                if idle_for <= epsilon:
                    break  # node recently served interactive work
                assign(dq.popleft(), k)
                self._pending_tasks -= 1
                if not dq:
                    del backlog[chunk]
                    index.discard(chunk)
                    chunk = index.peek()
                    if chunk is None:
                        return


__all__ = ["OursScheduler"]
