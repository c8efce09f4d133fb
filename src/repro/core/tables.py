"""The head node's three scheduling tables (paper §V-A, §V-B).

To trace system status the head node maintains:

* the **cached-data table** (``Cache``) — which data chunks are resident
  in the main memory of each rendering node,
* the **available-time table** (``Available``) — the predicted time at
  which each rendering node finishes its current and scheduled workload,
* the **estimated-I/O-cost table** (``Estimate``) — the latest measured
  I/O time for each data chunk, initialized from a contention-free "test
  run" estimate.

All three are *predictions* updated at scheduling time and corrected when
tasks actually complete (§V-B).  The cache mirror is exact by
construction: a rendering node executes tasks in exactly the order the
head node assigned them, and both apply identical LRU operations in that
order, so the mirrored LRU state always equals the node's real cache
state at the corresponding point of its task sequence.

Implementation notes — schedulers make O(jobs x tasks) placement queries
per second, so the table operations are designed to be cheap:

* "node with minimal available time" (the greedy step of every
  scheduler here) is a single C-level ``min`` scan over the
  ``available`` list; ties go to the lowest node id.  At the cluster
  sizes the paper studies (p ≤ 64) the O(p) scan beats maintaining a
  heap entry on every table write (two per task — assignment and
  completion — versus one query per placement);
* locality-aware scoring needs only the cached replica set of a chunk
  (usually 0-2 nodes) plus that minimum, because among non-cached nodes
  the I/O penalty is uniform and the min-available node dominates;
* the per-chunk I/O and placement estimates are memoized
  (:meth:`SchedulerTables.io_estimate` / :meth:`SchedulerTables.estimate`),
  invalidated per chunk when a measurement or replica set changes;
* the OURS batch backlog keeps chunks bucketed by replica count
  incrementally (:class:`ReplicaBucketIndex`) instead of re-sorting the
  whole backlog every scheduling cycle.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.costs import CostParameters
from repro.cluster.memory import LRUChunkCache
from repro.cluster.storage import StorageModel
from repro.core.chunks import Chunk
from repro.core.job import JobType, RenderTask

class ReplicaBucketIndex:
    """Incrementally maintained replica-count ordering of a chunk set.

    OURS' non-cached batch phase consumes backlog chunks ordered by
    ``(replica count, first-arrival order)``, fewest replicas first.
    Algorithm 1 re-sorts the whole backlog every scheduling cycle — the
    O(p x m log m) cost the paper measures in Fig. 9.  This index keeps
    that ordering incrementally: the tables report replica-count changes
    (cache insert / evict / node failure) as they happen, and the index
    re-buckets only the affected chunks.

    The subtle part is *when* a count change may take effect.  The
    reference implementation reads replica counts once, at phase-4
    entry, and the resulting order stays frozen for the rest of the
    phase even though assignments made *during* the phase mutate the
    counts.  The index reproduces that exactly:

    * changes reported via :meth:`count_changed` only land in a dirty
      set;
    * :meth:`begin_pass` — called at phase-4 entry — folds the dirty
      set in;
    * between ``begin_pass`` calls the observable order never moves.

    Entries live in per-count lazy-deletion min-heaps keyed by arrival
    sequence number (monotonic, re-issued when a chunk re-enters after
    being drained — mirroring ``OrderedDict`` re-insertion at the end).
    An entry is valid iff it matches ``_recorded[chunk]``; stale entries
    are dropped when :meth:`peek` meets them.
    """

    __slots__ = ("_tables", "_recorded", "_buckets", "_count_heap", "_dirty", "_seq")

    def __init__(self, tables: "SchedulerTables") -> None:
        self._tables = tables
        #: chunk -> (count, seq) of its single valid entry.
        self._recorded: Dict[Chunk, Tuple[int, int]] = {}
        #: count -> lazy-deletion min-heap of (seq, chunk).
        self._buckets: Dict[int, List[Tuple[int, Chunk]]] = {}
        #: lazy min-heap over bucket keys (may hold duplicates).
        self._count_heap: List[int] = []
        #: chunks whose live count may differ from the recorded one.
        self._dirty: Dict[Chunk, None] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._recorded)

    def __contains__(self, chunk: Chunk) -> bool:
        return chunk in self._recorded

    def _push(self, count: int, seq: int, chunk: Chunk) -> None:
        bucket = self._buckets.get(count)
        if bucket is None:
            self._buckets[count] = [(seq, chunk)]
            heapq.heappush(self._count_heap, count)
        else:
            heapq.heappush(bucket, (seq, chunk))

    def add(self, chunk: Chunk) -> None:
        """Track ``chunk`` at its *current* replica count.

        Call when the chunk enters the backlog; a fresh sequence number
        places it after every chunk already tracked (ties by count).
        """
        count = self._tables.replica_count(chunk)
        seq = self._seq
        self._seq = seq + 1
        self._recorded[chunk] = (count, seq)
        self._push(count, seq, chunk)
        self._dirty.pop(chunk, None)

    def discard(self, chunk: Chunk) -> None:
        """Stop tracking ``chunk`` (no-op when untracked)."""
        self._recorded.pop(chunk, None)
        self._dirty.pop(chunk, None)

    def count_changed(self, chunk: Chunk) -> None:
        """Note that ``chunk``'s replica count changed.

        O(1); buffered until the next :meth:`begin_pass` so the order
        observed by an in-progress phase stays frozen.  No-op for
        untracked chunks (every cache insert/evict reports here, but
        only backlog members matter).
        """
        if chunk in self._recorded:
            self._dirty[chunk] = None

    def begin_pass(self) -> int:
        """Fold buffered count changes in; start a new frozen view.

        Returns the number of chunks actually re-bucketed (0 when the
        pass is served fully incrementally).
        """
        if not self._dirty:
            return 0
        tables = self._tables
        recorded = self._recorded
        moved = 0
        for chunk in self._dirty:
            entry = recorded.get(chunk)
            if entry is None:
                continue
            count = tables.replica_count(chunk)
            if count == entry[0]:
                continue
            seq = entry[1]
            recorded[chunk] = (count, seq)
            self._push(count, seq, chunk)
            moved += 1
        self._dirty.clear()
        return moved

    def peek(self) -> Optional[Chunk]:
        """The tracked chunk minimal in ``(recorded count, seq)`` order."""
        buckets = self._buckets
        recorded = self._recorded
        count_heap = self._count_heap
        while count_heap:
            count = count_heap[0]
            bucket = buckets.get(count)
            if bucket:
                while bucket:
                    entry = bucket[0]
                    chunk = entry[1]
                    if recorded.get(chunk) == (count, entry[0]):
                        return chunk
                    heapq.heappop(bucket)
            if not bucket and bucket is not None:
                del buckets[count]
            heapq.heappop(count_heap)
        return None

    def clear(self) -> None:
        """Forget all tracked chunks and buffered changes."""
        self._recorded.clear()
        self._buckets.clear()
        self._count_heap.clear()
        self._dirty.clear()
        self._seq = 0

    def check_invariants(self) -> None:
        """Assert internal consistency (test helper).

        * every tracked chunk's valid entry is present in the bucket its
          recorded count names, and that bucket's key is reachable from
          the count heap;
        * no chunk has two valid entries;
        * a tracked chunk that is *not* dirty records the live replica
          count (dirty chunks are allowed to lag until ``begin_pass``).
        """
        valid: Dict[Chunk, Tuple[int, int]] = {}
        reachable = set(self._count_heap)
        for count, bucket in self._buckets.items():
            if count not in reachable:
                raise AssertionError(f"bucket {count} unreachable from count heap")
            for seq, chunk in bucket:
                if self._recorded.get(chunk) == (count, seq):
                    if chunk in valid:
                        raise AssertionError(f"duplicate valid entry for {chunk}")
                    valid[chunk] = (count, seq)
        for chunk, entry in self._recorded.items():
            if valid.get(chunk) != entry:
                raise AssertionError(f"no valid bucket entry for {chunk}")
            if chunk not in self._dirty:
                live = self._tables.replica_count(chunk)
                if live != entry[0]:
                    raise AssertionError(
                        f"clean entry for {chunk} records count {entry[0]} "
                        f"but live count is {live}"
                    )


class SchedulerTables:
    """``Available`` + ``Cache`` + ``Estimate`` with prediction correction.

    Args:
        node_count: Number of rendering nodes ``p``.
        memory_quota: Per-node main-memory budget (bytes) — sizes the
            mirrored LRU caches.
        cost: Rendering cost constants (for execution-time estimates).
        storage: The cluster's storage model (seeds ``Estimate``).
    """

    __slots__ = (
        "node_count",
        "cost",
        "_storage",
        "executors_per_node",
        "available",
        "mirrors",
        "_replicas",
        "_io_estimate",
        "_estimate_memo",
        "last_interactive_assign",
        "_pending_est",
        "_pending_per_node",
        "alive",
        "quarantined",
        "backlog_index",
        "_render_memo_get",
    )

    def __init__(
        self,
        node_count: int,
        memory_quota: int,
        cost: CostParameters,
        storage: StorageModel,
        *,
        executors_per_node: int = 1,
    ) -> None:
        self.node_count = node_count
        self.cost = cost
        self._storage = storage
        #: Rendering pipelines per node: queued work drains this many
        #: tasks at a time, so availability advances by est/executors.
        self.executors_per_node = max(1, executors_per_node)
        #: Available[R_k] — predicted available time of each node.
        self.available: List[float] = [0.0] * node_count
        #: Mirrored per-node LRU caches (the Cache table, exact).
        self.mirrors: List[LRUChunkCache] = [
            LRUChunkCache(memory_quota) for _ in range(node_count)
        ]
        #: Reverse index: chunk -> set of node ids caching it.
        self._replicas: Dict[Chunk, Set[int]] = {}
        #: Replica-count ordering of the OURS batch backlog, maintained
        #: incrementally from cache insert/evict/fail events (membership
        #: is driven by the scheduler).
        self.backlog_index = ReplicaBucketIndex(self)
        #: Bound getter on the cost model's render-time memo: hot paths
        #: probe the memo directly and only fall back to
        #: ``cost.render_time`` on the first sight of a key.
        self._render_memo_get = cost._render_memo.get
        #: Estimate[c] — latest known I/O time per chunk.
        self._io_estimate: Dict[Chunk, float] = {}
        #: Memoized ``estimate()`` results: chunk -> {group_size: est},
        #: dropped per chunk when a completion revises ``Estimate[c]``.
        self._estimate_memo: Dict[Chunk, Dict[int, float]] = {}
        #: Last time an interactive task was assigned to each node.
        self.last_interactive_assign: List[float] = [-float("inf")] * node_count
        #: Predicted execution time of each in-flight task (for correction).
        self._pending_est: Dict[RenderTask, float] = {}
        self._pending_per_node: List[int] = [0] * node_count
        #: Liveness mask (paper §VI-D: failed nodes become unavailable).
        self.alive: List[bool] = [True] * node_count
        #: Quarantine mask (fault recovery: stragglers withheld from
        #: scheduling while still finishing their running work).
        self.quarantined: List[bool] = [False] * node_count

    # -- Cache table --------------------------------------------------------

    def cached_nodes(self, chunk: Chunk) -> Set[int]:
        """Cache[c]: the nodes predicted to hold ``chunk`` in memory."""
        return self._replicas.get(chunk, _EMPTY_SET)

    def is_cached(self, chunk: Chunk, node: int) -> bool:
        """True if ``chunk`` is predicted resident on ``node``."""
        return chunk in self.mirrors[node]

    def replica_count(self, chunk: Chunk) -> int:
        """Number of nodes predicted to cache ``chunk``."""
        nodes = self._replicas.get(chunk)
        return len(nodes) if nodes else 0

    def _mirror_access(self, chunk: Chunk, node: int) -> bool:
        """Apply the LRU access the node will perform; return hit flag."""
        mirror = self.mirrors[node]
        # Inlined mirror.touch — the hit path runs once per assignment.
        entries = mirror._entries
        if chunk in entries:
            entries.move_to_end(chunk)
            return True
        self._mirror_miss(chunk, node)
        return False

    def _mirror_miss(self, chunk: Chunk, node: int) -> None:
        """Miss path of :meth:`_mirror_access`: insert + replica upkeep."""
        evicted = self.mirrors[node].insert(chunk)
        index = self.backlog_index
        for victim in evicted:
            nodes = self._replicas.get(victim)
            if nodes is not None:
                nodes.discard(node)
                if not nodes:
                    del self._replicas[victim]
            index.count_changed(victim)
        self._replicas.setdefault(chunk, set()).add(node)
        index.count_changed(chunk)

    # -- Estimate table -------------------------------------------------------

    def io_estimate(self, chunk: Chunk) -> float:
        """Estimated I/O time to load ``chunk`` from the file system.

        Initialized from the contention-free storage estimate (the
        paper's "test run"), then updated to the latest measured value.
        """
        est = self._io_estimate.get(chunk)
        if est is None:
            est = self._storage.estimate_load_time(chunk.size)
            self._io_estimate[chunk] = est
        return est

    def estimate(self, chunk: Chunk, group_size: int) -> float:
        """Estimate[c]: execution time of a task over ``chunk`` on a cold
        node (I/O + render).

        Memoized per (chunk, group size); invalidated when a completed
        miss revises the chunk's measured I/O time (the contention
        signal, see :meth:`correct_completion`).
        """
        memo = self._estimate_memo.get(chunk)
        if memo is None:
            memo = self._estimate_memo[chunk] = {}
        est = memo.get(group_size)
        if est is None:
            est = memo[group_size] = self.io_estimate(chunk) + self.cost.render_time(
                chunk.size, group_size
            )
        return est

    def exec_estimate(self, chunk: Chunk, node: int, group_size: int) -> float:
        """Predicted execution time of a task on a specific node.

        The I/O term is omitted when the chunk is predicted cached on the
        node (Definition 1's "the I/O time can be omitted...").
        """
        render = self.cost.render_time(chunk.size, group_size)
        if chunk in self.mirrors[node]:
            return render
        return self.io_estimate(chunk) + render

    def estimate_components(
        self, chunk: Chunk, group_size: int
    ) -> Tuple[float, float]:
        """``(cached_estimate, cold_estimate)`` for one chunk/group pair.

        The node-independent halves of :meth:`exec_estimate`: render-only
        when the chunk is resident, I/O + render otherwise.  One call
        prices every candidate node of a decision (the audit snapshot
        needs all of them at once).
        """
        render = self._render_memo_get((chunk.size, group_size))
        if render is None:
            render = self.cost.render_time(chunk.size, group_size)
        return render, self.io_estimate(chunk) + render

    # -- Available table ------------------------------------------------------

    def predicted_available(self, node: int, now: float) -> float:
        """Available[R_k], floored at the current time."""
        return max(self.available[node], now)

    def min_available_node(self) -> int:
        """Node with the smallest predicted available time.

        Ties go to the lowest node id, so a ``+inf`` (failed or
        quarantined) node is never chosen while a finite one exists.
        """
        available = self.available
        return available.index(min(available))

    # -- scheduling-time updates ----------------------------------------------

    def record_assignment(self, task: RenderTask, node: int, now: float) -> float:
        """Account an assignment of ``task`` to ``node``.

        Updates all three tables plus the interactive-idle tracking, and
        returns the predicted task execution time.
        """
        chunk = task.chunk
        job = task.job
        render = self._render_memo_get((chunk.size, job.composite_group_size))
        if render is None:
            render = self.cost.render_time(chunk.size, job.composite_group_size)
        # Inlined _mirror_access (this runs once per placed task).
        entries = self.mirrors[node]._entries
        if chunk in entries:
            entries.move_to_end(chunk)
            est = render
        else:
            self._mirror_miss(chunk, node)
            est = self.io_estimate(chunk) + render
        t = self.available[node]
        if t < now:
            t = now
        self.available[node] = t + est / self.executors_per_node
        self._pending_est[task] = est
        self._pending_per_node[node] += 1
        if job.job_type is JobType.INTERACTIVE:
            self.last_interactive_assign[node] = now
        return est

    def mark_node_failed(self, node: int) -> None:
        """Remove a crashed node from scheduling consideration.

        The paper's fault-tolerance note (§VI-D): by dynamically
        updating the tables to identify unavailable nodes, rendering
        carries on as long as copies of the required chunks exist on
        other nodes.  The node's mirrored cache entries are dropped
        (its memory is gone) and its available time becomes infinite so
        no greedy step ever selects it.
        """
        self.alive[node] = False
        mirror = self.mirrors[node]
        index = self.backlog_index
        for chunk in mirror.chunks():
            nodes = self._replicas.get(chunk)
            if nodes is not None:
                nodes.discard(node)
                if not nodes:
                    del self._replicas[chunk]
            index.count_changed(chunk)
        mirror.clear()
        self.available[node] = math.inf
        self._pending_per_node[node] = 0

    def quarantine(self, node: int) -> None:
        """Withhold ``node`` from scheduling without declaring it dead.

        The node stays alive — work already executing there finishes and
        corrects the tables — but its available time is pinned at
        infinity so no greedy step ever selects it again.  Sticky for
        the run unless :meth:`mark_node_recovered` lifts it.
        """
        self.quarantined[node] = True
        self.available[node] = math.inf

    def mark_node_recovered(self, node: int, now: float) -> None:
        """Return a revived (or un-quarantined) node to scheduling.

        The node rejoins with a cold cache: :meth:`mark_node_failed`
        already dropped its mirror, and a revived process starts empty,
        so only the liveness/quarantine masks and the available time
        need resetting.
        """
        self.alive[node] = True
        self.quarantined[node] = False
        self.available[node] = now
        self._pending_per_node[node] = 0

    def cancel_assignment(self, task: RenderTask, node: int) -> None:
        """Forget an in-flight prediction for a task being re-issued.

        Used by speculative re-execution: the task was stolen back from
        ``node``'s queue before starting, so its pending estimate must
        not feed a later completion correction there.
        """
        self._pending_est.pop(task, None)
        if self._pending_per_node[node] > 0:
            self._pending_per_node[node] -= 1

    def drop_cached(self, chunk: Chunk, node: int) -> None:
        """Remove ``chunk`` from ``node``'s mirror (cache-wipe resync).

        The inverse of :meth:`warm` — used when detection learns the
        node's real cache lost entries behind the head node's back.
        """
        mirror = self.mirrors[node]
        if mirror.evict(chunk):
            nodes = self._replicas.get(chunk)
            if nodes is not None:
                nodes.discard(node)
                if not nodes:
                    del self._replicas[chunk]
            self.backlog_index.count_changed(chunk)

    def warm(self, chunk: Chunk, node: int) -> None:
        """Mark ``chunk`` resident on ``node`` (pre-run cache warm-up).

        Used by the service's prewarm pass (the paper's "test run"),
        which must keep the mirrors identical to the real node caches.
        """
        self._mirror_access(chunk, node)

    # -- completion-time corrections (§V-B) -------------------------------------

    def correct_completion(self, task: RenderTask, node: int, now: float) -> None:
        """Reconcile predictions with a task's actual completion.

        * ``Available`` absorbs the prediction error of this task and is
          reset exactly to ``now`` when the node has nothing pending.
        * ``Estimate`` is updated to the measured I/O time on a miss.
        """
        est = self._pending_est.pop(task, None)
        self._pending_per_node[node] -= 1
        if self.quarantined[node]:
            # A quarantined node finishing its residual work must stay
            # pinned at +inf — resetting Available would silently return
            # it to scheduling.
            if self._pending_per_node[node] < 0:
                self._pending_per_node[node] = 0
        else:
            if est is not None and task.start_time is not None:
                actual = task.finish_time - task.start_time  # type: ignore[operator]
                self.available[node] += actual - est
            if self._pending_per_node[node] <= 0:
                self._pending_per_node[node] = 0
                self.available[node] = now
            elif self.available[node] < now:
                self.available[node] = now
        if (
            not task.cache_hit
            and task.io_time > 0
            and not self.quarantined[node]
        ):
            # Quarantined stragglers' measurements are excluded: their
            # degraded I/O would poison the global per-chunk estimate.
            self._io_estimate[task.chunk] = task.io_time
            self._estimate_memo.pop(task.chunk, None)

    # -- diagnostics ---------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert reverse-index/mirror/bucket-index consistency (test
        helper)."""
        for k, mirror in enumerate(self.mirrors):
            mirror.check_invariants()
            for chunk in mirror:
                if k not in self._replicas.get(chunk, _EMPTY_SET):
                    raise AssertionError(f"replica index missing {chunk} @ {k}")
        for chunk, nodes in self._replicas.items():
            for k in nodes:
                if chunk not in self.mirrors[k]:
                    raise AssertionError(f"stale replica {chunk} @ {k}")
        self.backlog_index.check_invariants()
        for chunk, memo in self._estimate_memo.items():
            io = self._io_estimate.get(chunk)
            if io is None:
                continue
            for group, est in memo.items():
                expected = io + self.cost.render_time(chunk.size, group)
                if est != expected:
                    raise AssertionError(
                        f"stale estimate memo for {chunk} group {group}: "
                        f"{est} != {expected}"
                    )


_EMPTY_SET: Set[int] = frozenset()  # type: ignore[assignment]


__all__ = ["SchedulerTables", "ReplicaBucketIndex"]
