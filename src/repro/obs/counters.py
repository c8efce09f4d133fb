"""Built-in counter tracks sampled from a running simulation.

Spans show individual work items; counters show *pressure*: how deep
the head node's queue is, how many nodes are busy, how full each node's
chunk cache sits, how many bytes of I/O are in flight.  These are the
curves behind the paper's narrative — FCFS drowning the file server,
OURS keeping caches warm and queues short.

:class:`CounterSink` rides the run's counter-grid
:class:`~repro.obs.probe.Probe` and emits one counter sample per track
per tick into a :class:`~repro.obs.tracer.Tracer`.  Standard track names
are module constants so tests and consumers don't hard-code strings.
"""

from __future__ import annotations

from repro.obs.tracer import PID_HEAD, Tracer, pid_for_node

#: Head-node track: jobs waiting for a scheduling trigger plus tasks the
#: scheduler has deferred internally.
TRACK_QUEUE = "queue depth"
#: Head-node track: rendering nodes with at least one busy pipeline.
TRACK_BUSY_NODES = "busy nodes"
#: Head-node track: storage-subsystem loads/bytes currently in flight.
TRACK_IO_INFLIGHT = "io in-flight"
#: Per-node track: bytes resident in the node's chunk cache.
TRACK_CACHE = "cache bytes"

#: The standard *head-node* counter tracks.  These live on ``PID_HEAD``
#: because they describe cluster-wide pressure the head node observes
#: (its queue, the busy-node count, the storage subsystem); per-node
#: tracks are listed separately in :data:`PER_NODE_TRACKS`.
STANDARD_TRACKS = (TRACK_QUEUE, TRACK_BUSY_NODES, TRACK_IO_INFLIGHT)

#: Counter tracks emitted once per rendering node (on the node's own
#: ``pid``, see :func:`~repro.obs.tracer.pid_for_node`).  Consumers
#: iterating a trace's cache occupancy should use this constant rather
#: than hard-coding the track string.
PER_NODE_TRACKS = (TRACK_CACHE,)


class CounterSink:
    """Writes service/cluster pressure counters into a tracer.

    A :class:`~repro.obs.probe.Probe` sink: each tick writes one sample
    per track.

    Args:
        tracer: Destination for counter events.
        per_node_cache: Emit one ``cache bytes`` track per rendering
            node (on the node's own pid).  Disable for very large
            clusters where p tracks per tick would dominate the trace.
    """

    windowed = False

    def __init__(self, tracer: Tracer, *, per_node_cache: bool = True) -> None:
        self.tracer = tracer
        self.per_node_cache = per_node_cache

    def sample(self, reading, window) -> None:
        """Probe sink: one sample per track at ``reading.time``."""
        tracer = self.tracer
        now = reading.time
        tracer.counter(
            PID_HEAD,
            TRACK_QUEUE,
            now,
            {
                "queued jobs": float(reading.queue_depth),
                "deferred tasks": float(reading.deferred_tasks),
                "node backlog": float(reading.backlog),
            },
        )
        tracer.counter(
            PID_HEAD,
            TRACK_BUSY_NODES,
            now,
            {"busy": float(reading.busy_nodes)},
        )
        tracer.counter(
            PID_HEAD,
            TRACK_IO_INFLIGHT,
            now,
            {
                "loads": float(reading.io_loads),
                "MiB": reading.io_inflight_bytes / 2**20,
            },
        )
        if self.per_node_cache:
            for node_id, used in enumerate(reading.cache_used):
                tracer.counter(
                    pid_for_node(node_id),
                    TRACK_CACHE,
                    now,
                    {"used": float(used)},
                )


__all__ = [
    "TRACK_QUEUE",
    "TRACK_BUSY_NODES",
    "TRACK_IO_INFLIGHT",
    "TRACK_CACHE",
    "STANDARD_TRACKS",
    "PER_NODE_TRACKS",
    "CounterSink",
]
