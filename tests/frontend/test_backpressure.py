"""Tests for the bounded head-node queue and its overflow policies."""

from repro.core.job import JobType
from repro.frontend.backpressure import BoundedQueue
from repro.frontend.config import BackpressureConfig, QueuePolicy
from repro.workload.trace import Request


def req(seq):
    return Request(float(seq), JobType.INTERACTIVE, "ds", 0, 0, seq)


class FakeService:
    """Just enough service: an outstanding-job count the queue reads."""

    def __init__(self):
        self.outstanding_jobs = 0


class Harness:
    def __init__(self, *, limit=2, policy=QueuePolicy.BLOCK):
        self.service = FakeService()
        self.forwarded = []
        self.overflows = 0
        self.queue = BoundedQueue(
            BackpressureConfig(queue_limit=limit, policy=policy),
            self.service,
            self._forward,
            on_overflow=self._overflow,
        )

    def _forward(self, request, dataset):
        self.forwarded.append(request.sequence)
        self.service.outstanding_jobs += 1

    def _overflow(self):
        self.overflows += 1

    def complete(self, n=1):
        self.service.outstanding_jobs -= n
        self.queue.drain()


class TestBlock:
    def test_forwards_below_limit(self):
        h = Harness(limit=2)
        h.queue.offer(req(0), None)
        h.queue.offer(req(1), None)
        assert h.forwarded == [0, 1]
        assert h.queue.waiting_count == 0

    def test_parks_at_limit_and_drains_fifo(self):
        h = Harness(limit=2)
        for i in range(5):
            h.queue.offer(req(i), None)
        assert h.forwarded == [0, 1]
        assert h.queue.waiting_count == 3
        assert h.queue.deferred == 3
        h.complete()
        assert h.forwarded == [0, 1, 2]
        h.complete(2)
        assert h.forwarded == [0, 1, 2, 3, 4]
        assert h.queue.waiting_count == 0

    def test_no_overtaking_while_waiting(self):
        """A request behind a parked one must not jump the queue."""
        h = Harness(limit=2)
        for i in range(3):
            h.queue.offer(req(i), None)
        # Capacity frees up but drain() hasn't run: a fresh offer still
        # queues behind request 2 rather than overtaking it.
        h.service.outstanding_jobs = 0
        h.queue.offer(req(3), None)
        assert h.forwarded == [0, 1]
        h.queue.drain()
        assert h.forwarded == [0, 1, 2, 3]

    def test_max_wait_depth_tracked(self):
        h = Harness(limit=1)
        for i in range(4):
            h.queue.offer(req(i), None)
        assert h.queue.max_wait_depth == 3


class TestShedding:
    def test_shed_newest_drops_incoming(self):
        h = Harness(limit=1, policy=QueuePolicy.SHED_NEWEST)
        h.queue.offer(req(0), None)  # forwarded
        h.queue.offer(req(1), None)  # parked (wait depth 1 == limit)
        h.queue.offer(req(2), None)  # dropped
        assert h.forwarded == [0]
        assert h.queue.waiting_count == 1
        assert h.queue.shed_newest == 1
        h.complete()
        assert h.forwarded == [0, 1]

    def test_shed_oldest_keeps_fresh_frames(self):
        h = Harness(limit=1, policy=QueuePolicy.SHED_OLDEST)
        h.queue.offer(req(0), None)  # forwarded
        h.queue.offer(req(1), None)  # parked
        h.queue.offer(req(2), None)  # evicts 1
        assert h.queue.shed_oldest == 1
        assert h.queue.waiting_count == 1
        h.complete()
        # The stale frame was dropped; the fresh one got served.
        assert h.forwarded == [0, 2]

    def test_shed_total(self):
        h = Harness(limit=1, policy=QueuePolicy.SHED_OLDEST)
        for i in range(4):
            h.queue.offer(req(i), None)
        assert h.queue.shed == h.queue.shed_oldest == 2


class TestDegradePolicy:
    def test_overflow_nudges_controller(self):
        h = Harness(limit=1, policy=QueuePolicy.DEGRADE)
        h.queue.offer(req(0), None)
        assert h.overflows == 0
        h.queue.offer(req(1), None)
        h.queue.offer(req(2), None)
        # Every parked request nudges; nothing is shed.
        assert h.overflows == 2
        assert h.queue.shed == 0
        assert h.queue.waiting_count == 2


class TestFlushAndMetrics:
    def test_flush_empties_queue(self):
        h = Harness(limit=1)
        for i in range(3):
            h.queue.offer(req(i), None)
        leftovers = h.queue.flush()
        assert [r.sequence for r, _ in leftovers] == [1, 2]
        assert h.queue.waiting_count == 0
