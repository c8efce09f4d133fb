"""Tests for admission control: token buckets and the session cap."""

import pytest

from repro.core.job import JobType
from repro.frontend.admission import AdmissionController, Decision, TokenBucket
from repro.frontend.config import AdmissionConfig
from repro.workload.trace import Request


def req(time, *, user=0, action=0, seq=0, job_type=JobType.INTERACTIVE):
    return Request(time, job_type, "ds", user, action, seq)


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(rate=1.0, capacity=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, capacity=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.1)
        # 0.5 s at 2 tokens/s refills one token.
        assert bucket.try_take(0.5)
        assert not bucket.try_take(0.5)

    def test_refill_caps_at_capacity(self):
        bucket = TokenBucket(rate=10.0, capacity=2.0)
        assert bucket.try_take(0.0)
        # A long idle period refills to capacity, not beyond.
        for _ in range(2):
            assert bucket.try_take(100.0)
        assert not bucket.try_take(100.0)


class TestRateLimit:
    def test_burst_then_rate(self):
        ctrl = AdmissionController(AdmissionConfig(rate=1.0, burst=2.0))
        assert ctrl.decide(req(0.0, seq=0), 0.0).admitted
        assert ctrl.decide(req(0.0, seq=1), 0.0).admitted
        assert ctrl.decide(req(0.0, seq=2), 0.0) is Decision.REJECT_RATE
        # One second later the bucket holds one more token.
        assert ctrl.decide(req(1.0, seq=3), 1.0).admitted
        assert ctrl.rejected_rate == 1
        assert ctrl.admitted == 3

    def test_buckets_are_per_user(self):
        ctrl = AdmissionController(AdmissionConfig(rate=1.0, burst=1.0))
        assert ctrl.decide(req(0.0, user=0, action=0), 0.0).admitted
        assert not ctrl.decide(req(0.0, user=0, action=0, seq=1), 0.0).admitted
        # A different user has their own full bucket.
        assert ctrl.decide(req(0.0, user=1, action=1), 0.0).admitted

    def test_batch_consumes_tokens(self):
        ctrl = AdmissionController(AdmissionConfig(rate=1.0, burst=1.0))
        assert ctrl.decide(req(0.0, job_type=JobType.BATCH), 0.0).admitted
        assert not ctrl.decide(
            req(0.0, seq=1, job_type=JobType.BATCH), 0.0
        ).admitted


class TestSessionCap:
    def test_cap_binds_and_sticks(self):
        ctrl = AdmissionController(AdmissionConfig(max_sessions=1))
        assert ctrl.decide(req(0.0, action=0), 0.0).admitted
        rejected = ctrl.decide(req(0.1, action=1), 0.1)
        assert rejected is Decision.REJECT_SESSIONS
        # The whole rejected action stays rejected — a clean busy
        # signal, not a sub-framerate trickle.
        assert ctrl.decide(req(0.2, action=1, seq=1), 0.2) is (
            Decision.REJECT_SESSIONS
        )
        assert ctrl.rejected_action_ids == {1}

    def test_rejected_session_stays_out_after_ttl(self):
        ctrl = AdmissionController(
            AdmissionConfig(max_sessions=1, session_ttl=0.5)
        )
        assert ctrl.decide(req(0.0, action=0), 0.0).admitted
        assert not ctrl.decide(req(0.1, action=1), 0.1).admitted
        # Action 0 expired; a *new* action gets the freed slot, but the
        # rejected action 1 never comes back.
        assert not ctrl.decide(req(5.0, action=1, seq=2), 5.0).admitted
        assert ctrl.decide(req(5.0, action=2), 5.0).admitted

    def test_ttl_frees_slots(self):
        ctrl = AdmissionController(
            AdmissionConfig(max_sessions=1, session_ttl=0.5)
        )
        assert ctrl.decide(req(0.0, action=0), 0.0).admitted
        assert ctrl.active_sessions(0.0) == 1
        assert ctrl.active_sessions(1.0) == 0
        assert ctrl.decide(req(1.0, action=1), 1.0).admitted

    def test_batch_exempt_from_cap(self):
        ctrl = AdmissionController(AdmissionConfig(max_sessions=1))
        assert ctrl.decide(req(0.0, action=0), 0.0).admitted
        assert ctrl.decide(
            req(0.0, action=99, job_type=JobType.BATCH), 0.0
        ).admitted

    def test_cap_rejection_spares_token_budget(self):
        """A turned-away session must not drain its user's bucket."""
        ctrl = AdmissionController(
            AdmissionConfig(rate=1.0, burst=1.0, max_sessions=1)
        )
        assert ctrl.decide(req(0.0, user=0, action=0), 0.0).admitted
        # User 1's new session is over the cap; their bucket is intact.
        assert not ctrl.decide(req(0.0, user=1, action=1), 0.0).admitted
        assert ctrl.decide(
            req(0.0, user=1, action=2, job_type=JobType.BATCH), 0.0
        ).admitted


class TestAccounting:
    def test_records_are_bounded(self):
        ctrl = AdmissionController(AdmissionConfig(max_sessions=1))
        ctrl.decide(req(0.0, action=0), 0.0)
        for i in range(AdmissionController.MAX_RECORDS + 100):
            ctrl.decide(req(0.1, action=1, seq=i), 0.1)
        assert len(ctrl.records) == AdmissionController.MAX_RECORDS
        # Exact totals survive past the record cap.
        assert ctrl.rejected_sessions == AdmissionController.MAX_RECORDS + 100

    def test_summary_and_rejected(self):
        ctrl = AdmissionController(AdmissionConfig(rate=1.0, burst=1.0))
        ctrl.decide(req(0.0), 0.0)
        ctrl.decide(req(0.0, seq=1), 0.0)
        assert ctrl.summary() == (1, 1, 0)
        assert ctrl.rejected == 1
        record = ctrl.records[0]
        assert record.decision is Decision.REJECT_RATE
        assert record.time == 0.0
