"""first_divergence on raw audit captures: same answers, two records built.

``first_divergence(log_a, log_b)`` matches decisions on the keys and
nodes read off the logs' deferred ring entries and builds only the
divergent pair of records.  Every cell here checks that the answer is
the one the materialised record lists give, on real runs: a locality
vs locality-blind pair, a same-scheduler pair, a healed storm whose
divergence lands on a re-dispatched task, and a frontend run whose
shed records precede the divergence.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.faults.plan import DetectionConfig, FaultPlan
from repro.frontend.config import FrontendConfig
from repro.obs.audit import REASON_SHED, AuditConfig, AuditLog
from repro.obs.causal import first_divergence
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario

AUDITED = RunConfig(drain=True, audit=AuditConfig(capacity=None))


@pytest.fixture
def builds(monkeypatch):
    """Count records built from deferred entries, per audit log."""
    counts: Counter = Counter()
    build = AuditLog._record_from_entry

    def counting(self, entry):
        counts[id(self)] += 1
        return build(self, entry)

    monkeypatch.setattr(AuditLog, "_record_from_entry", counting)
    return counts


def _run(number, scheduler, config=AUDITED):
    return run_simulation(make_scenario(number, scale=0.1), scheduler, config=config)


def _storm_pair(number, seed, config=AUDITED):
    """One scheduler under a healed storm, with fast and slow crash
    detection: the runs agree until the crash's orphans are requeued."""
    scenario = make_scenario(number, scale=0.1)
    plan = FaultPlan.storm(
        seed,
        node_count=scenario.system.node_count,
        duration=scenario.trace.duration,
        heal=True,
    )
    slow = replace(
        plan,
        detection=DetectionConfig(heartbeat_interval=0.05, heartbeat_timeout=0.4),
    )
    return (
        run_simulation(scenario, "OURS", config=config.replace(faults=plan)),
        run_simulation(scenario, "OURS", config=config.replace(faults=slow)),
    )


def _check_matches_record_lists(log_a, log_b, builds):
    """Divergence on the logs == divergence on their record lists, and
    the logs built at most the divergent pair of records."""
    raw = first_divergence(log_a, log_b)
    assert builds[id(log_a)] <= 1 and builds[id(log_b)] <= 1
    if raw is None:
        assert builds[id(log_a)] == builds[id(log_b)] == 0
    assert log_a._pending and log_b._pending  # rings still hold raw entries
    assert raw == first_divergence(list(log_a), list(log_b))
    return raw


class TestRealRuns:
    def test_ours_vs_fcfs(self, builds):
        ours, fcfs = _run(2, "OURS"), _run(2, "FCFS")
        div = _check_matches_record_lists(ours.audit, fcfs.audit, builds)
        assert div is not None
        assert div.a.key() == div.b.key() and div.a.node != div.b.node

    def test_same_scheduler_pair_agrees(self, builds):
        first, second = _run(2, "OURS"), _run(2, "OURS")
        assert _check_matches_record_lists(first.audit, second.audit, builds) is None

    def test_redispatched_task_diverges_on_its_occurrence(self, builds):
        healed, slow = _storm_pair(1, seed=1)
        keys = [key for key, _node in healed.audit.decision_keys()]
        assert max(Counter(k for k in keys if k is not None).values()) > 1
        div = _check_matches_record_lists(healed.audit, slow.audit, builds)
        assert div is not None
        assert keys[: div.index].count(div.a.key()) > 0  # occurrence > 0

    def test_shed_records_before_the_divergence(self, builds):
        frontend = AUDITED.replace(frontend=FrontendConfig.protective())
        healed, slow = _storm_pair(2, seed=3, config=frontend)
        assert healed.audit.shed_count > 0
        div = _check_matches_record_lists(healed.audit, slow.audit, builds)
        assert div is not None
        before = list(healed.audit)[: div.index]
        assert any(r.reason == REASON_SHED for r in before)

    def test_frontend_run_against_plain_run(self, builds):
        frontend = AUDITED.replace(frontend=FrontendConfig.protective())
        shedding, plain = _run(2, "OURS", frontend), _run(2, "OURS")
        assert shedding.audit.shed_count > 0
        _check_matches_record_lists(shedding.audit, plain.audit, builds)


class TestDecisionKeys:
    def test_keys_and_nodes_match_the_records(self):
        frontend = AUDITED.replace(frontend=FrontendConfig.protective())
        log = _run(2, "OURS", frontend).audit
        pairs = list(log.decision_keys())
        records = list(log)
        assert pairs == [
            (r.key() if r.task_index >= 0 else None, r.node) for r in records
        ]
        assert pairs.count((None, -1)) == log.shed_count

    def test_record_at_builds_one_slot(self, builds):
        log = _run(2, "OURS").audit
        record = log.record_at(5)
        assert builds[id(log)] == 1 and log._pending
        assert record == list(log)[5]

    def test_decisions_for_builds_only_the_job(self, builds):
        frontend = AUDITED.replace(frontend=FrontendConfig.protective())
        log = _run(2, "OURS", frontend).audit
        reference = list(_run(2, "OURS", frontend).audit)
        shed = next(r for r in reference if r.reason == REASON_SHED)
        builds.clear()
        found = 0
        for rec in (reference[0], shed):
            job = (rec.user, rec.action, rec.sequence)
            records = log.decisions_for(*job)
            assert records
            assert records == [
                r for r in reference if (r.user, r.action, r.sequence) == job
            ]
            found += len(records)
        assert builds[id(log)] < found  # the shed record was never deferred
        assert log._pending
