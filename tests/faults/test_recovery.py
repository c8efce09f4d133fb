"""Self-healing recovery: conservation, Definition-3 sums, bit-identity.

The hard guarantees of the recovery layer: no submitted job is lost
under any single-fault plan (every stranded task is re-placed), the
causal phase decomposition still sums exactly to each job's latency even
for re-executed tasks, and runs without faults stay bit-identical to a
simulator that predates the subsystem.
"""

import math

import pytest

from repro.faults import (
    CacheWipe,
    DetectionConfig,
    FaultPlan,
    NodeCrash,
    RecoveryConfig,
    Straggler,
)
from repro.obs import AuditConfig
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario

SCALE = 0.05


def healed(*events) -> FaultPlan:
    """A self-healing plan around the given events (default configs)."""
    return FaultPlan(
        events=tuple(events),
        detection=DetectionConfig(),
        recovery=RecoveryConfig(),
    )


def run_with(plan, *, scheduler="OURS", number=1, audit=True):
    scenario = make_scenario(number, scale=SCALE)
    config = RunConfig(
        drain=True,
        audit=AuditConfig(capacity=None) if audit else False,
        faults=plan,
    )
    return run_simulation(scenario, scheduler, config)


SINGLE_FAULT_PLANS = {
    "crash": healed(NodeCrash(1.0, 2, revive_at=2.2)),
    "straggler": healed(Straggler(1.0, 3, render_factor=6.0)),
    "wipe": healed(CacheWipe(2.0, node=1)),
}


class TestConservation:
    @pytest.mark.parametrize("kind", sorted(SINGLE_FAULT_PLANS))
    def test_no_job_lost_under_single_fault(self, kind):
        result = run_with(SINGLE_FAULT_PLANS[kind])
        report = result.fault_report
        assert report is not None
        assert report.events_injected == 1
        assert report.jobs_completed == report.jobs_submitted
        assert report.jobs_lost == 0

    def test_crash_requeues_orphans(self):
        result = run_with(SINGLE_FAULT_PLANS["crash"])
        report = result.fault_report
        assert report.tasks_requeued() > 0
        assert "requeue-crash" in report.action_counts()

    def test_vanilla_crash_still_conserves(self):
        """No detection: the legacy instantly-aware §VI-D path."""
        result = run_with(FaultPlan(events=(NodeCrash(1.0, 2),)))
        report = result.fault_report
        assert report.jobs_lost == 0
        assert not report.detections
        assert not report.actions


class TestDefinitionThree:
    def test_phase_sums_hold_for_reexecuted_tasks(self):
        """Definition 3 must survive re-execution: every completed job's
        phase decomposition still sums exactly to its latency, including
        the jobs whose bounding task was requeued after the crash."""
        result = run_with(SINGLE_FAULT_PLANS["crash"])
        assert result.fault_report.tasks_requeued() > 0
        paths = result.critical_paths.paths
        assert len(paths) == result.jobs_completed
        for path in paths:
            total = sum(path.phase_values().values())
            assert math.isclose(total, path.latency, rel_tol=0, abs_tol=1e-9)


class TestBitIdentity:
    def _trace_hash(self, config):
        scenario = make_scenario(1, scale=0.1)
        result = run_simulation(scenario, "OURS", config)
        return result.assignment_trace_hash()

    def test_faults_none_matches_plain_run(self):
        baseline = self._trace_hash(RunConfig(record_assignments=True))
        with_field = self._trace_hash(
            RunConfig(record_assignments=True, faults=None)
        )
        assert baseline == with_field

    def test_empty_plan_matches_plain_run(self):
        """Arming the injector with zero events must not perturb the
        event queue: the golden trace is bit-identical."""
        baseline = self._trace_hash(RunConfig(record_assignments=True))
        armed = self._trace_hash(
            RunConfig(record_assignments=True, faults=FaultPlan())
        )
        assert baseline == armed

    def test_legacy_node_failures_parity(self):
        """Crash pairs build the same run as the explicit crash plan."""
        pairs = self._trace_hash(
            RunConfig(
                record_assignments=True,
                faults=FaultPlan.from_node_failures([(1.0, 2)]),
            )
        )
        explicit = self._trace_hash(
            RunConfig(
                record_assignments=True,
                faults=FaultPlan(events=(NodeCrash(1.0, 2),)),
            )
        )
        assert pairs == explicit
        assert pairs != self._trace_hash(RunConfig(record_assignments=True))
