"""FCFSU rejects the feature combinations it cannot run, before running.

FCFSU pins chunk ``j`` to node ``j`` and needs exactly one task per
node.  A crashed node still receives its chunk's tasks, and a
degradation rung that cuts resolution leaves a job with fewer tasks
than nodes.  Both used to abort mid-run (``RuntimeError: node N has
failed`` / ``FCFSU requires one task per node``); both are now a
``ValueError`` naming FCFSU and the feature, raised up front.
"""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.faults.plan import FaultPlan
from repro.frontend.config import (
    DEFAULT_LADDER,
    DegradeConfig,
    FrontendConfig,
)
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.workload.scenarios import make_scenario

SCALE = 0.1


def _storm(scenario, seed, heal):
    return FaultPlan.storm(
        seed,
        node_count=scenario.system.node_count,
        duration=scenario.trace.duration,
        heal=heal,
    )


@pytest.mark.parametrize("frontend", [False, True], ids=["plain", "frontend"])
@pytest.mark.parametrize("heal", [False, True], ids=["vanilla", "heal"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("number", [1, 2])
def test_storms_rejected_up_front(number, seed, heal, frontend):
    scenario = make_scenario(number, scale=SCALE)
    config = RunConfig(
        faults=_storm(scenario, seed, heal),
        frontend=FrontendConfig.protective() if frontend else None,
    )
    with pytest.raises(ValueError, match="FCFSU cannot run a fault plan"):
        run_simulation(scenario, "FCFSU", config=config)


def test_resolution_cutting_ladder_rejected():
    scenario = make_scenario(2, scale=SCALE)
    config = RunConfig(frontend=FrontendConfig.protective())
    with pytest.raises(ValueError, match="FCFSU cannot run behind a frontend"):
        run_simulation(scenario, "FCFSU", config=config)


def test_crash_free_plan_and_framerate_ladder_accepted():
    """Stragglers, wipes and storage faults, and a ladder that only
    thins frames, leave one task per live node: FCFSU runs them."""
    scenario = make_scenario(1, scale=SCALE)
    storm = _storm(scenario, seed=0, heal=True)
    crash_free = replace(
        storm, events=tuple(e for e in storm.events if e.kind != "crash")
    )
    frame_only = DegradeConfig(
        ladder=tuple(r for r in DEFAULT_LADDER if r.resolution_factor == 1.0)
    )
    config = RunConfig(
        drain=True,
        faults=crash_free,
        frontend=FrontendConfig(degrade=frame_only),
    )
    result = run_simulation(scenario, "FCFSU", config=config)
    assert result.jobs_completed > 0


@pytest.mark.parametrize("scheduler", ["OURS", "FCFSL", "FCFS"])
def test_other_schedulers_still_run_the_storm(scheduler):
    scenario = make_scenario(1, scale=SCALE)
    config = RunConfig(
        faults=_storm(scenario, seed=0, heal=True),
        frontend=FrontendConfig.protective(),
    )
    assert run_simulation(scenario, scheduler, config=config).jobs_completed > 0


class TestCli:
    def test_simulate_degrade_exits_2(self, capsys):
        code = main(
            [
                "simulate",
                "--scenario", "2",
                "--scale", "0.03",
                "--schedulers", "FCFSU",
                "--degrade",
            ]
        )
        assert code == 2
        assert "FCFSU cannot run behind a frontend" in capsys.readouterr().err

    def test_faults_storm_exits_2(self, capsys):
        code = main(
            [
                "faults",
                "--scenario", "1",
                "--scale", "0.05",
                "--scheduler", "FCFSU",
                "--storm", "0",
            ]
        )
        assert code == 2
        assert "FCFSU cannot run a fault plan" in capsys.readouterr().err

    def test_federate_degrade_exits_2(self, capsys):
        code = main(
            [
                "federate",
                "--scenario", "2",
                "--scale", "0.02",
                "--scheduler", "FCFSU",
                "--degrade",
            ]
        )
        assert code == 2
        assert "FCFSU cannot run behind a frontend" in capsys.readouterr().err
