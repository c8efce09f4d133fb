"""Tests for RunConfig and the removed pre-2.0 spellings."""

import pickle
import warnings

import pytest

from repro.frontend import FrontendConfig
from repro.sim.run_config import RunConfig
from repro.sim.simulator import run_simulation
from repro.sim.sweep import replicate, sweep
from repro.workload.scenarios import make_scenario


def scenario_factory(seed):
    return make_scenario(2, scale=0.02, seed=seed)


class TestRunConfig:
    def test_frozen_and_replace(self):
        config = RunConfig()
        with pytest.raises(AttributeError):
            config.drain = True
        assert config.replace(drain=True).drain is True
        assert config.drain is False

    def test_picklable_with_frontend(self):
        config = RunConfig(frontend=FrontendConfig.protective())
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config


class TestDeprecatedSpelling:
    """The 1.x keyword spellings were removed in 2.0."""

    def test_run_simulation_legacy_kwargs_raise(self):
        scenario = make_scenario(2, scale=0.02)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_simulation(scenario, "OURS", drain=True)

    def test_config_plus_kwargs_rejected(self):
        scenario = make_scenario(2, scale=0.02)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_simulation(
                scenario, "OURS", config=RunConfig(), drain=True
            )

    def test_sweep_legacy_kwargs_raise(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            sweep("seed", [0], scenario_factory, ["OURS"], drain=True)

    def test_sweep_config_plus_kwargs_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            sweep(
                "seed",
                [0],
                scenario_factory,
                ["OURS"],
                config=RunConfig(),
                drain=True,
            )

    def test_replicate_legacy_kwargs_raise(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            replicate(scenario_factory, "OURS", seeds=[0], drain=True)

    def test_node_failures_field_raises(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            RunConfig(node_failures=[(1.0, 2)])

    def test_unknown_kwarg_rejected(self):
        scenario = make_scenario(2, scale=0.02)
        with pytest.raises(TypeError, match="unexpected keyword"):
            run_simulation(scenario, "OURS", dran=True)

    def test_no_warning_on_config_path(self):
        scenario = make_scenario(2, scale=0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_simulation(scenario, "OURS", config=RunConfig())
            run_simulation(scenario, "OURS")


class TestConfigThroughProcessPool:
    def test_replicate_parallel_parity_with_frontend(self):
        """A frontend-bearing RunConfig survives the workers=N path."""
        config = RunConfig(
            frontend=FrontendConfig.protective(max_sessions=4, queue_limit=16)
        )
        serial = replicate(
            scenario_factory, "OURS", seeds=[0, 1], config=config
        )
        parallel = replicate(
            scenario_factory, "OURS", seeds=[0, 1], workers=2, config=config
        )
        assert parallel.fps.values == serial.fps.values
        assert [r.jobs_completed for r in parallel.results] == [
            r.jobs_completed for r in serial.results
        ]
        for result in parallel.results:
            assert result.frontend is not None
            assert result.frontend.forwarded == result.jobs_submitted
