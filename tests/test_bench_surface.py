"""The names the benchmark in perfbench/ reaches stakesim by.

perfbench wraps `stakesim_targets()` for its per-layer spans and calls a few
more names directly; without these tests a renamed name shows up only in a
`--trace 1` benchmark run.
"""
import importlib.util
from pathlib import Path

import numpy as np

import stakesim.cli
from stakesim import analytics, montecarlo, urn
from stakesim.cli import builtin_benchmark_configs, table1_report

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = load_tracing().stakesim_targets()
    assert targets
    for owner, attr, name in targets:
        assert callable(getattr(owner, attr, None)), name


def test_worker_names_exist():
    # the call shapes of perfbench/worker.py's probes and checks.py's oracle
    stakes = (10.0, 30.0, 60.0)
    matrix = montecarlo.frd_matrix(stakes, 200.0)
    final, total = urn.simulate_trajectory(urn.new_state(stakes), matrix, 10, 5)
    assert total == 100.0 + 10 * 200.0
    moments = montecarlo.RunningMoments()
    moments.add_values(final / total)
    assert moments.count == 3
    m1, var = analytics.exact_stake_moments(10.0, 100.0, 150.0, 50.0, 200.0, 10)
    assert np.isfinite([m1, var]).all()
    config = montecarlo.ExperimentConfig(stakes, "frd", 200.0, 25, 2, 5,
                                         record=montecarlo.RecordPolicy(stride=10))
    assert urn.recorded_steps(config.steps_n, config.record.stride) == [0, 10, 20, 25]


def test_table1_report_calls_predictors_by_cli_names(monkeypatch):
    # the traced analytics.predict and analytics.beta_limit_params spans wrap
    # these two cli attributes: one call of each per config
    calls = []
    for name in ("predict", "beta_limit_params"):
        def spy(*args, _name=name, _original=getattr(stakesim.cli, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(stakesim.cli, name, spy)
    configs = builtin_benchmark_configs(repetitions=5)
    rows, _ = table1_report(configs)
    assert calls == ["beta_limit_params", "predict"] * len(configs)
    assert len(rows) == 2 * len(configs)
