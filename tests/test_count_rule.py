"""The count rule (errors.check_integer) at the public entry points that take
a count: any integral number but a bool, at least the entry's minimum,
stored as a Python int; anything else raises InvalidInput naming the
argument."""

import re

import numpy as np
import pytest

from stakesim import (
    ExperimentConfig, constant_matrix, empirical_stats, recorded_steps, run_experiment,
)
from stakesim.errors import InvalidInput

CONFIG = ExperimentConfig(initial_stakes=(50.0, 50.0), scheme="frd", reward_budget_K=200.0,
                          steps_n=10, repetitions=4, base_seed=7)

# argument name -> a call passing the value as that argument
COUNT_ENTRY_POINTS = {
    "workers": lambda v: run_experiment(CONFIG, workers=v),
    "rep_range start": lambda v: run_experiment(CONFIG, rep_range=(v, 3)),
    "rep_range stop": lambda v: run_experiment(CONFIG, rep_range=(0, v)),
    "n": lambda v: recorded_steps(v, 1),
    "stride": lambda v: recorded_steps(5, v),
    "node count": lambda v: constant_matrix(v, 200.0),
    "bins": lambda v: empirical_stats([0.25, 0.75], bins=v),
}

# the minimums; a rep_range is held to [0, repetitions] by its own range check
MINIMUMS = {"workers": 1, "n": 0, "stride": 0, "node count": 1, "bins": 1}


@pytest.mark.parametrize("value", [True, 2.0, 2.5], ids=["bool", "integral-float", "float"])
@pytest.mark.parametrize("name", sorted(COUNT_ENTRY_POINTS))
def test_non_integer_count_rejected(name, value):
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        COUNT_ENTRY_POINTS[name](value)


@pytest.mark.parametrize("name", sorted(MINIMUMS))
def test_count_below_minimum_rejected(name):
    value = MINIMUMS[name] - 1
    message = f"{name} must be >= {MINIMUMS[name]}, got {value}"
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        COUNT_ENTRY_POINTS[name](value)


def test_numpy_integer_counts_accepted_as_ints():
    result = run_experiment(CONFIG, workers=np.int64(2), rep_range=(np.int64(1), np.int64(3)))
    serial = run_experiment(CONFIG, rep_range=(1, 3))
    assert result.rep_range == (1, 3)
    assert all(type(bound) is int for bound in result.rep_range)
    np.testing.assert_array_equal(result.final_fractions, serial.final_fractions)
    steps = recorded_steps(np.int64(5), np.int64(2))
    assert steps == [0, 2, 4, 5]
    assert all(type(step) is int for step in steps)
    assert constant_matrix(np.int64(3), 200.0).entries.shape == (3, 3)
    assert empirical_stats([0.25, 0.75], bins=np.int64(4)).bin_counts.tolist() == [0, 1, 0, 1]
