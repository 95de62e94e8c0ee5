"""Tests for reward-matrix construction, validation, and regime tags."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakesim import (
    ExperimentConfig,
    Regime,
    beta_limit_params,
    classify_regime,
    constant_matrix,
    custom_matrix,
    exact_stake_moments,
    frd_matrix,
    predict_var_stake,
)
from stakesim.errors import InvalidInput

stake_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=32
).filter(lambda s: sum(s) > 0)


class TestConstantMatrix:
    def test_two_nodes(self):
        assert constant_matrix(2, 200).entries.tolist() == [[200.0, 0.0], [0.0, 200.0]]

    def test_single_node(self):
        assert constant_matrix(1, 5).entries.tolist() == [[5.0]]

    def test_balanced_params(self):
        matrix = constant_matrix(3, 120)
        assert matrix.balanced.w.tolist() == [120.0] * 3
        assert matrix.balanced.l.tolist() == [0.0] * 3

    @pytest.mark.parametrize("m,budget", [(1, 1.0), (2, 200.0), (7, 33.5)])
    def test_rows_sum_to_budget(self, m, budget):
        matrix = constant_matrix(m, budget)
        np.testing.assert_allclose(matrix.entries.sum(axis=1), budget, rtol=1e-9)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidInput, match="node count must be >= 1, got 0"):
            constant_matrix(0, 200)

    def test_nonpositive_budget(self):
        with pytest.raises(InvalidInput, match="budget must be finite and > 0, got 0.0"):
            constant_matrix(2, 0.0)


class TestFrdMatrix:
    def test_equal_split(self):
        matrix = frd_matrix([100, 100], 200)
        assert matrix.entries.tolist() == [[150.0, 50.0], [50.0, 150.0]]

    def test_one_third_split(self):
        matrix = frd_matrix([66.67, 133.33], 200)
        expected = [[133.33, 66.67], [33.33, 166.67]]
        np.testing.assert_allclose(matrix.entries, expected, atol=0.01)

    def test_symmetric_stakes_give_symmetric_matrix(self):
        matrix = frd_matrix([10.0] * 5, 200)
        diag = matrix.entries.diagonal()
        off = matrix.entries[~np.eye(5, dtype=bool)]
        assert np.all(diag == diag[0])
        assert np.all(off == off[0])

    def test_zero_total_rejected(self):
        with pytest.raises(InvalidInput, match="at least one stake must be positive"):
            frd_matrix([0.0, 0.0], 200)

    def test_nonpositive_budget(self):
        with pytest.raises(InvalidInput, match="budget must be finite and > 0, got -1"):
            frd_matrix([50, 50], -1)

    @given(stakes=stake_lists, budget=st.floats(0.01, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_rows_always_sum_to_budget(self, stakes, budget):
        matrix = frd_matrix(stakes, budget)
        assert np.all(np.abs(matrix.entries.sum(axis=1) - budget) <= 1e-9 * budget)

    @given(stakes=stake_lists, budget=st.floats(0.01, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_always_critical(self, stakes, budget):
        matrix = frd_matrix(stakes, budget)
        for node in range(matrix.num_nodes):
            assert classify_regime(matrix, node) is Regime.CRITICAL

    @given(
        stakes=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=32),
        budget=st.floats(0.01, 1e5),
    )
    @settings(max_examples=200, deadline=None)
    def test_entries_scale_linearly_in_budget(self, stakes, budget):
        # doubling is a power-of-two scaling, exact as long as no entry
        # underflows to subnormal range (stakes bounded away from 0 above)
        assert np.array_equal(
            frd_matrix(stakes, 2 * budget).entries, 2 * frd_matrix(stakes, budget).entries
        )


class TestCustomMatrix:
    def test_detects_balanced_form(self):
        matrix = custom_matrix([[150, 50], [50, 150]])
        assert matrix.balanced is not None
        assert matrix.balanced.w.tolist() == [150.0, 150.0]
        assert matrix.balanced.l.tolist() == [50.0, 50.0]

    def test_two_node_matrices_always_fit_the_template(self):
        # with one off-diagonal entry per column, w=(150,140), l=(60,50)
        # satisfies every structural constraint (rows sum to K included)
        matrix = custom_matrix([[150, 50], [60, 140]])
        assert matrix.row_sum == 200.0
        assert matrix.balanced.w.tolist() == [150.0, 140.0]
        assert matrix.balanced.l.tolist() == [60.0, 50.0]
        assert classify_regime(matrix, 0) is Regime.SUBCRITICAL

    def test_unbalanced_column_detected(self):
        # column 0 carries off-diagonal values 30 and 40: no single l_0
        matrix = custom_matrix([[120, 40, 40], [30, 130, 40], [40, 40, 120]])
        assert matrix.balanced is None

    def test_row_sum_mismatch(self):
        with pytest.raises(InvalidInput, match="row 1 sums to 200.0, expected the shared budget"):
            custom_matrix([[150, 40], [50, 150]])

    def test_negative_entry(self):
        with pytest.raises(InvalidInput, match=r"negative entry at \(0, 1\)"):
            custom_matrix([[210, -10], [50, 150]])

    def test_not_square(self):
        message = r"expected a non-empty square matrix, got shape \(2, 3\)"
        with pytest.raises(InvalidInput, match=message):
            custom_matrix([[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("rows,row_sum", [
        ([[0.0, 0.0], [0.0, 0.0]], "0.0"),
        ([[1e308, 1e308], [1e308, 1e308]], "inf"),  # finite entries, overflowing sum
    ])
    def test_row_sum_must_be_finite_and_positive(self, rows, row_sum):
        with pytest.raises(InvalidInput, match=f"row sum must be finite and > 0, got {row_sum}"):
            custom_matrix(rows)

    def test_single_node_treated_as_winner_takes_all(self):
        matrix = custom_matrix([[5.0]])
        assert matrix.balanced.l.tolist() == [0.0]
        assert classify_regime(matrix, 0) is Regime.SUPERCRITICAL


class TestClassifyRegime:
    def test_shared_reward_is_critical(self):
        matrix = frd_matrix([10, 30, 30, 30], 200)
        assert classify_regime(matrix, 0) is Regime.CRITICAL

    def test_winner_takes_all_is_supercritical(self):
        assert classify_regime(constant_matrix(2, 200), 0) is Regime.SUPERCRITICAL

    def test_subcritical_example(self):
        # w=120, l=40, K=200: w - l = 80 < 100
        matrix = custom_matrix([[120, 40, 40], [40, 120, 40], [40, 40, 120]])
        for node in range(3):
            assert classify_regime(matrix, node) is Regime.SUBCRITICAL

    def test_unbalanced_refused(self):
        matrix = custom_matrix([[120, 40, 40], [30, 130, 40], [40, 40, 120]])
        with pytest.raises(InvalidInput, match="regime classification needs a balanced matrix"):
            classify_regime(matrix, 0)

    def test_rounded_decimals_still_critical(self):
        # published-style rounded entries sit within the relative tolerance
        matrix = custom_matrix([[133.34, 66.66], [33.34, 166.66]])
        assert classify_regime(matrix, 0) is Regime.CRITICAL


# every function that takes the per-slot budget K applies the one rule
BUDGET_CONSUMERS = {
    "ExperimentConfig": lambda k: ExperimentConfig(
        initial_stakes=(50.0, 50.0), scheme="frd", reward_budget_K=k,
        steps_n=10, repetitions=2, base_seed=1),
    "constant_matrix": lambda k: constant_matrix(2, k),
    "frd_matrix": lambda k: frd_matrix([50, 50], k),
    "beta_limit_params": lambda k: beta_limit_params([50, 50], k, 0),
    "predict_var_stake": lambda k: predict_var_stake(1, 2, k, 10),
    "exact_stake_moments": lambda k: exact_stake_moments(10, 100, 2, 1, k, 10),
}


@pytest.mark.parametrize("budget", [0, -1, float("nan"), float("inf")])
@pytest.mark.parametrize("consumer", sorted(BUDGET_CONSUMERS))
def test_budget_must_be_finite_and_positive(consumer, budget):
    message = re.escape(f"must be finite and > 0, got {budget!r}")
    with pytest.raises(InvalidInput, match=message):
        BUDGET_CONSUMERS[consumer](budget)
