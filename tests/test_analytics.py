"""Tests for the closed-form predictors, exact recurrences, and statistics.

Expected values come from independent oracles: exact enumeration over all
proposer sequences (computed with Fraction arithmetic and frozen below),
the exact one-step moment recurrence, and the closed-form heritage of the
proposer-takes-all fraction (beta-shaped limit with variance scaling
n/(n+a+b), itself cross-checked against the recurrence).
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

from stakesim import (
    BetaParams,
    ExperimentConfig,
    Regime,
    beta_limit_params,
    classify_regime,
    constant_matrix,
    custom_matrix,
    empirical_stats,
    exact_stake_moments,
    frd_matrix,
    limiting_mean_fraction,
    predict,
    predict_mean_stake,
    predict_var_stake,
    run_experiment,
)
from stakesim.errors import DegenerateBeta, InvalidInput

LN1000 = math.log(1000.0)


class TestPredictMeanStake:
    def test_direct_substitution(self):
        assert predict_mean_stake(50, 150, 200, 1000) == pytest.approx(100_000.0)

    def test_vanishing_share_term(self):
        # l = 0 (winner-takes-all): the leading term is identically zero;
        # the fraction's law comes from the beta limit instead
        assert predict_mean_stake(0, 200, 200, 1000) == 0.0

    def test_tenth_share_node(self):
        # l = 10, w = 110 corresponds to a 1/10 initial share at K = 200
        mean = predict_mean_stake(10, 110, 200, 1000)
        assert mean == pytest.approx(0.1 * 200 * 1000)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            predict_mean_stake(150, 50, 200, 10)


class TestPredictVarStake:
    def test_critical_direct_substitution(self):
        var, regime = predict_var_stake(50, 150, 200, 1000)
        assert regime is Regime.CRITICAL
        assert var == pytest.approx(2500.0 * 1000 * LN1000)

    def test_uniform_dividend_has_zero_variance(self):
        # w = l: every slot pays the same row regardless of the proposer
        var, regime = predict_var_stake(40, 40, 200, 1000)
        assert regime is Regime.SUBCRITICAL
        assert var == 0.0

    def test_supercritical_rejected(self):
        with pytest.raises(InvalidInput, match="no closed-form variance for w - l > K/2"):
            predict_var_stake(0, 200, 200, 1000)

    def test_zero_horizon(self):
        assert predict_var_stake(50, 150, 200, 0)[0] == 0.0

    def test_tenth_share_fraction_variance(self):
        # (K-w) l n ln n / (Kn + S0)^2 for the 1/10-share node
        var, _ = predict_var_stake(10, 110, 200, 1000)
        assert var / 200_100.0**2 == pytest.approx(1.5527e-4, rel=1e-3)


class TestPredictFraction:
    # predict(...) divides the stake predictions by S(n) = K*n + S(0) and
    # its square; node 0 of frd [50, 50] at K = 200 has l = 50, w = 150
    HALF = frd_matrix([50, 50], 200)

    def test_equal_split(self):
        p = predict(self.HALF, 0, 100, 1000)
        assert p.mean_fraction == pytest.approx(0.5, abs=5e-4)
        assert p.var_fraction == pytest.approx(4.3130e-4, rel=1e-3)

    def test_one_third_split(self):
        p = predict(frd_matrix([100 / 3, 200 / 3], 200), 0, 100, 1000)
        assert p.mean_fraction == pytest.approx(1 / 3, abs=5e-4)
        assert p.var_fraction == pytest.approx(3.8338e-4, rel=1e-3)

    def test_fraction_variance_vanishes(self):
        assert predict(self.HALF, 0, 100, 10**9).var_fraction < 1e-8

    @pytest.mark.parametrize("stakes,budget,n", [
        ([0.1] * 9, 0.01, 10),
        ([10, 30, 30, 30], 200, 1000),
        ([12.5, 7.25, 30, 0, 50.25], 0.7, 300),
        ([1e-3, 2.5, 1e6], 3.0, 0),
        ([1e-3, 2.5, 1e6], 3.0, 10**9),
    ])
    def test_frd_mean_leaves_out_the_initial_stake(self, stakes, budget, n):
        # the leading term l/(K-w+l) * K * n over S(n) is v_i * K * n / S(n):
        # it sits S_i(0)/S(n) below the initial share v_i, which is frd's
        # exact mean fraction at every n
        matrix = frd_matrix(stakes, budget)
        initial_total = float(np.sum(stakes))
        final_total = initial_total + n * budget
        for node, stake in enumerate(stakes):
            p = predict(matrix, node, initial_total, n)
            assert p.mean_fraction + stake / final_total == pytest.approx(
                stake / initial_total, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 64, 512, 4096, 10**6])
    def test_critical_variance_decays_past_n8(self, n):
        a = predict(self.HALF, 0, 100, n).var_fraction
        b = predict(self.HALF, 0, 100, 2 * n).var_fraction
        assert b < a


class TestLimitingMeanFraction:
    def test_degenerate_denominator(self):
        with pytest.raises(InvalidInput, match=r"K - w \+ l = 0 <= 0"):
            limiting_mean_fraction(0, 200, 200)

    @given(
        stakes=st.lists(st.floats(0.01, 1e6), min_size=1, max_size=8),
        budget=st.floats(0.1, 1e4),
    )
    @settings(max_examples=300, deadline=None)
    def test_shared_reward_fixed_point(self, stakes, budget):
        # l/(K-w+l) = alpha S(0) v / (alpha S(0)) = v: the long-run mean
        # fraction equals the initial fraction for every node
        matrix = frd_matrix(stakes, budget)
        total = sum(stakes)
        for node in range(len(stakes)):
            limit = limiting_mean_fraction(
                matrix.balanced.l[node], matrix.balanced.w[node], budget
            )
            assert limit == pytest.approx(stakes[node] / total, rel=1e-9, abs=1e-12)


class TestPredictAssembly:
    def test_shared_reward_prediction(self):
        prediction = predict(frd_matrix([50, 50], 200), 0, 100.0, 1000)
        assert prediction.regime is Regime.CRITICAL
        assert prediction.mean_stake == pytest.approx(100_000.0)
        assert prediction.var_stake == pytest.approx(2500.0 * 1000 * LN1000)
        assert prediction.leading_order_only

    def test_supercritical_rejected(self):
        message = "no closed-form prediction in the supercritical regime"
        with pytest.raises(InvalidInput, match=message):
            predict(constant_matrix(2, 200), 0, 100.0, 1000)

    def test_unbalanced_rejected(self):
        matrix = custom_matrix([[120, 40, 40], [30, 130, 40], [40, 40, 120]])
        with pytest.raises(InvalidInput, match="regime classification needs a balanced matrix"):
            predict(matrix, 0, 200.0, 10)


# --- exact recurrence as the independent oracle --------------------------------

# all proposer sequences of the 3-node matrix [[2,1,1],[1,2,1],[1,1,2]]
# (w=2, l=1, K=4) from stakes [1,2,3], enumerated exactly with Fractions;
# probability-weighted means at n=8:
ENUMERATED_MEANS_N8 = (
    Fraction(1865401, 169728),   # node 0
    Fraction(38, 3),             # node 1
    Fraction(2434375, 169728),   # node 2
)


class TestExactStakeMoments:
    def test_matches_exact_enumeration(self):
        for node, (s0, expected) in enumerate(zip((1, 2, 3), ENUMERATED_MEANS_N8)):
            mean, _ = exact_stake_moments(s0, 6.0, 2.0, 1.0, 4.0, 8)
            assert mean == pytest.approx(float(expected), abs=1e-10), node

    @pytest.mark.parametrize("stakes,node", [((50.0, 50.0), 0), ((10.0, 90.0), 0), ((10.0, 90.0), 1)])
    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_winner_takes_all_matches_polya_law(self, stakes, node, n):
        # independent closed form for the proposer-takes-all fraction:
        # mean stays at v0 and Var[v(n)] = Var_beta * n / (n + a + b)
        budget = 200.0
        total = sum(stakes)
        mean, var = exact_stake_moments(stakes[node], total, budget, 0.0, budget, n)
        grown = total + n * budget
        beta = beta_limit_params(stakes, budget, node)
        assert mean / grown == pytest.approx(stakes[node] / total, rel=1e-12)
        expected = beta.variance * n / (n + beta.a + beta.b)
        assert var / grown**2 == pytest.approx(expected, rel=1e-9)

    def test_critical_leading_order_is_close_at_n1000(self):
        mean, var = exact_stake_moments(50.0, 100.0, 150.0, 50.0, 200.0, 1000)
        lead, _ = predict_var_stake(50.0, 150.0, 200.0, 1000)
        assert 0.97 <= var / lead <= 1.0
        assert mean / (100.0 + 1000 * 200.0) == pytest.approx(0.5, rel=1e-12)

    def test_subcritical_leading_order_is_close_at_n10000(self):
        _, var = exact_stake_moments(1.0, 6.0, 2.0, 1.0, 4.0, 10_000)
        lead, regime = predict_var_stake(1.0, 2.0, 4.0, 10_000)
        assert regime is Regime.SUBCRITICAL
        assert 0.95 <= var / lead <= 1.0


def premium_matrix(stakes, budget, beta):
    """The balanced matrix that pays the proposer a premium beta*K on top
    of l_i = (1 - beta) K v_i(0): frd at beta = 1/2, constant at 1."""
    v0 = np.asarray(stakes, dtype=float) / np.sum(stakes)
    l = (1 - beta) * budget * v0
    entries = np.tile(l, (len(l), 1))
    entries[np.diag_indices(len(l))] = l + beta * budget
    return custom_matrix(entries.tolist())


def pooling_ratios(matrix, stakes, n):
    """Var v_i(n) / (v_i(0)(1 - v_i(0))) for every node, from
    exact_stake_moments."""
    total = float(np.sum(stakes))
    final = total + n * matrix.row_sum
    ratios = []
    for s, w, l in zip(stakes, matrix.balanced.w.tolist(), matrix.balanced.l.tolist()):
        _, var = exact_stake_moments(float(s), total, w, l, matrix.row_sum, n)
        v0 = s / total
        ratios.append(var / final**2 / (v0 * (1 - v0)))
    return np.array(ratios)


class TestPoolingIdentity:
    r"""Var v_i(n) = c(n) v_i(0)(1 - v_i(0)) with one c(n) for every node
    of an frd or a constant config.

    Both matrices pay node i l_i = (1 - beta) K v_i(0) when another node
    proposes and w_i = l_i + beta K when it proposes, beta = 1/2 (frd) or 1
    (constant).  Write d = beta K, T_t = S(0) + t K, X = S_i(t) and
    v = X / T_t.  Given X, X' = X + l_i + d B with B ~ Bernoulli(v), so
    E[X' | X] = X (1 + d/T_t) + l_i, and by induction E v_i(t) = v_i(0):
    v_i(0) T_t (1 + d/T_t) + (K - d) v_i(0) = v_i(0) T_{t+1}.  The law of
    total variance gives

        Var X' = (1 + d/T_t)^2 Var X + d^2 E[v (1 - v)],
        E[v (1 - v)] = v_i(0)(1 - v_i(0)) - Var v,

    so V_t = Var v_i(t) obeys

        V_{t+1} T_{t+1}^2 = ((T_t + d)^2 - d^2) V_t + d^2 v_i(0)(1 - v_i(0)),

    with V_0 = 0.  The coefficients do not depend on i, and the source is
    v_i(0)(1 - v_i(0)), so V_t / (v_i(0)(1 - v_i(0))) = c(t) for every
    node.  The derivation holds for every beta in [0, 1] (the premium
    family), and fails when l_i is not proportional to v_i(0): then
    E v_i(t) drifts and the source term is no longer v_i(0)(1 - v_i(0)).

    exact_stake_moments returns m2 - m1^2, which cancels by up to about
    v_i(0) / (c(n)(1 - v_i(0))); with stakes 1 .. 100 that is below 1e7,
    so the rounding of its n steps stays well inside the relative bound
    1e-6."""

    @seed(20261021)
    @given(stakes=st.lists(st.integers(1, 100), min_size=2, max_size=8),
           n=st.integers(1, 1000), budget=st.sampled_from([200.0, 0.7]))
    @settings(max_examples=30, deadline=None)
    def test_one_ratio_for_every_node(self, stakes, n, budget):
        for matrix in (frd_matrix(stakes, budget), constant_matrix(len(stakes), budget),
                       premium_matrix(stakes, budget, 0.75)):
            ratios = pooling_ratios(matrix, stakes, n)
            assert np.ptp(ratios) <= 1e-6 * ratios.max(), ratios

    def test_payouts_not_proportional_to_stake_break_it(self):
        # l_i = K/6 for every node, w_i = l_i + K/2: balanced and critical,
        # but each mean fraction drifts toward 1/3
        budget = 200.0
        matrix = custom_matrix([[400 / 3, 100 / 3, 100 / 3], [100 / 3, 400 / 3, 100 / 3],
                                [100 / 3, 100 / 3, 400 / 3]])
        ratios = pooling_ratios(matrix, [10, 30, 60], 1000)
        assert matrix.row_sum == pytest.approx(budget)
        assert np.ptp(ratios) > 0.1 * ratios.max(), ratios


class TestMeanFractionsSumToOne:
    @given(
        l_values=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=8),
        factor=st.floats(1.02, 2.0),
        n=st.integers(1, 10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_total_predicted_stake_is_budget_times_n(self, l_values, factor, n):
        # a balanced matrix with off-diagonal column sums L and row sum
        # K = factor * L has w_i = K - L + l_i; predicted stakes sum to K*n
        L = sum(l_values)
        budget = factor * L
        total = sum(
            predict_mean_stake(l, budget - L + l, budget, n) for l in l_values
        )
        assert total == pytest.approx(budget * n, rel=1e-9)


# every analytic function that takes a horizon, called with node 0 of
# frd [50, 50] at K = 200 (l = 50, w = 150, S(0) = 100)
HORIZON_CONSUMERS = {
    "predict_mean_stake": lambda n: predict_mean_stake(50, 150, 200, n),
    "predict_var_stake": lambda n: predict_var_stake(50, 150, 200, n),
    "predict": lambda n: predict(frd_matrix([50, 50], 200), 0, 100.0, n),
    "exact_stake_moments": lambda n: exact_stake_moments(50, 100, 150, 50, 200, n),
}
# and every one that takes the initial total S(0)
TOTAL_CONSUMERS = {
    "predict": lambda total: predict(frd_matrix([50, 50], 200), 0, total, 0),
    "exact_stake_moments": lambda total: exact_stake_moments(10, total, 150, 50, 200, 3),
}


class TestHorizonAndTotalRules:
    """n follows the config integer rule (any integral number but a bool)
    and is >= 0; S(0) is finite and > 0."""

    @pytest.mark.parametrize("consumer", sorted(HORIZON_CONSUMERS))
    def test_negative_horizon_rejected(self, consumer):
        with pytest.raises(InvalidInput, match=r"n must be >= 0"):
            HORIZON_CONSUMERS[consumer](-5)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", np.float64(3.0)])
    @pytest.mark.parametrize("consumer", sorted(HORIZON_CONSUMERS))
    def test_non_integer_horizon_rejected(self, consumer, n):
        with pytest.raises(InvalidInput, match=re.escape(f"n must be an integer, got {n!r}")):
            HORIZON_CONSUMERS[consumer](n)

    @pytest.mark.parametrize("consumer", sorted(HORIZON_CONSUMERS))
    def test_numpy_integer_horizon_is_an_int(self, consumer):
        assert HORIZON_CONSUMERS[consumer](np.int64(7)) == HORIZON_CONSUMERS[consumer](7)

    @pytest.mark.parametrize("total", [0.0, -100.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("consumer", sorted(TOTAL_CONSUMERS))
    def test_bad_initial_total_rejected(self, consumer, total):
        message = re.escape(f"initial_total must be finite and > 0, got {total!r}")
        with pytest.raises(InvalidInput, match=message):
            TOTAL_CONSUMERS[consumer](total)

    def test_zero_horizon_is_valid(self):
        p = predict(frd_matrix([50, 50], 200), 0, 100.0, 0)
        assert (p.mean_stake, p.var_stake, p.mean_fraction) == (0.0, 0.0, 0.0)
        assert exact_stake_moments(50, 100, 150, 50, 200, 0) == (50.0, 0.0)


class TestExactStakeMomentsInputs:
    def test_stake_above_the_total_rejected(self):
        # a node holding 500 of a 100 total once gave a variance of -644,266.7
        message = "need 0 <= s_i0 <= initial_total, got s_i0=500 initial_total=100.0"
        with pytest.raises(InvalidInput, match=re.escape(message)):
            exact_stake_moments(500, 100, 150, 50, 200, 3)
        with pytest.raises(InvalidInput, match="need 0 <= s_i0"):
            exact_stake_moments(-1, 100, 150, 50, 200, 3)
        with pytest.raises(InvalidInput, match="need 0 <= s_i0"):
            exact_stake_moments(float("nan"), 100, 150, 50, 200, 3)

    def test_negative_w_rejected(self):
        # w < 0 < l once gave (134.1, 949.0)
        message = "need 0 <= l <= w <= K, got l=50 w=-5 K=200"
        with pytest.raises(InvalidInput, match=re.escape(message)):
            exact_stake_moments(10, 100, -5, 50, 200, 3)

    def test_whole_total_is_valid(self):
        # one node holding everything under proposer-takes-all keeps it all
        mean, var = exact_stake_moments(100, 100, 200, 0, 200, 3)
        assert mean == pytest.approx(700.0, rel=1e-15)
        assert var == pytest.approx(0.0, abs=1e-9)


# every analytic function that takes a node index, called on frd [10, 90]
# at K = 200
NODE_CONSUMERS = {
    "predict": lambda i: predict(frd_matrix([10, 90], 200), i, 100.0, 10),
    "beta_limit_params": lambda i: beta_limit_params([10, 90], 200, i),
    "classify_regime": lambda i: classify_regime(frd_matrix([10, 90], 200), i),
}


class TestNodeIndexRule:
    """A node index follows the integer rule and lies in [0, m)."""

    @pytest.mark.parametrize("node", [True, np.array([1]), np.array(1), 1.0],
                             ids=["bool", "array", "0-d-array", "float"])
    @pytest.mark.parametrize("consumer", sorted(NODE_CONSUMERS))
    def test_non_integer_node_rejected(self, consumer, node):
        with pytest.raises(InvalidInput, match=re.escape(f"node must be an integer, got {node!r}")):
            NODE_CONSUMERS[consumer](node)

    @pytest.mark.parametrize("node", [2, -1])
    @pytest.mark.parametrize("consumer", sorted(NODE_CONSUMERS))
    def test_out_of_range_node_rejected(self, consumer, node):
        with pytest.raises(InvalidInput, match=f"^node index {node} out of range for 2 nodes$"):
            NODE_CONSUMERS[consumer](node)

    @pytest.mark.parametrize("consumer", sorted(NODE_CONSUMERS))
    def test_numpy_integer_node_is_an_int(self, consumer):
        assert NODE_CONSUMERS[consumer](np.int64(1)) == NODE_CONSUMERS[consumer](1)
        if consumer == "predict":
            assert type(NODE_CONSUMERS[consumer](np.int64(1)).node) is int


class TestBetaLimit:
    def test_equal_split(self):
        beta = beta_limit_params([50, 50], 200, 0)
        assert (beta.a, beta.b) == (0.25, 0.25)
        assert beta.variance == pytest.approx(1 / 6)

    def test_one_third_split(self):
        beta = beta_limit_params([33.33, 66.67], 200, 0)
        assert beta.a == pytest.approx(1 / 6, abs=1e-4)
        assert beta.b == pytest.approx(1 / 3, abs=1e-4)
        assert beta.variance == pytest.approx(0.148, abs=1e-3)

    def test_tenth_share_marginal(self):
        beta = beta_limit_params([10, 30, 30, 30], 200, 0)
        assert (beta.a, beta.b) == (0.05, 0.45)
        assert beta.variance == pytest.approx(0.06)

    def test_mean_is_initial_fraction(self):
        assert beta_limit_params([10, 30, 30, 30], 200, 0).mean == pytest.approx(0.1)

    def test_degenerate(self):
        with pytest.raises(DegenerateBeta):
            beta_limit_params([0, 100], 200, 0)
        with pytest.raises(DegenerateBeta):
            beta_limit_params([100], 200, 0)


class TestBetaPdf:
    # The exponent's absolute error is the density's relative error.  Each
    # band's bound is 3 eps (eps = 2.2e-16) times the largest sum of
    # |lgamma(a)|, |lgamma(b)|, |lgamma(a+b)|, |(a-1) ln x| and
    # |(b-1) ln(1-x)| in the band: about 26, 2.2e3, 4.0e5 and 5.9e7.
    # a and b are drawn log-uniformly over the band, on the hist overlay's
    # grid; densities below 1e-300, never drawn, are compared absolutely.
    @pytest.mark.parametrize("low,high,bound", [
        (1e-3, 1.0, 3e-14), (1.0, 1e2, 2e-12), (1e2, 1e4, 3e-10), (1e4, 1e6, 4e-8),
    ])
    def test_matches_scipy(self, low, high, bound):
        grid = np.linspace(0.002, 0.998, 250)
        rng = np.random.Generator(np.random.PCG64(2300))
        for a, b in 10.0 ** rng.uniform(math.log10(low), math.log10(high), (300, 2)):
            ref = sp_stats.beta.pdf(grid, a, b)
            got = BetaParams(a, b).pdf(grid)
            assert np.all(np.abs(got - ref) <= bound * ref + 1e-300), (a, b)

    # Narrow laws whose mean is a point of the grid: the spike must keep its
    # height, also at (1e306, 1e306), where lgamma would overflow.  The bound
    # is 3 eps times the largest sum of |terms| of the saddle-point exponent
    # at the spike, about 1,060 at (1e306, 1e306), rounded up.
    @pytest.mark.parametrize("a,b,mean", [(1e14, 3e14, 0.25), (1e16, 3e16, 0.25),
                                          (1e20, 3e20, 0.25), (1e300, 3e300, 0.25),
                                          (1e306, 1e306, 0.5)])
    def test_narrow_spike_matches_scipy(self, a, b, mean):
        grid = np.append(np.linspace(0.002, 0.998, 250), mean)
        ref = sp_stats.beta.pdf(grid, a, b)
        got = BetaParams(a, b).pdf(grid)
        assert ref[-1] > 1e7
        assert np.all(np.abs(got - ref) <= 1e-12 * ref + 1e-300)


class TestEmpiricalStats:
    def test_hand_arithmetic(self):
        stats = empirical_stats([0.4, 0.5, 0.6], bins=10)
        assert stats.mean == pytest.approx(0.5)
        assert stats.variance == pytest.approx(0.01)
        assert stats.count == 3

    def test_constant_vector(self):
        assert empirical_stats([0.3, 0.3, 0.3]).variance == 0.0

    def test_histogram_counts_sum_to_count_with_boundary_sample(self):
        stats = empirical_stats([0.0, 0.25, 0.5, 1.0], bins=4)
        assert stats.bin_counts.sum() == 4
        assert stats.bin_counts.tolist() == [1, 1, 1, 1]  # 1.0 lands in the last bin

    def test_too_few_samples(self):
        with pytest.raises(InvalidInput, match="need at least 2 samples"):
            empirical_stats([0.5])

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            empirical_stats([0.1, 0.2], bins=0)

    def test_out_of_range_sample(self):
        for samples in ([0.5, 1.5], [0.5, math.nan, 0.3]):
            with pytest.raises(InvalidInput, match=r"samples must lie in \[0, 1\]"):
                empirical_stats(samples)


def _final_fractions(scheme: str, reps: int, seed: int) -> np.ndarray:
    config = ExperimentConfig(
        initial_stakes=(50.0, 50.0),
        scheme=scheme,
        reward_budget_K=200.0,
        steps_n=1000,
        repetitions=reps,
        base_seed=seed,
    )
    return run_experiment(config).final_fractions[:, 0]


def ks_distance(samples, beta: BetaParams) -> float:
    """Sup-norm distance between the empirical CDF and the Beta(a, b) CDF."""
    return float(sp_stats.kstest(samples, sp_stats.beta(beta.a, beta.b).cdf).statistic)


class TestKsDistance:
    def test_self_consistency(self):
        samples = np.random.Generator(np.random.PCG64(1234)).beta(0.25, 0.25, size=10_000)
        assert ks_distance(samples, BetaParams(0.25, 0.25)) < 0.02

    def test_winner_takes_all_converges_toward_beta(self):
        # At n=1000 the sup distance is pinned at ~0.068 by the atom of
        # never-selected runs: P(never) = 0.0869 sits at the minimum
        # attainable fraction 50/200100, where the beta CDF is already
        # 0.0678.  The distance shrinks like n^(-1/4) as the horizon grows.
        d = ks_distance(_final_fractions("constant", 4000, 8801), BetaParams(0.25, 0.25))
        assert 0.05 < d < 0.095

    def test_shared_reward_is_far_from_beta(self):
        # concentrated near 1/2 while Beta(0.25, 0.25) spreads to the edges;
        # measured sup distance ~0.477, an order of magnitude above the
        # winner-takes-all distance, which is what separates the schemes
        d = ks_distance(_final_fractions("frd", 4000, 8802), BetaParams(0.25, 0.25))
        assert d > 0.4
