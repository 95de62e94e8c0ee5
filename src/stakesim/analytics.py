"""Closed-form predictors, exact moment recurrences, and sample statistics.

Notation for one node of a balanced matrix: the node collects w when it
proposes (probability = its fractional stake) and l otherwise; K is the
per-slot budget, S(n) = S(0) + n*K the total stake.

Leading-order laws implemented here:

    E[S_i(n)]   = l / (K - w + l) * K * n + o(n)
    Var[S_i(n)] = (K - w) * l * K * (w - l)^2
                  / ((K - w + l)^2 * (K - 2 (w - l))) * n + o(n)     if w - l < K/2
    Var[S_i(n)] = (K - w) * l * n * ln n + o(n ln n)                 if w - l = K/2

Fractional-stake predictions divide by S(n) (and its square).  In the
supercritical regime (w - l > K/2, e.g. proposer-takes-all) there is no
closed form here; the fraction's long-run law is instead the beta limit
with parameters (S_i(0)/K, (S(0)-S_i(0))/K).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateBeta, InvalidInput, check_budget, check_integer, check_node
from .schemes import Regime, RewardMatrix, classify_regime, regime_of
from .urn import stake_vector


def _check_wl(l: float, w: float, budget: float) -> None:
    check_budget(budget)
    if not (0.0 <= l <= w <= budget):
        raise InvalidInput(f"need 0 <= l <= w <= K, got l={l!r} w={w!r} K={budget!r}")


def predict_mean_stake(l: float, w: float, budget: float, n: int) -> float:
    """Leading term of the expected stake, l/(K-w+l) * K * n.

    For l = 0 the leading term vanishes identically (the supercritical
    proposer-takes-all mean does not live at this order; use the beta
    limit for its fraction instead).
    """
    _check_wl(l, w, budget)
    n = check_integer(n, "n", 0)
    if l == 0.0:
        return 0.0
    return limiting_mean_fraction(l, w, budget) * budget * n


def predict_var_stake(l: float, w: float, budget: float, n: int) -> tuple[float, Regime]:
    """Leading term of the stake variance, plus the regime it came from.

    Subcritical growth is linear in n; critical growth is n * ln n.
    Raises InvalidInput when w - l > K/2.
    """
    _check_wl(l, w, budget)
    n = check_integer(n, "n", 0)
    regime = regime_of(l, w, budget)
    if regime is Regime.SUPERCRITICAL:
        raise InvalidInput(
            "no closed-form variance for w - l > K/2; use beta_limit_params"
        )
    if n == 0:
        return 0.0, regime
    if regime is Regime.CRITICAL:
        return (budget - w) * l * n * math.log(n), regime
    diff = w - l
    coeff = (
        (budget - w) * l * budget * diff * diff
        / ((budget - w + l) ** 2 * (budget - 2.0 * diff))
    )
    return coeff * n, regime


def limiting_mean_fraction(l: float, w: float, budget: float) -> float:
    """Long-run mean fraction l/(K - w + l); the limiting variance is 0.

    For the shared-reward scheme this equals the node's initial fraction,
    since l = alpha*S_i(0) and K - w + l = alpha*S(0).
    """
    _check_wl(l, w, budget)
    denom = budget - w + l
    if denom <= 0.0:
        raise InvalidInput(f"K - w + l = {denom!r} <= 0")
    return l / denom


@dataclass(frozen=True)
class AnalyticPrediction:
    """Leading-order prediction for one node at one horizon."""

    node: int
    horizon_n: int
    mean_stake: float
    var_stake: float
    mean_fraction: float
    var_fraction: float
    regime: Regime
    leading_order_only: bool = True


def predict(matrix: RewardMatrix, node: int, initial_total: float, n: int) -> AnalyticPrediction:
    """Assemble the full prediction for one node of a balanced matrix at
    horizon n >= 0 from the initial total S(0) > 0."""
    node = check_node(node, matrix.num_nodes)
    n = check_integer(n, "n", 0)
    initial_total = check_budget(initial_total, "initial_total")
    regime = classify_regime(matrix, node)
    if regime is Regime.SUPERCRITICAL:
        raise InvalidInput(
            "no closed-form prediction in the supercritical regime"
        )
    w = float(matrix.balanced.w[node])
    l = float(matrix.balanced.l[node])
    budget = matrix.row_sum
    mean_stake = predict_mean_stake(l, w, budget, n)
    var_stake, _ = predict_var_stake(l, w, budget, n)
    total = budget * n + initial_total
    return AnalyticPrediction(
        node=node,
        horizon_n=n,
        mean_stake=mean_stake,
        var_stake=var_stake,
        mean_fraction=mean_stake / total,
        var_fraction=var_stake / (total * total),
        regime=regime,
    )


def exact_stake_moments(
    s_i0: float, initial_total: float, w: float, l: float, budget: float, n: int
) -> tuple[float, float]:
    """Exact mean and variance of one node's stake after n slots.

    Iterates the one-step conditional moments (select with probability
    S_i/S, gain w, else gain l):

        E[S']   = E[S] (1 + (w-l)/T) + l
        E[S'^2] = E[S^2] (1 + 2(w-l)/T) + E[S] (2l + (w^2-l^2)/T) + l^2

    with T = S(0) + step*K.  No asymptotic truncation: this is the
    independent check the leading-order predictors are tested against,
    valid in every regime.  O(n) time.  Raises InvalidInput unless
    0 <= l <= w <= K and 0 <= s_i0 <= S(0).
    """
    _check_wl(l, w, budget)
    n = check_integer(n, "n", 0)
    total = check_budget(initial_total, "initial_total")
    if not 0.0 <= s_i0 <= total:  # also rejects nan
        raise InvalidInput(
            f"need 0 <= s_i0 <= initial_total, got s_i0={s_i0!r} initial_total={total!r}"
        )
    m1 = float(s_i0)
    m2 = m1 * m1
    for _ in range(n):
        m1_next = m1 * (1.0 + (w - l) / total) + l
        m2_next = (
            m2 * (1.0 + 2.0 * (w - l) / total)
            + m1 * (2.0 * l + (w * w - l * l) / total)
            + l * l
        )
        m1, m2 = m1_next, m2_next
        total += budget
    return m1, m2 - m1 * m1


@dataclass(frozen=True)
class BetaParams:
    """Parameters of the long-run fraction law under proposer-takes-all."""

    a: float
    b: float

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def variance(self) -> float:
        s = self.a + self.b
        return self.a * self.b / (s * s * (s + 1.0))


def beta_limit_params(initial_stakes: Sequence[float], budget: float, node: int) -> BetaParams:
    """Beta(a, b) with a = S_i(0)/K and b = (S(0) - S_i(0))/K.

    The implied mean a/(a+b) is the node's initial fraction; the implied
    variance is the long-run spread of its fraction under the
    proposer-takes-all scheme.
    """
    stakes = stake_vector(initial_stakes)
    budget = check_budget(budget)
    node = check_node(node, stakes.shape[0])
    a = float(stakes[node]) / budget
    b = (float(stakes.sum()) - float(stakes[node])) / budget
    if a <= 0.0 or b <= 0.0:
        raise DegenerateBeta(f"beta parameters must be positive, got a={a!r} b={b!r}")
    return BetaParams(a=a, b=b)


@dataclass(frozen=True)
class SampleStats:
    count: int
    mean: float
    variance: float          # unbiased, divisor count - 1
    bin_edges: np.ndarray    # equal-width over [0, 1]
    bin_counts: np.ndarray


def empirical_stats(samples: Sequence[float], bins: int = 100) -> SampleStats:
    """Mean, unbiased variance, and an equal-width histogram over [0, 1]
    (last bin right-closed, so the counts always sum to the sample count)."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise InvalidInput("need at least 2 samples")
    bins = check_integer(bins, "bins", 1)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # also rejects nan
        raise InvalidInput("samples must lie in [0, 1]")
    counts, edges = np.histogram(arr, bins=bins, range=(0.0, 1.0))
    return SampleStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        variance=float(arr.var(ddof=1)),
        bin_edges=edges,
        bin_counts=counts,
    )


def ks_distance(samples: Sequence[float], beta: BetaParams) -> float:
    """Sup-norm distance between the empirical CDF and the Beta(a, b) CDF."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 100:
        raise InvalidInput("need at least 100 samples")
    from scipy import stats as sp_stats

    return float(sp_stats.kstest(arr, sp_stats.beta(beta.a, beta.b).cdf).statistic)
