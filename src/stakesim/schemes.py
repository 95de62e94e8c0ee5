"""Reward-matrix constructors, validation, and regime classification.

A reward matrix is m x m with nonnegative entries and every row summing to
the per-slot budget K.  "Balanced" matrices carry the (w_i, l_i) structure:
column i holds l_i off the diagonal and w_i on it, i.e. node i collects l_i
whenever someone else proposes and w_i when it proposes itself.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInput, check_budget, check_integer, check_node
from .urn import stake_vector

# row sums (and the critical-regime equality) are checked to 1e-9 * K:
# published matrices carry rounded decimals, so exact comparison is wrong
ROW_SUM_RTOL = 1e-9


class Regime(enum.Enum):
    """Growth regime of a node's stake variance, set by w_i - l_i vs K/2."""

    SUBCRITICAL = "subcritical"      # w - l < K/2: variance linear in n
    CRITICAL = "critical"            # w - l = K/2: variance ~ n log n
    SUPERCRITICAL = "supercritical"  # w - l > K/2: no closed form here


@dataclass(frozen=True)
class BalancedParams:
    w: np.ndarray  # diagonal payout per node
    l: np.ndarray  # column-constant off-diagonal payout per node


@dataclass(frozen=True)
class RewardMatrix:
    entries: np.ndarray
    row_sum: float
    balanced: BalancedParams | None = None

    @property
    def num_nodes(self) -> int:
        return int(self.entries.shape[0])


def regime_of(l: float, w: float, budget: float) -> Regime:
    """The regime split itself: w - l against K/2, equal within
    ROW_SUM_RTOL * K."""
    diff = w - l
    half = 0.5 * budget
    if abs(diff - half) <= ROW_SUM_RTOL * budget:
        return Regime.CRITICAL
    return Regime.SUBCRITICAL if diff < half else Regime.SUPERCRITICAL


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def constant_matrix(m: int, budget: float) -> RewardMatrix:
    """Proposer-takes-all baseline: K on the diagonal, zero elsewhere."""
    m = check_integer(m, "node count", 1)
    budget = check_budget(budget)
    return _stock_matrix(np.zeros(m), np.full(m, budget), budget)


def frd_matrix(initial_stakes: Sequence[float], budget: float) -> RewardMatrix:
    """Shared-reward scheme: every node collects a per-slot share
    proportional to its initial stake, and the proposer collects an extra
    half budget.

    With alpha = K / (2 S(0)) the payouts are l_i = alpha * S_i(0) and
    w_i = l_i + K/2, which forces every row to sum to K and puts every node
    exactly on the critical line w_i - l_i = K/2.
    """
    stakes = stake_vector(initial_stakes)
    budget = check_budget(budget)
    total = float(stakes.sum())
    # fractions first: alpha*S_i(0) = v_i(0)*K/2 without overflow for
    # extreme stake magnitudes
    l = (stakes / total) * (0.5 * budget)
    return _stock_matrix(l, l + 0.5 * budget, budget)


def _stock_matrix(l: np.ndarray, w: np.ndarray, budget: float) -> RewardMatrix:
    """The balanced matrix whose column i holds l[i] off the diagonal and
    w[i] on it, with row sum `budget`: entries, w and l frozen."""
    m = l.shape[0]
    entries = np.tile(l, (m, 1))
    entries[np.diag_indices(m)] = w
    params = BalancedParams(w=_freeze(w), l=_freeze(l))
    return RewardMatrix(entries=_freeze(entries), row_sum=budget, balanced=params)


def _detect_balanced(entries: np.ndarray, budget: float) -> BalancedParams | None:
    """Fill (w, l) when every column is constant off the diagonal.

    With m = 2 each column has a single off-diagonal entry, so every
    equal-row-sum matrix fits the template; genuine rejections need m >= 3.
    """
    m = entries.shape[0]
    if m == 1:
        # no off-diagonal evidence; treat as proposer-takes-all (l = 0)
        return BalancedParams(w=_freeze(entries.diagonal().copy()), l=_freeze(np.zeros(1)))
    tol = ROW_SUM_RTOL * abs(budget)
    off_mask = ~np.eye(m, dtype=bool)
    l = np.empty(m)
    for j in range(m):
        col = entries[off_mask[:, j], j]
        if col.max() - col.min() > tol:
            return None
        l[j] = col.mean()
    return BalancedParams(w=_freeze(entries.diagonal().copy()), l=_freeze(l))


def custom_matrix(entries: Sequence[Sequence[float]]) -> RewardMatrix:
    """Validate a user-supplied matrix and detect the balanced structure."""
    arr = np.array(entries, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InvalidInput(f"expected a non-empty square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        i, j = map(int, np.argwhere(~np.isfinite(arr))[0])
        raise InvalidInput(f"non-finite entry at ({i}, {j})")
    if np.any(arr < 0):
        i, j = map(int, np.argwhere(arr < 0)[0])
        raise InvalidInput(f"negative entry at ({i}, {j})")
    with np.errstate(over="ignore"):  # check_budget rejects an inf row sum
        row_sums = arr.sum(axis=1)
    budget = check_budget(float(row_sums[0]), "row sum")
    for g, s in enumerate(row_sums.tolist()):
        if abs(s - budget) > ROW_SUM_RTOL * abs(budget):
            raise InvalidInput(f"row {g} sums to {s!r}, expected the shared budget")
    return RewardMatrix(
        entries=_freeze(arr), row_sum=budget, balanced=_detect_balanced(arr, budget)
    )


def classify_regime(matrix: RewardMatrix, node: int) -> Regime:
    """Place one node on the subcritical / critical / supercritical split.

    Only defined for balanced matrices; the closed-form theory does not
    cover arbitrary reward structures.
    """
    node = check_node(node, matrix.num_nodes)
    if matrix.balanced is None:
        raise InvalidInput("regime classification needs a balanced matrix")
    return regime_of(
        float(matrix.balanced.l[node]), float(matrix.balanced.w[node]), matrix.row_sum
    )
