"""The stake urn: stake vectors, the seed-to-stream rule, the slot kernel.

One slot: a proposer is elected with probability equal to its fractional
stake, then row g of the reward matrix is added to all stakes.  The total
stake therefore grows by exactly the row sum K each slot.  One trajectory
is run_slots on a (1, m) stake array fed repetition_draws(seed, 0, 1, n),
which is repetition 0 of any run with that seed and horizon.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InvalidInput

if TYPE_CHECKING:  # pragma: no cover
    from .schemes import RewardMatrix


def stake_vector(values: Sequence[float]) -> np.ndarray:
    """Validate and normalize a stake vector to a float64 array.

    Raises InvalidInput for an empty, negative, non-finite or all-zero
    vector, and for one whose total overflows to inf.
    """
    stakes = np.array(values, dtype=np.float64)
    if stakes.ndim != 1 or stakes.size == 0:
        raise InvalidInput("need a non-empty 1-D stake vector")
    if not np.all(np.isfinite(stakes)) or np.any(stakes < 0):
        raise InvalidInput("stakes must be finite and >= 0")
    with np.errstate(over="ignore"):  # an inf total is rejected below
        total = float(stakes.sum())
    if total <= 0.0:
        raise InvalidInput("at least one stake must be positive")
    if total == np.inf:
        raise InvalidInput("stakes must sum to a finite total")
    stakes.setflags(write=False)
    return stakes


def recorded_steps(n: int, stride: int) -> list[int]:
    """Steps at which state is recorded.

    stride == 0 records only the final step; stride >= 1 records step 0,
    every multiple of the stride, and always the final step.
    """
    if n < 0 or stride < 0:
        raise InvalidInput("n and stride must be >= 0")
    if stride == 0:
        return [n]
    steps = list(range(0, n + 1, stride))
    if steps[-1] != n:
        steps.append(n)
    return steps


# the seed-to-stream rule's version in run.json; version 1 seeded repetition
# r with base_seed XOR r, so seeds differing in their low bits shared streams
STREAM_VERSION = 2


def repetition_draws(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """The (count, n) uniform draws of repetitions [first, first + count).

    Repetition r reads values r*n .. (r+1)*n - 1 of the one stream seeded
    with `seed`, as a serial loop over repetitions would, so its draws do
    not depend on chunking.  This is the only place a seed becomes draws.
    """
    bitgen = np.random.PCG64(seed)
    bitgen.advance(first * n)  # one 64-bit output per double
    return np.random.Generator(bitgen).random((count, n))


# run_slots' block of slots and transpose tile of urns: fixed sizes that
# keep a tile in cache; no result depends on them
_BLOCK_STEPS = 64
_BLOCK_URNS = 256


def run_slots(
    stakes: np.ndarray,
    total: float,
    matrix: "RewardMatrix",
    draws: np.ndarray,
    *,
    proposers: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Run one slot per column of `draws` on `count` urns at once.

    `stakes` is a (count, m) array, advanced in place; `total` is the
    analytic total stake shared by all urns; `draws` is (count, n) uniforms
    in [0, 1), row c feeding urn c.  In each slot urn c's proposer is the
    node g whose half-open interval [C_{g-1}, C_g) of the cumulative stakes,
    built in ascending node order, holds draws[c, k] * total, so zero-stake
    nodes (empty intervals) are never selected.  Row g of the reward matrix
    is then added to the urn's stakes and the total grows by the row sum.

    Draws are consumed in column order, so calls over consecutive column
    slices of `draws` end in the same state as one call over all of them.
    `proposers`, a (count, n) integer array, receives every proposer.
    Returns the per-node proposer counts summed over urns and slots, and
    the final total.

    The urns are held node-major, one contiguous (count,) column per node.
    The slots run in blocks of _BLOCK_STEPS: a block's draws are copied
    step-major into one (block, count) buffer, a tile of _BLOCK_URNS urns at
    a time, and row k is scaled by slot k's analytic total, so each slot
    reads one contiguous row of thresholds draw * total.  The cumulative
    stakes are a running sum over the columns in ascending node order, the
    same adds as np.cumsum, and as stakes are never negative they never
    decrease: the prefix masks C_j <= draw * total are nested, and the
    proposer, the first g with draw * total < C_g, is the number of masks
    set among C_0 .. C_{m-2}.  Mask j's count is the number of slots whose
    proposer is at least j + 1; the per-node counts are the differences of
    these tallies.
    """
    count, n = draws.shape
    m = matrix.num_nodes
    rewards = matrix.entries.T.copy()  # rewards[j][g]: node j's reward when g proposes
    columns = stakes.T.copy()
    thresholds = np.empty((min(n, _BLOCK_STEPS), count))
    totals = np.empty((_BLOCK_STEPS, 1))
    prefix = np.empty(count)
    below = np.empty(count, dtype=bool)
    chosen = np.zeros(count, dtype=np.intp)  # stays 0 when m == 1
    gains = np.empty((m, count))
    at_least = np.zeros(m, dtype=np.int64)  # at_least[g]: slots whose proposer is >= g
    at_least[0] = count * n
    for start in range(0, n, _BLOCK_STEPS):
        width = min(_BLOCK_STEPS, n - start)
        for k in range(width):
            totals[k] = total
            total += matrix.row_sum
        block = thresholds[:width]
        for first in range(0, count, _BLOCK_URNS):
            tile = slice(first, first + _BLOCK_URNS)
            np.copyto(block[:, tile], draws[tile, start:start + width].T)
        block *= totals[:width]
        for k in range(width):
            threshold = block[k]
            running = columns[0]
            for j in range(1, m):
                np.less_equal(running, threshold, out=below)
                at_least[j] += np.count_nonzero(below)
                if j == 1:
                    np.copyto(chosen, below)
                else:
                    chosen += below
                running = np.add(running, columns[j], out=prefix)
            np.less_equal(running, threshold, out=below)
            if below.any():
                # float edge: the running sum of stakes can land a hair below
                # the analytic total; the draw then belongs to the last node
                # with positive stake, and every mask counted it as node m-1,
                # so an urn that moves to node p leaves the tallies p+1 .. m-1
                rev = columns[::-1, below] > 0
                last = m - 1 - rev.argmax(axis=0)
                chosen[below] = last
                at_least[1:] -= np.cumsum(np.bincount(last, minlength=m))[:-1]
            if proposers is not None:
                proposers[:, start + k] = chosen
            # chosen is in [0, m), so "wrap" never wraps; it only skips the
            # bounds-checked copy "raise" makes of `out`
            np.take(rewards, chosen, axis=1, out=gains, mode="wrap")
            columns += gains
    stakes[...] = columns.T
    return at_least - np.append(at_least[1:], 0), total


# the two names perfbench/worker.py's urn.simulate_trajectory.ns_per_slot probe calls
new_state = stake_vector


def simulate_trajectory(
    stakes: np.ndarray, matrix: "RewardMatrix", n: int, seed: int
) -> tuple[np.ndarray, float]:
    """Run n slots of one urn on repetition 0's draws of `seed`; return its
    final stakes and total."""
    if n < 0:
        raise InvalidInput("n must be >= 0")
    urn = np.array(stakes, dtype=np.float64, ndmin=2)
    m = matrix.num_nodes
    if urn.shape[1] != m:
        raise InvalidInput(f"matrix is {m}x{m}, state has {urn.shape[1]} nodes")
    _, total = run_slots(urn, float(urn.sum()), matrix, repetition_draws(seed, 0, 1, n))
    return urn[0], total
