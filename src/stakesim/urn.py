"""The stake urn: stake vectors, the seed-to-stream rule, the slot kernel.

One slot: a proposer is elected with probability equal to its fractional
stake, then row g of the reward matrix is added to all stakes.  The total
stake therefore grows by exactly the row sum K each slot.  One trajectory
is run_slots on a (1, m) stake array fed repetition_draws(seed, 0, 1, n),
which is repetition 0 of any run with that seed and horizon.
"""
from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInput, check_integer

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
    n = check_integer(n, "n", 0)
    stride = check_integer(stride, "stride", 0)
    if stride == 0:
        return [n]
    steps = list(range(0, n + 1, stride))
    if steps[-1] != n:
        steps.append(n)
    return steps


# the seed-to-stream rule's version in run.json; version 1 seeded repetition
# r with base_seed XOR r, so seeds differing in their low bits shared streams
STREAM_VERSION = 2


def repetition_draws(
    seed: int, first: int, count: int, n: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """The (count, n) uniform draws of repetitions [first, first + count).

    Repetition r reads values r*n .. (r+1)*n - 1 of the one stream seeded
    with `seed`, as a serial loop over repetitions would, so its draws do
    not depend on chunking.  This is the only place a seed becomes draws.
    `out`, a C-contiguous (count, n) float64 array, receives the draws in
    place of a new array; the values are the same.
    """
    bitgen = np.random.PCG64(seed)
    bitgen.advance(first * n)  # one 64-bit output per double
    return np.random.Generator(bitgen).random((count, n), out=out)


# run_slots' block of slots and transpose tile of urns: fixed sizes that
# keep a tile in cache; no result depends on them
_BLOCK_STEPS = 64
_BLOCK_URNS = 256


def run_slots(
    stakes: np.ndarray,
    total: float,
    matrix: "RewardMatrix | Sequence[RewardMatrix]",
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
    nodes (empty intervals) are never selected.  A draw past the float sum
    C_{m-1}, which can land a hair below the analytic total, goes to the
    last node with positive stake.  Row g of the reward matrix is then
    added to the urn's stakes and the total grows by the row sum.

    `matrix` may also be a sequence of G matrices with one row sum: then
    `stakes` is (G * count, m), group-major, and urn g * count + c runs
    under matrix g on draws row c, so every group reads the same draws and
    ends as one call per matrix would.

    Draws are consumed in column order, so calls over consecutive column
    slices of `draws` end in the same state as one call over all of them.
    `proposers`, an integer array shaped like `stakes`' rows by n, receives
    every proposer.  Returns the per-node proposer counts summed over urns
    and slots, (G, m) for a sequence of matrices, and the final total.

    The urns are held node-major, one contiguous column per node, groups
    laid end to end.  The slots run in blocks of _BLOCK_STEPS: a block's
    draws are copied step-major into one (block, count) buffer, a tile of
    _BLOCK_URNS urns at a time, row k is scaled by slot k's analytic total,
    and the result is copied into each further group's slice, so each slot
    reads one contiguous row of thresholds draw * total.  The cumulative
    stakes are a running sum over the columns in ascending node order, the
    same adds as np.cumsum, and as stakes are never negative they never
    decrease: the prefix masks C_j <= draw * total are nested, and the
    proposer, the first g with draw * total < C_g, is the number of masks
    set among C_0 .. C_{m-2}.  Mask j's count in a group is the number of
    its slots whose proposer is at least j + 1; the per-node counts are the
    differences of these tallies.  The masks are summed in the smallest
    unsigned type that holds m - 1 and copied to an intp index once per
    slot (at m == 2 the one mask is copied in directly); the rewards are
    one table of G blocks of m columns, indexed by the proposer plus its
    group's offset.  The float edge is checked only in blocks that start
    with some urn's node m-1 at zero stake.  Where node m-1 holds stake,
    it keeps it, and every mask already counts a draw past C_{m-1} as node
    m-1's, which is where the edge rule sends it; so the bytes do not
    depend on the check.
    """
    grouped = isinstance(matrix, Sequence)
    matrices = list(matrix) if grouped else [matrix]
    groups = len(matrices)
    row_sum = matrices[0].row_sum
    if any(mat.row_sum != row_sum for mat in matrices):
        raise InvalidInput("the reward matrices must share one row sum")
    count, n = draws.shape
    urns, m = stakes.shape
    if urns != groups * count:
        raise InvalidInput(f"{urns} urns for {groups} groups of {count} draws rows")
    # rewards[j][g * m + p]: node j's reward in group g when p proposes
    rewards = np.concatenate([mat.entries for mat in matrices]).T.copy()
    columns = stakes.T.copy()
    thresholds = np.empty((min(n, _BLOCK_STEPS), urns))
    totals = np.empty((_BLOCK_STEPS, 1))
    prefix = np.empty(urns)
    below = np.empty(urns, dtype=bool)
    mask = below.view(np.uint8)  # so a mask adds into chosen without a cast
    # the proposer, then plus its group's offset into rewards
    index = np.empty(urns, dtype=np.intp)
    # the sum of the masks, copied to index each slot; at m == 2 the one mask
    # goes straight into index, and at m == 1 chosen stays 0
    chosen = index if m == 2 else np.zeros(urns, dtype=np.min_scalar_type(m - 1))
    offsets = np.repeat(np.arange(groups, dtype=np.intp) * m, count) if groups > 1 else None
    parts = [slice(g * count, (g + 1) * count) for g in range(groups)]
    gains = np.empty((m, urns))
    # at_least[h, g]: slots of group h whose proposer is >= g
    at_least = np.zeros((groups, m), dtype=np.int64)
    at_least[:, 0] = count * n
    tallies = [(at_least[g], below[part]) for g, part in enumerate(parts)]
    for start in range(0, n, _BLOCK_STEPS):
        width = min(_BLOCK_STEPS, n - start)
        for k in range(width):
            totals[k] = total
            total += row_sum
        block = thresholds[:width]
        head = block[:, parts[0]]
        for first in range(0, count, _BLOCK_URNS):
            tile = slice(first, first + _BLOCK_URNS)
            np.copyto(head[:, tile], draws[tile, start:start + width].T)
        head *= totals[:width]
        for part in parts[1:]:
            np.copyto(block[:, part], head)
        # stakes never fall, so a node m-1 positive in every urn now stays so,
        # and the edge rule would give it the urns every mask already counted
        # as its own: skip C_{m-1} and the edge check for the block
        edge = not columns[m - 1].all()
        for k in range(width):
            threshold = block[k]
            running = columns[0]
            for j in range(1, m):
                np.less_equal(running, threshold, out=below)
                for tally, part in tallies:
                    tally[j] += np.count_nonzero(part)
                if j == 1:
                    np.copyto(chosen, below)
                else:
                    np.add(chosen, mask, out=chosen)
                if j < m - 1 or edge:
                    running = np.add(running, columns[j], out=prefix)
            if chosen is not index:
                np.copyto(index, chosen)
            if edge and np.less_equal(running, threshold, out=below).any():
                # float edge: the running sum of stakes can land a hair below
                # the analytic total; the draw then belongs to the last node
                # with positive stake, and every mask counted it as node m-1,
                # so an urn that moves to node p leaves the tallies p+1 .. m-1
                fixed = np.flatnonzero(below)
                last = m - 1 - (columns[::-1, fixed] > 0).argmax(axis=0)
                index[fixed] = last
                moved = np.bincount(fixed // count * m + last, minlength=groups * m)
                at_least[:, 1:] -= np.cumsum(moved.reshape(groups, m), axis=1)[:, :-1]
            if proposers is not None:
                proposers[:, start + k] = index
            if groups > 1:
                index += offsets
            # index is in [0, G * m), so "wrap" never wraps; it only skips the
            # bounds-checked copy "raise" makes of `out`
            rewards.take(index, axis=1, out=gains, mode="wrap")
            columns += gains
    stakes[...] = columns.T
    at_least[:, :-1] -= at_least[:, 1:]  # now the per-node counts
    return (at_least if grouped else at_least[0]), total


# the two names perfbench/worker.py's urn.simulate_trajectory.ns_per_slot probe calls
new_state = stake_vector


def simulate_trajectory(
    stakes: np.ndarray, matrix: "RewardMatrix", n: int, seed: int
) -> tuple[np.ndarray, float]:
    """Run n slots of one urn on repetition 0's draws of `seed`; return its
    final stakes and total."""
    n = check_integer(n, "n", 0)
    urn = np.array(stakes, dtype=np.float64, ndmin=2)
    m = matrix.num_nodes
    if urn.shape[1] != m:
        raise InvalidInput(f"matrix is {m}x{m}, state has {urn.shape[1]} nodes")
    _, total = run_slots(urn, float(urn.sum()), matrix, repetition_draws(seed, 0, 1, n))
    return urn[0], total
