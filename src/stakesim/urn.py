"""The stake urn: stake vectors, the seed-to-stream rule, the slot kernel.

One slot: a proposer is elected with probability equal to its fractional
stake, then row g of the reward matrix is added to all stakes.  The total
stake therefore grows by exactly the row sum K each slot.  One trajectory
is run_slots on a (1, m) stake array fed repetition_draws(seed, 0, 1, n),
which is repetition 0 of any run with that seed and horizon.

Output bits across numpy versions.  The draws are Generator.random on
PCG64, pinned to the stream's raw outputs by
tests/test_urn.py::TestStreamRule.  Every other numpy call whose bits reach
an output computes them so that no version can change them:
- draw_job's block copy into slot-major draws is a copy: it moves bits
  and rounds nothing.
- A threshold is one np.multiply of a draw by S(t), and the stake and
  prefix sums are np.add of two floats: IEEE 754 operations, each
  correctly rounded, so their bits do not depend on the loop, its SIMD
  width or the draws' layout.
- S(t) is np.add.accumulate over a 1-D array: a running sum, each element
  the previous one plus the next input, one correctly rounded add each.
  numpy sums pairwise only in reductions, never in accumulate; pinned by
  TestSlotSnapshots::test_totals_are_one_running_sum.
- _exact_pass' np.add.reduce sums equal their targets only when the
  exact sums do, in any summation order (see its docstring), and _settle's
  run only on exact passes, where every partial sum is exact and so the
  same in any order, pairwise or not.
- montecarlo's fractions are np.divide, one correctly rounded division
  each, and its exact moments are sums of integers below 2**53 (_exact_sums),
  the same in any order, BLAS or not.
- np.unique in cli.write_samples_csv groups the fractions' bit patterns so
  that each distinct value is formatted once; a value's text does not
  depend on the grouping, and the inverse of a 1-D input is 1-D in every
  version.
- The %.17g text is Python's float formatting, not numpy's: Python's own
  correctly rounded conversion, the same on every platform.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Generator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInput, check_integer

if TYPE_CHECKING:  # pragma: no cover
    from .schemes import RewardMatrix


def stake_vector(values: Sequence[float]) -> np.ndarray:
    """Validate and normalize a stake vector to a float64 array.

    A -0.0 stake becomes +0.0.  Raises InvalidInput for an empty,
    negative, non-finite or all-zero vector, and for one whose total
    overflows to inf.
    """
    stakes = np.array(values, dtype=np.float64) + 0.0  # -0.0 + 0.0 is +0.0
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
# r with base_seed XOR r, so seeds differing in their low bits shared streams,
# and version 2 re-rolled every repetition from 1 on
STREAM_VERSION = 2


def repetition_draws(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """The (count, n) uniform draws of repetitions [first, first + count).

    Repetition r reads values r*n .. (r+1)*n - 1 of the one stream seeded
    with `seed`, as a serial loop over repetitions would, so its draws do
    not depend on chunking, and depend on n as well as on the seed and r.
    Value k is (x >> 11) * 2**-53, x the k-th raw 64-bit output of
    PCG64(seed), which is how Generator.random reads the stream.

    The draws are returned slot-major: the (count, n) transpose of a
    C-contiguous (n, count) array, so that each slot's draws are contiguous
    (strides[0] == 8), as the slot kernel reads them.  draw_job makes them;
    a run draws its chunks through draw_job into buffers of its own
    (montecarlo._serial_chunks), and this array is for one-off reads.
    """
    return draw_job(seed, first, np.empty((n, count)).T)()


def draw_job(seed: int, first: int, out: np.ndarray) -> Callable[[], np.ndarray]:
    """A call with no arguments that writes repetition_draws(seed, first,
    count, n) into `out`, a (count, n) float64 array of any layout, and
    returns it.  This is the only place a seed becomes draws.

    Its generator, advanced once to value first * n, and a scratch block of
    repetitions are made here, on the calling thread, so that the call
    allocates nothing and may run on a helper thread (memory that a helper
    thread allocates stays in its own malloc arena).  The call fills the
    scratch with one block of repetitions at a time and copies each block
    into its rows of `out`; every value is read at the same stream position
    whatever the block size, so `out` depends on neither it nor its layout.
    """
    count, n = out.shape
    bitgen = np.random.PCG64(seed)
    bitgen.advance(first * n)  # one 64-bit output per double
    fill = np.random.Generator(bitgen).random
    scratch = np.empty((max(1, min(count, _DRAW_BLOCK // max(n, 1))), n))

    def job() -> np.ndarray:
        for lead in range(0, count, len(scratch)):
            rows = out[lead:lead + len(scratch)]
            block = scratch[:len(rows)]
            fill(out=block)
            rows[...] = block
        return out
    return job


# draw_job's block: the repetitions that fit in _DRAW_BLOCK draws (768 KiB),
# or one repetition when it holds more; a fixed size, not an option.  On a
# 2-core box (numpy 2.4.6), filled and copied into slot-major draws of 1,000
# slots, blocks of 96 to 128 repetitions took 4.1-4.6 ns per draw, of 80
# 5.0-5.5 ns and of 64 5.6-6.1 ns; at 10,000 slots, into a chunk of 838
# repetitions, blocks of 6 to 64 took 7.3-8.1 ns alike.  A chunk drawn in
# halves on two threads holds two blocks, 1.5 MiB at 1,000 slots: table1's
# peak RSS read about 0.1 MB (in process) and 0.44 MB (perfbench) above the
# unblocked repetition-major fill's, and with blocks of 112 repetitions
# (1.75 MiB) about 0.55 MB in process.
_DRAW_BLOCK = 3 << 15


# run_slots' block of slots: a fixed size that keeps the block's thresholds
# in cache, not an option; no result depends on it
_BLOCK_STEPS = 32


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

    This is slot_snapshots with no stops: one pass of the one kernel.
    """
    try:
        next(slot_snapshots(stakes, total, matrix, draws, (), proposers=proposers))
    except StopIteration as end:  # with no stops, the first next() runs every slot
        return end.value
    raise AssertionError("slot_snapshots stopped with no stops")  # pragma: no cover


def slot_snapshots(
    stakes: np.ndarray,
    total: float,
    matrix: "RewardMatrix | Sequence[RewardMatrix]",
    draws: np.ndarray,
    stops: Sequence[int],
    *,
    proposers: np.ndarray | None = None,
) -> Generator[tuple[int, float, np.ndarray], None, tuple[np.ndarray, float]]:
    """run_slots' kernel, pausing after the slots named by `stops`.

    `stops`, increasing steps in [0, n], are slot counts: at stop s the
    generator yields (s, total after s slots, columns), where `columns` is
    the kernel's node-major (m, urns) stake array, urn u's node j at
    columns[j, u], valid until the generator resumes and not to be written.
    `stakes` is written only when the last slot has run; the generator then
    returns run_slots' (counts, total).  The state at each stop, and the
    end state, equal those of run_slots calls over the column slices
    between the stops.

    The urns are held node-major, one contiguous column per node, groups
    laid end to end.  The analytic totals S(0) .. S(n) are made once per
    pass, S(0) = `total` and S(t + 1) = S(t) + row sum, one in-order
    accumulate: the float adds of one running total.  A stop at s yields
    S(s), and the pass returns S(n).  The slots run in blocks of
    _BLOCK_STEPS, whatever the stops: before the slot loop reads a block,
    slot t's row of a (block, count) buffer is made as its column of draws
    times S(t), so each threshold is the same one multiply whatever the
    block size or the layout of `draws` (slot-major draws, as
    repetition_draws returns them, make each column one contiguous read).
    Every group reads that one row of thresholds draw * total: the
    compares see a (G, count) view of the urns and broadcast the row over
    the groups.

    The cumulative stakes are a running sum over the columns in ascending
    node order, the same adds as np.cumsum whatever the memory layout, and
    as stakes are never negative they never decrease: the prefix masks
    C_j <= draw * total are nested, and the proposer, the first g with
    draw * total < C_g, is the number of masks set among C_0 .. C_{m-2}.
    The masks are summed, per slot, into a row of a (block, urns) array of
    picks of the smallest unsigned type that holds G * m - 1 (mask 0 is
    written there directly).  The float edge is checked only in blocks
    that start with some urn's node m-1 at zero stake (never at m == 1);
    where it fires, the urn's pick is overwritten with the last node with
    positive stake before anything reads it.  Where node m-1 holds stake,
    it keeps it, and every mask already counts a draw past C_{m-1} as node
    m-1's, which is where the edge rule sends it; so the bytes do not
    depend on the check.  A pick plus its group's offset is the index into
    the rewards, one table of G blocks of m columns.  The offsets share the
    picks' type, so that the index is one add in that type, written as
    intp; as no index exceeds G * m - 1, none wraps, and the bytes do not
    depend on the type.  Once per block, mask j's tally in a group is the
    number of its picks that are at least j + 1; the per-node counts are
    the differences of these tallies, integers that do not depend on when
    they are summed.

    A trailing node that every row pays +0.0 (bit for bit; a -0.0 entry
    does not count) and that holds stake in every urn keeps its stake bit
    for bit, as x + 0.0 == x for x > 0: its rewards are never gathered or
    added.  It still takes part in selection, through the prefix sums and,
    as it holds stake, never through the float-edge rule.  Such a node is
    the tail that montecarlo._kernel_inputs makes of the nodes a run does
    not keep (run_experiments' leading_nodes, as in table1 and compare),
    when it holds stake.  A paid node m-1 (m >= 2) that holds stake in
    every urn is skipped too when every add of the pass is exact
    (_exact_pass): the stakes, the rewards, the total and the row sum are
    non-negative multiples of one 2**g,
    total + n * row_sum < 2**(53 + g), every reward row sums to the row sum
    and every urn's stakes to the total.  Every stake and total of the pass
    is then a multiple of 2**g below 2**(53 + g), so every add is exact, an
    urn's stakes sum to its total after every slot, and node m-1's stake is
    that total less the other stakes, a difference that is exact too.  So
    the kernel writes node m-1's column as the total less the other
    columns' sum at each stop and after the last slot, bit for bit the
    column the adds make.  Between those, only the float-edge check would
    read it, and that check is off while node m-1 holds stake.
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
    stops = [check_integer(step, "stop") for step in stops]
    if any(a >= b for a, b in zip([-1, *stops], [*stops, n + 1])):
        raise InvalidInput(f"stops must increase within [0, {n}], got {stops}")
    # rewards[j][g * m + p]: node j's reward in group g when p proposes
    rewards = np.concatenate([mat.entries for mat in matrices]).T.copy()
    columns = stakes.T.copy()
    # the nodes after the first `paid` are unpaid and hold stake: never added
    paid = m
    while paid and not rewards[paid - 1].view(np.int64).any() and (columns[paid - 1] > 0).all():
        paid -= 1
    # a paid node m-1 that holds stake in every urn, on a pass whose every add
    # is exact, is never added either: its column is written from the total
    derived = paid == m > 1 and (columns[m - 1] > 0).all() and _exact_pass(
        columns, total, rewards, row_sum, n)
    if derived:
        paid = m - 1
    rewards, live = rewards[:paid], columns[:paid]
    gains = np.empty((paid, urns))
    rows = min(n, _BLOCK_STEPS)
    thresholds = np.empty((rows, count))
    # sums[t]: the total after t slots, one running sum of the row sum
    sums = np.full(n + 1, row_sum)
    sums[0] = total
    np.add.accumulate(sums, out=sums)
    # the compares see the urns as `lanes`, one row per group, so that each
    # reads one row of thresholds
    lanes = (groups, count) if groups > 1 else (urns,)
    grid = columns.reshape(m, *lanes)
    prefix = np.empty(lanes)
    below = np.empty(urns, dtype=bool)
    below_lanes = below.reshape(lanes)
    mask = below.view(np.uint8)  # so a mask adds into picks without a cast
    # picks[k]: slot k's proposers, the sum of its masks unless the float edge
    # moved them, in a type that also holds a proposer plus its group's offset
    picks = np.zeros((rows, urns), dtype=np.min_scalar_type(groups * m - 1))
    # where mask 0 goes: straight into picks, through its bytes where picks
    # are one byte wide, else cast on write; m == 1 has no mask, so scratch
    heads = np.empty((rows, *lanes), dtype=bool) if m == 1 else (
        picks.view(bool) if picks.itemsize == 1 else picks).reshape(rows, *lanes)
    flags = np.empty((rows, urns), dtype=bool) if m > 2 else None
    # the proposer plus its group's offset into rewards: one add in the picks'
    # type, written as intp; no sum passes G * m - 1, which that type holds
    index = np.empty(urns, dtype=np.intp)
    offsets = np.repeat((np.arange(groups) * m).astype(picks.dtype), count) if groups > 1 else None
    parts = [slice(g * count, (g + 1) * count) for g in range(groups)]
    # at_least[h, g]: slots of group h whose proposer is >= g
    at_least = np.zeros((groups, m), dtype=np.int64)
    at_least[:, 0] = count * n
    # the slot loop's invariants: the first prefix column, the columns the
    # running sum adds before masks 1 .. m-2 and before C_{m-1}, the calls
    first, later, last = grid[0], list(grid[1:m - 1]), grid[m - 1]
    less_equal, add, copyto, take = np.less_equal, np.add, np.copyto, rewards.take
    upcoming = iter([*stops, -1])  # -1 follows the last stop: no slot count matches it
    stop = next(upcoming)
    if stop == 0:
        yield 0, total, columns
        stop = next(upcoming)
    for start in range(0, n, _BLOCK_STEPS):
        width = min(_BLOCK_STEPS, n - start)
        # slot t's thresholds: its draws times S(t), one multiply per draw
        block = np.multiply(draws[:, start:start + width].T, sums[start:start + width, None],
                            out=thresholds[:width])
        # stakes never fall, so a node m-1 positive in every urn now stays so,
        # and the edge rule would give it the urns every mask already counted
        # as its own: skip C_{m-1} and the edge check for the block; at m == 1
        # the one node proposes every slot, and the check could move nothing
        edge = m > 1 and not columns[m - 1].all()
        for k in range(width):
            threshold = block[k]
            pick = picks[k]
            less_equal(first, threshold, heads[k])
            running = first
            for column in later:
                running = add(running, column, prefix)
                less_equal(running, threshold, below_lanes)
                add(pick, mask, pick)
            if edge and less_equal(add(running, last, prefix), threshold, below_lanes).any():
                # float edge: the running sum of stakes can land a hair below
                # the analytic total; the draw then belongs to the last node
                # with positive stake, not to node m-1 as the masks say
                fixed = np.flatnonzero(below)
                pick[fixed] = m - 1 - (columns[::-1, fixed] > 0).argmax(axis=0)
            if offsets is None:
                copyto(index, pick)
            else:
                add(pick, offsets, index)
            if proposers is not None:
                proposers[:, start + k] = pick
            # index is in [0, G * m), so "wrap" never wraps; it only skips the
            # bounds-checked copy "raise" makes of `out`
            take(index, 1, gains, "wrap")
            add(live, gains, live)
            if start + k + 1 == stop:
                if derived:
                    _settle(columns, sums.item(stop))
                yield stop, sums.item(stop), columns
                stop = next(upcoming)
        # the block's tallies: at_least[h, j] gains group h's picks >= j
        done = picks[:width]
        for j in range(1, m):
            hits = done if j == 1 else np.greater_equal(done, j, out=flags[:width])
            for g, part in enumerate(parts):
                at_least[g, j] += np.count_nonzero(hits[:, part])
    if derived:
        _settle(columns, sums.item(n))
    stakes[...] = columns.T
    at_least[:, :-1] -= at_least[:, 1:]  # now the per-node counts
    return (at_least if grouped else at_least[0]), sums.item(n)


def _exact_pass(
    columns: np.ndarray, total: float, rewards: np.ndarray, row_sum: float, n: int
) -> bool:
    """Whether an n-slot pass on node-major `columns` meets slot_snapshots'
    exact rule.  g is set by the final total's top bit, and the bound is
    checked in integers.  The sums are float sums: of non-negative multiples
    of 2**g they are exact below 2**(53 + g) and stay at or above it once
    the exact sum is, so one equals a target below the bound only when the
    exact sum does."""
    final = total + n * row_sum
    if not (n and total >= 0 and row_sum >= 0 and final < math.inf):
        return False
    grid = math.ldexp(1.0, max(math.frexp(final)[1] - 53, -1074))
    if math.fmod(total, grid) or math.fmod(row_sum, grid):
        return False
    if int(total / grid) + n * int(row_sum / grid) >= 2**53:
        return False
    for values, target in ((rewards, row_sum), (columns, total)):
        with np.errstate(over="ignore"):  # a sum past the largest double is not the target
            sums = np.add.reduce(values, axis=0)
        # checked in this order, fmod sees only finite values
        if not ((values >= 0).all() and (sums == target).all() and not np.fmod(values, grid).any()):
            return False
    return True


def _settle(columns: np.ndarray, at: float) -> None:
    """Write node m-1's column as the total `at` less the other columns' sum,
    which on an exact pass is its stake bit for bit."""
    last = columns[-1]
    # at m == 2 the other columns' sum is column 0 itself: one subtract
    rest = columns[0] if len(columns) == 2 else np.add.reduce(columns[:-1], axis=0, out=last)
    np.subtract(at, rest, out=last)


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
