"""Deterministic, repetition-parallel experiment runner.

Reproducibility contract: with n = steps_n, repetition r reads draws
r*n .. (r+1)*n - 1 of the one random stream seeded with base_seed
(urn.repetition_draws), one per slot, and all cross-repetition aggregates
are either per-repetition rows (final fractions), integer counts, or exact
integer moment sums.  Nothing depends on chunk boundaries, worker count, or
merge order, so a run is reproducible bit for bit and partial runs over
repetition ranges concatenate into exactly the single-shot result.  Configs
that differ only in their reward scheme read the same draws, so
run_experiments runs them as one batch over one draw of the stream.
"""
from __future__ import annotations

import os
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property, partial

import numpy as np

from .errors import InvalidInput, StakeSimError, check_budget, check_integer, check_node
from .schemes import ROW_SUM_RTOL, RewardMatrix, constant_matrix, custom_matrix, frd_matrix
from .urn import draw_job, recorded_steps, slot_snapshots, stake_vector

SCHEMES = ("constant", "frd", "custom")

# per-chunk limits: _DRAW_BUDGET float64 draws (at least one row) and
# _MAX_CHUNK repetitions, recording or not (see _chunk_bounds); and at most
# _BATCH_VALUES stop values per _exact_sums call, or one stop's when that is
# more (see _chunk_task).  Results do not depend on any of them.
_DRAW_BUDGET = 1 << 23
_MAX_CHUNK = 4096
_BATCH_VALUES = 40_000

# cap on repetitions x nodes in one result's final_fractions, and on the
# steps_n draws of one repetition's row
_MAX_RESULT_ELEMENTS = 100_000_000


@dataclass(frozen=True)
class RecordPolicy:
    """What to record during a run.

    stride 0 keeps only the final state; stride >= 1 also records step 0,
    every multiple of the stride, and the final step.  track_nodes None
    means all nodes; an empty tuple is rejected.
    """

    stride: int = 0
    track_nodes: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "stride", check_integer(self.stride, "stride", 0))
        if self.track_nodes is not None:
            if not (isinstance(self.track_nodes, Sequence) or np.ndim(self.track_nodes) == 1):
                raise InvalidInput("track_nodes must be a sequence of node indices")
            nodes = tuple(check_integer(i, "track_nodes entry") for i in self.track_nodes)
            if not nodes:
                raise InvalidInput("track_nodes must name at least one node")
            if len(set(nodes)) != len(nodes):
                raise InvalidInput("track_nodes must not repeat")
            object.__setattr__(self, "track_nodes", nodes)


@dataclass(frozen=True)
class ExperimentConfig:
    initial_stakes: tuple[float, ...]
    scheme: str
    reward_budget_K: float
    steps_n: int
    repetitions: int
    base_seed: int
    record: RecordPolicy = field(default_factory=RecordPolicy)
    custom_entries: tuple[tuple[float, ...], ...] | None = None
    # S(0), derived by __post_init__: numpy's sum of the float64 stakes,
    # which every reader of the config uses
    initial_total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stakes = stake_vector(self.initial_stakes)
        object.__setattr__(self, "initial_stakes", tuple(float(s) for s in stakes))
        object.__setattr__(self, "initial_total", float(np.sum(stakes)))
        if self.scheme not in SCHEMES:
            raise InvalidInput(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if (self.custom_entries is None) != (self.scheme != "custom"):
            raise InvalidInput("custom_entries must be given exactly when scheme is 'custom'")
        if self.custom_entries is not None:
            object.__setattr__(
                self,
                "custom_entries",
                tuple(tuple(float(x) for x in row) for row in self.custom_entries),
            )
        object.__setattr__(
            self, "reward_budget_K", check_budget(self.reward_budget_K, "reward_budget_K")
        )
        for name, minimum in (("steps_n", 0), ("repetitions", 1), ("base_seed", None)):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, minimum))
        try:
            final_total = self.initial_total + self.steps_n * self.reward_budget_K
        except OverflowError:  # steps_n too large for a float
            final_total = np.inf
        if not np.isfinite(final_total):
            raise InvalidInput("total stake after steps_n slots must be finite")
        if not 0 <= self.base_seed < 2**64:
            raise InvalidInput("base_seed must be an unsigned 64-bit integer")
        for i in self.record.track_nodes or ():
            check_node(i, self.num_nodes, "track_nodes entry")
        # a custom matrix's size and row-sum rules apply here, not at first use;
        # frd and constant matrices are built on first use, as compare and
        # table1 never read the matrix of the config they were given
        if self.scheme == "custom":
            self.reward_matrix()

    @property
    def num_nodes(self) -> int:
        return len(self.initial_stakes)

    def tracked_nodes(self) -> tuple[int, ...]:
        if self.record.track_nodes is not None:
            return self.record.track_nodes
        return tuple(range(self.num_nodes))

    def __getstate__(self):
        # a pool ships the configs to each worker once and back with every
        # result: leave out the O(m^2) matrix, which an unpickled config
        # builds on first use
        return {k: v for k, v in self.__dict__.items() if k != "_matrix"}

    def reward_matrix(self) -> RewardMatrix:
        return self._matrix

    @cached_property
    def _matrix(self) -> RewardMatrix:
        if self.scheme == "constant":
            return constant_matrix(self.num_nodes, self.reward_budget_K)
        if self.scheme == "frd":
            return frd_matrix(self.initial_stakes, self.reward_budget_K)
        matrix = custom_matrix(self.custom_entries)
        if matrix.num_nodes != self.num_nodes:
            raise InvalidInput(
                f"custom matrix is {matrix.num_nodes}x{matrix.num_nodes}, "
                f"config has {self.num_nodes} nodes"
            )
        if abs(matrix.row_sum - self.reward_budget_K) > ROW_SUM_RTOL * self.reward_budget_K:
            raise InvalidInput(
                f"custom matrix rows sum to {matrix.row_sum!r}, "
                f"reward_budget_K is {self.reward_budget_K!r}"
            )
        return matrix


# --- exact streaming moments -------------------------------------------------
#
# Every finite float64 is v = f * 2**e (np.frexp) with 2**53 * f an integer,
# and v * 2**1074 and v*v * 2**2148 are integers.  _exact_sums works on one
# exponent window of a row at a time.  The window's top exponent a is the
# top exponent of the row's values not yet summed, and it holds the
# values with exponent a - _WINDOW .. a.  For those, x = v * 2**(53 +
# _WINDOW - a) is an exact float integer with 2**52 <= |x| < 2**70, and
# every value below the window scales to |x| < 2**52.  Rounding x at 2**54,
# 2**36 and 2**18 splits it exactly into four signed limbs of magnitude at
# most 2**17 (the top one 2**16).  So, over at most 2**16 rows, each limb
# sum is at most 2**33, each entry of the limbs' 4x4 Gram matrix at most
# 2**50, and each sum of four entries by limb degree at most 2**52: every
# product and partial sum is an integer below 2**53, exact in any summation
# order.  The limb sums give sum(x), the Gram matrix sum(x*x), and both
# fold into Python ints shifted by a - 53 - _WINDOW + 1074 (twice that for
# the squares).  A negative shift, for subnormal windows, divides exactly:
# each term is an integer multiple of v * 2**1074.
# The values below a window go on to the next one, compressed to that
# row's remaining values, so a row whose values span many exponents
# costs one pass per window present.

_SCALE_BITS = 1074  # every finite float64 is an integer multiple of 2**-1074
_SCALE = 1 << _SCALE_BITS
_SQ_SCALE = 1 << (2 * _SCALE_BITS)
_WINDOW = 17  # a window holds exponents a - _WINDOW .. a, so |x| < 2**70
_LIMB_BITS = 18  # four signed limbs hold |x| < 2**70
_EXACT_ROWS = 1 << 16  # rows per block, so no Gram entry exceeds 2**50
# _DEGREE[d, p]: how often x*x holds the p-th Gram entry i <= j (j fastest)
# at limb degree d: for d = i + j, once when i == j and twice otherwise
_DEGREE = np.array([[(i + j == d) * (1 if i == j else 2) for i in range(4) for j in range(i, 4)]
                    for d in range(7)], dtype=float)


def _window_sums(cols: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray | None]:
    """Exact sums over each row's top exponent window of a finite (k, rows)
    float64 array, rows <= _EXACT_ROWS: one (sum(v) * 2**1074, sum(v*v) *
    2**2148) pair per row, and the mask of nonzero values below the window,
    None when no value, zero or not, falls below it.

    The limbs are split in place, limb-major, so that each step runs over
    one contiguous (k, rows) plane: limb 0's plane holds x's remainder in
    units of the next limb down, x / 2**54 at first, and each split takes
    the rounded remainder as a limb, subtracts it and scales the rest by
    2**18.  Every step is exact: the window's values scale to at least
    2**-2 in magnitude, every remainder is a multiple of 2**-54, far above
    the subnormals, and a value less its nearest integer is exact.

    The Gram matrix is symmetric, so only its ten entries i <= j are made,
    one BLAS dot product per row and limb pair, in four batched matrix
    products.  On 16 rows of 2,500 values they took about 0.5x the time of
    one 4x4 product per row, and 0.6x that of 8x8 products stacking two
    rows each (numpy 2.4 with its bundled OpenBLAS, 2-core box)."""
    k, rows = cols.shape
    magnitudes = np.abs(cols)
    top = np.frexp(magnitudes.max(axis=1))[1]
    shift = 53 + _WINDOW - 3 * _LIMB_BITS - top  # scales the window to [2**-2, 2**16)
    limbs = np.empty((4, k, rows))
    rest = limbs[0]
    np.ldexp(cols, shift[:, None], out=rest)
    below = None
    # scaling is monotone, so a row's smallest magnitude decides whether any
    # of its values falls below the window
    if (np.ldexp(magnitudes.min(axis=1), shift) < 2.0**-2).any():
        below = np.abs(rest) < 2.0**-2
        rest[below] = 0.0
        below &= cols != 0
    for i in (3, 2, 1):
        np.rint(rest, out=limbs[i])
        rest -= limbs[i]
        rest *= 2.0**_LIMB_BITS
    # each row's products of limb i with limbs i .. 3, one dot product per
    # row and limb pair: (4 - i, k, 1, 1) per i, so ten per row in all
    products = np.concatenate([np.matmul(limbs[i][:, None, :], limbs[i:, :, :, None])[..., 0, 0]
                               for i in range(4)])
    totals = np.concatenate([limbs @ np.ones(rows), _DEGREE @ products]).T
    pairs = []
    for sh, t in zip((top - 53 - _WINDOW + _SCALE_BITS).tolist(),
                     totals.astype(np.int64).tolist()):
        s = sum(v << (_LIMB_BITS * d) for d, v in enumerate(t[:4]))
        s2 = sum(v << (_LIMB_BITS * d) for d, v in enumerate(t[4:]))
        pairs.append((s << sh, s2 << 2 * sh) if sh >= 0 else (s >> -sh, s2 >> -2 * sh))
    return pairs, below


def _exact_sums(values: np.ndarray) -> list[tuple[int, int]]:
    """Exact sums of each row of a finite (k, count) float64 array: one
    (sum(v) * 2**1074, sum(v*v) * 2**2148) integer pair per row."""
    k, count = values.shape
    sums = [0] * k
    sumsqs = [0] * k
    for start in range(0, count, _EXACT_ROWS):
        cols = values[:, start:start + _EXACT_ROWS]
        todo = [(range(k), cols)]  # (row indices, their values not yet summed)
        while todo:
            indices, cols = todo.pop()
            pairs, rest = _window_sums(cols)
            for j, (s, s2) in zip(indices, pairs):
                sums[j] += s
                sumsqs[j] += s2
            if rest is not None:
                todo += [([indices[i]], cols[i, rest[i]][None])
                         for i in np.flatnonzero(rest.any(axis=1)).tolist()]
    return list(zip(sums, sumsqs))


@dataclass(slots=True)
class RunningMoments:
    """Streaming count/mean/variance over finite float64 values.

    Sums are exact integers, so accumulation is associative: any grouping of
    the same repetitions yields bit-identical mean and variance.  Memory is
    O(1) per cell regardless of repetition count.
    """

    count: int = 0
    sum_scaled: int = 0
    sumsq_scaled: int = 0

    def add_values(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise InvalidInput(f"values must be a 1-D array, got {values.ndim} dimensions")
        if not np.isfinite(values).all():
            raise InvalidInput("values must be finite")
        [(s, s2)] = _exact_sums(values[None])
        self.count += len(values)
        self.sum_scaled += s
        self.sumsq_scaled += s2

    def merged(self, other: "RunningMoments") -> "RunningMoments":
        return RunningMoments(
            self.count + other.count,
            self.sum_scaled + other.sum_scaled,
            self.sumsq_scaled + other.sumsq_scaled,
        )

    @property
    def mean(self) -> float:
        if self.count == 0:
            return float("nan")
        return self.sum_scaled / (self.count * _SCALE)

    @property
    def variance(self) -> float:
        """Unbiased variance (divisor count - 1); nan below 2 samples."""
        if self.count < 2:
            return float("nan")
        numerator = self.count * self.sumsq_scaled - self.sum_scaled * self.sum_scaled
        return numerator / (self.count * (self.count - 1) * _SQ_SCALE)

    def __repr__(self) -> str:
        return f"RunningMoments(count={self.count}, mean={self.mean}, variance={self.variance})"


@dataclass(frozen=True)
class TimeSeries:
    """Cross-repetition fraction statistics at the recorded steps."""

    steps: tuple[int, ...]
    nodes: tuple[int, ...]
    cells: tuple[tuple[RunningMoments, ...], ...]  # [step][node]

    @property
    def count(self) -> int:
        return self.cells[0][0].count if self.cells else 0

    def mean(self) -> np.ndarray:
        return np.array([[cell.mean for cell in row] for row in self.cells])

    def variance(self) -> np.ndarray:
        return np.array([[cell.variance for cell in row] for row in self.cells])

    def merged(self, other: "TimeSeries") -> "TimeSeries":
        if self.steps != other.steps or self.nodes != other.nodes:
            raise InvalidInput("time series cover different steps or nodes")
        cells = tuple(
            tuple(a.merged(b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.cells, other.cells)
        )
        return TimeSeries(steps=self.steps, nodes=self.nodes, cells=cells)


@dataclass(eq=False)
class ExperimentResult:
    """Final fractions per repetition plus optional per-step statistics.

    final_fractions row i belongs to absolute repetition rep_range[0] + i.
    Both arrays hold the run's k leading nodes: all m unless run_experiments
    was given leading_nodes=k.
    """

    config: ExperimentConfig
    rep_range: tuple[int, int]
    final_fractions: np.ndarray   # (reps, k)
    proposer_counts: np.ndarray   # (k,) int64, summed over reps and steps
    time_series: TimeSeries | None


def _chunk_bounds(start: int, stop: int, n: int, workers: int) -> list[tuple[int, int]]:
    """Split [start, stop) into near-equal chunks of at most _MAX_CHUNK
    repetitions and _DRAW_BUDGET draws (but at least one repetition): a
    multiple of `workers` chunks when there are at least that many
    repetitions, so no worker sits idle.

    A chunk's draws are all drawn, whole and on one thread, before its
    slot-kernel pass, so the caps bound them: at most 32 MiB at
    steps_n = 1000, where 20,000 repetitions run as 5 chunks of 4,000,
    which a serial run that draws ahead takes as 10 of 2,000 in two 16 MiB
    buffers (_serial_chunks).  Above steps_n = 2048 the draw budget binds
    first.  Each extra chunk costs one more kernel pass, whose fixed cost
    per slot does not shrink with the chunk.  Runs that record take the
    same cap, and batching their stops' exact sums (_chunk_task) pays for
    the extra pass: at 5,000 repetitions of 1,000 slots recorded every 10,
    on a 2-core box, the 4,096 cap alone ran about 1.06x as long as one
    5,000-urn chunk, and with batching about 0.97x."""
    cap = _MAX_CHUNK
    if n > 0:
        cap = min(cap, max(1, _DRAW_BUDGET // n))
    reps = stop - start
    k = max(-(-reps // cap), workers)
    k = min(-(-k // workers) * workers, reps)  # a multiple of workers, none empty
    return [(start + i * reps // k, start + (i + 1) * reps // k) for i in range(k)]


def _kernel_inputs(
    matrices: Sequence[RewardMatrix], initial_stakes: Sequence[float], k: int
) -> tuple[list[RewardMatrix], np.ndarray]:
    """The reward matrices and the initial stake row that the slot kernel
    runs for a run that keeps nodes 0 .. k-1 (run_experiments'
    `leading_nodes`).

    When every matrix pays each kept node the same bits whichever node of
    k .. m-1 proposes (frd and constant always do; a custom matrix may
    not), nodes k .. m-1 run as one tail node, row and column k of (k+1) x
    (k+1) matrices, whose stake is their sum.  The thresholds use the full
    config's total and each matrix's own row_sum (the field, never
    re-summed), not a sum of the lumped columns, which can round apart
    from the full total when the stakes are not integers.  The kept nodes'
    prefix sums are the same adds, their rewards from the tail are the same
    floats, and the tail enters selection only through the float-edge rule,
    which needs only whether it holds stake: its one column does exactly
    when the full tail does.  A tail that holds stake keeps it, so the edge
    rule never reads it and selection stops at the prefix before it: every
    matrix pays it +0.0, and the kernel skips it (urn.slot_snapshots), while
    the totals still grow by each matrix's own row_sum.  An empty tail is
    paid each row's sum over the tail.  So the kept columns are the full
    run's bit for bit.  Otherwise, and when k = m, every node runs
    unchanged."""
    initial = np.asarray(initial_stakes, dtype=np.float64)
    tails = (matrix.entries[k:, :k].view(np.int64) for matrix in matrices)  # so -0.0 != 0.0
    if k == len(initial) or any((rows != rows[0]).any() for rows in tails):
        return list(matrices), initial
    stake = initial[k:].sum()
    kept = []
    for matrix in matrices:
        entries = np.zeros((k + 1, k + 1))
        entries[:, :k] = matrix.entries[:k + 1, :k]
        if stake == 0:
            entries[:, k] = matrix.entries[:k + 1, k:].sum(axis=1)
        kept.append(RewardMatrix(entries=entries, row_sum=matrix.row_sum))
    return kept, np.append(initial[:k], stake)


def _chunk_task(
    configs: Sequence[ExperimentConfig],
    matrices: Sequence[RewardMatrix],
    initial: np.ndarray,
    leading: int,
    bounds: tuple[int, int],
    draws: np.ndarray,
) -> list[ExperimentResult]:
    """Simulate repetitions [a, b) of every config on `draws`, their
    (b - a, steps_n) block of the run's one stream, which _serial_chunks
    draws: one group of urns per config, each starting at `initial`, all
    advanced by one slot-kernel pass (urn.slot_snapshots) with `matrices`
    (_kernel_inputs).
    When recording, the pass stops at each recorded step, and the tracked
    nodes' fractions, all among the `leading` nodes, are read from its
    node-major stake columns into a batch buffer of (stop, node, group)
    rows.  One _exact_sums call sums each full batch, and one more the last
    partial batch.  A batch holds as many stops as fit in _BATCH_VALUES
    values, and at least one: one call's fixed cost is spread over several
    stops, while its limbs (32 bytes per value) stay within a core's L2
    cache.  At 2,500 urns of 2 tracked nodes, bounds of 20,000 to 80,000
    values ran alike and 10,000 about 2% slower.  The integers do not
    depend on the batching.

    Each result holds the `leading` (k) first nodes: final_fractions is
    (b - a, k) and proposer_counts (k,)."""
    config = configs[0]
    a, b = bounds
    count = b - a
    n = config.steps_n
    groups = len(configs)
    stakes = np.tile(initial, (groups * count, 1))
    record = config.record.stride > 0
    steps = tuple(recorded_steps(n, config.record.stride))
    stops = steps if record else ()
    track = config.tracked_nodes()
    k = len(track)
    # nodes 0 .. k-1 are a slice of the columns, read without a copy
    nodes = slice(k) if track == tuple(range(k)) else list(track)
    batch = np.empty((min(max(1, _BATCH_VALUES // (k * groups * count)), len(stops)),
                      k, groups * count))
    sums: list[tuple[int, int]] = []
    filled = 0
    # from the config's S(0), not the lumped stakes' sum (_kernel_inputs)
    kernel = slot_snapshots(stakes, config.initial_total, matrices, draws, stops)
    while True:
        try:
            _, at, columns = next(kernel)
        except StopIteration as end:
            counts, total = end.value
            break
        np.divide(columns[nodes], at, out=batch[filled])
        filled += 1
        if filled == len(batch):
            sums += _exact_sums(batch.reshape(-1, count))
            filled = 0
    if filled:
        sums += _exact_sums(batch[:filled].reshape(-1, count))
    fractions = stakes[:, :leading] / total
    moments = [RunningMoments(count, s, s2) for s, s2 in sums]
    # a stop's node j of group g is its row j * groups + g
    per_stop = [moments[i:i + k * groups] for i in range(0, len(moments), k * groups)]
    return [
        ExperimentResult(
            config=c,
            rep_range=(a, b),
            final_fractions=fractions[g * count:(g + 1) * count],
            proposer_counts=group_counts[:leading],
            time_series=TimeSeries(steps=steps, nodes=track,
                                   cells=tuple(tuple(row[g::groups]) for row in per_stop))
            if record else None,
        )
        for g, (c, group_counts) in enumerate(zip(configs, counts))
    ]


def _usable_cpus() -> int:
    """The CPUs this process may keep busy: one in a process that
    multiprocessing started, as a pool's workers (run_experiments'
    `workers`) already share the machine's; else its affinity mask, where
    the OS has one."""
    # a process that never imported multiprocessing was not started by it
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# the least work a serial run shares with a helper thread, as fixed sizes,
# not options: a run draws the next chunk while the kernel runs this one
# when halving its chunks leaves each half _OVERLAP_URNS urns and
# _SPLIT_DRAWS draws (4 MiB).  On a 2-core box, drawing ahead in halves of
# 2,000 urns of 1,000 slots took about 0.9x the time of the whole chunks,
# and in halves of 1,250 and 1,000 urns 1.06x and 1.10x, as each extra
# chunk costs one more kernel pass; in halves of 2,048 urns of 10 slots it
# took 2.1x.
_SPLIT_DRAWS = 1 << 19
_OVERLAP_URNS = 1600


def _serial_chunks(
    task: Callable[..., list[ExperimentResult]],
    seed: int,
    n: int,
    bounds: list[tuple[int, int]],
) -> list[list[ExperimentResult]]:
    """task(bounds, draws) for each chunk of `bounds` in turn, on draws this
    process makes (urn.draw_job): the outputs, in order.  This is the one
    way a chunk gets its draws: a serial run calls it on all its chunks,
    and each pool worker on each chunk it is handed (_pool_chunk).

    Each chunk is drawn whole, by one draw_job call on one thread.  With
    two usable CPUs (_usable_cpus), when halving the chunks leaves each
    half at least _OVERLAP_URNS urns and _SPLIT_DRAWS draws, the run takes
    the halves as its chunks and draws ahead: this thread draws the first,
    and one helper thread, started here and joined before the call returns
    (so none is inherited by a later fork), draws chunk i + 1 into one of
    two buffers while the kernel runs chunk i on the other.  Otherwise, as
    in a pool worker, this thread draws every chunk and no thread starts.
    Each chunk reads the same values of the one stream whichever thread
    draws it, so the outputs do not depend on the plan.

    A chunk's draws are slot-major: the leading values of a row of one
    buffer, allocated once per run, viewed as (n, chunk) and transposed.
    Each fill (urn.draw_job) makes its generator and scratch block on this
    thread when it is handed out, and frees them when it ends, so that the
    kernel's buffers can take their memory."""
    half = min(b - a for a, b in bounds) // 2
    ahead = half >= _OVERLAP_URNS and half * n >= _SPLIT_DRAWS and _usable_cpus() >= 2
    if ahead:
        bounds = [part for a, b in bounds for part in ((a, (a + b) // 2), ((a + b) // 2, b))]
    largest = max(b - a for a, b in bounds)
    buffers = np.empty((1 + ahead, largest * n))
    views = [buffers[i % len(buffers), :(b - a) * n].reshape(n, b - a).T
             for i, (a, b) in enumerate(bounds)]
    if not ahead:
        return [task(chunk, draw_job(seed, chunk[0], view)()) for chunk, view in zip(bounds, views)]
    # imported here, as the process pool is: a run that does not draw ahead
    # never loads these modules
    from concurrent.futures import ThreadPoolExecutor

    outputs = []
    with ThreadPoolExecutor(max_workers=1) as helper:
        wait = draw_job(seed, bounds[0][0], views[0])  # the first chunk, on this thread
        for i, chunk in enumerate(bounds):
            wait()
            if i + 1 < len(bounds):
                wait = helper.submit(draw_job(seed, bounds[i + 1][0], views[i + 1])).result
            outputs.append(task(chunk, views[i]))
    return outputs


# a pool worker's chunk loop (run_experiments' `chunks`), set once per
# worker by _start_worker, so that each pool task carries only its bounds
_worker_chunks: Callable | None = None


def _start_worker(chunks: Callable) -> None:
    """A pool worker's initializer: keep the run's chunk loop."""
    global _worker_chunks
    _worker_chunks = chunks


def _pool_chunk(bounds: tuple[int, int]) -> list[list[ExperimentResult]]:
    """A pool task: the worker's chunk loop over the one chunk `bounds`,
    and its outputs, one per chunk it ran (as halves, were it to draw
    ahead)."""
    return _worker_chunks([bounds])


# what configs run together share: every field but the reward scheme
_SHARED_FIELDS = tuple(f.name for f in fields(ExperimentConfig)
                       if f.init and f.name not in ("scheme", "custom_entries"))


def run_experiments(
    configs: Sequence[ExperimentConfig],
    *,
    workers: int = 1,
    rep_range: tuple[int, int] | None = None,
    leading_nodes: int | None = None,
) -> list[ExperimentResult]:
    """Run configs that differ only in their reward scheme over one set of
    draws, and return one result per config, in order.

    The configs must agree on every field but `scheme` and
    `custom_entries`, and their reward matrices must share one row sum, so
    their urns read the same draws at the same analytic totals; otherwise
    InvalidInput.  Each chunk of repetitions is drawn once and all the
    configs' urns go through one slot-kernel pass, and the results equal
    [run_experiment(c, workers=workers, rep_range=rep_range) for c in
    configs] bit for bit.

    `rep_range` (default: all repetitions) selects a half-open block of
    repetition indices; partial results over adjacent blocks merge into
    exactly the full-run result (see merge_results).  A serial run takes
    its chunks (_chunk_bounds) through one chunk loop (_serial_chunks),
    which draws each chunk whole into buffers it allocates once: one, or
    two when, on two CPUs and large enough chunks, one helper thread draws
    the next chunk while the kernel runs this one.  `workers` > 1 farms
    the chunks to a process pool of at most as many workers as chunks:
    each worker gets the run's chunk loop once, when it starts, and runs
    each chunk it is handed through it on one thread.  Either way each
    chunk reads the same values of the one stream, and the output is
    identical.

    `leading_nodes` k (default: all m nodes), 1 <= k <= m, keeps only nodes
    0 .. k-1 in the results: final_fractions is (reps, k) and
    proposer_counts (k,), bit-equal to the full run's leading columns.  A
    recording config must track only those nodes.  Where the reward
    matrices allow, nodes k .. m-1 run as one node (see _kernel_inputs).
    """
    workers = check_integer(workers, "workers", 1)
    if not configs:
        raise InvalidInput("need at least one config")
    config = configs[0]
    for other in configs[1:]:
        for name in _SHARED_FIELDS:
            if getattr(other, name) != getattr(config, name):
                raise InvalidInput(f"configs run together must share {name}")
    matrices = [c.reward_matrix() for c in configs]
    if any(matrix.row_sum != matrices[0].row_sum for matrix in matrices):
        raise InvalidInput("configs run together must share one reward matrix row sum")
    m = config.num_nodes
    leading = m if leading_nodes is None else check_integer(leading_nodes, "leading_nodes", 1)
    if leading > m:
        raise InvalidInput(f"leading_nodes must be <= {m}, the node count, got {leading}")
    if config.record.stride > 0 and max(config.tracked_nodes()) >= leading:
        raise InvalidInput(f"recorded nodes must be among the {leading} leading nodes")
    try:
        start, stop = rep_range if rep_range is not None else (0, config.repetitions)
    except (TypeError, ValueError):
        raise InvalidInput(f"rep_range must be a (start, stop) pair, got {rep_range!r}") from None
    start, stop = check_integer(start, "rep_range start"), check_integer(stop, "rep_range stop")
    if not 0 <= start < stop <= config.repetitions:
        raise InvalidInput(
            f"rep_range {(start, stop)} invalid for {config.repetitions} repetitions"
        )
    reps = stop - start
    if reps * m > _MAX_RESULT_ELEMENTS:
        raise StakeSimError(
            f"{reps} repetitions x {m} nodes exceeds the cap of {_MAX_RESULT_ELEMENTS} values"
        )
    n = config.steps_n
    if n > _MAX_RESULT_ELEMENTS:  # a chunk holds at least one row of n draws
        raise StakeSimError(
            f"steps_n {n} exceeds the cap of {_MAX_RESULT_ELEMENTS} draws per repetition"
        )
    bounds = _chunk_bounds(start, stop, n, workers)
    kept, initial = _kernel_inputs(matrices, config.initial_stakes, leading)
    chunks = partial(_serial_chunks, partial(_chunk_task, configs, kept, initial, leading),
                     config.base_seed, n)
    if workers > 1 and len(bounds) > 1:
        # imported here, so a serial run never loads the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts every worker at once: no more than there are
        # chunks; each gets the chunk loop once (a fork copies it, spawn
        # pickles it once per worker), and each task only its bounds
        with ProcessPoolExecutor(max_workers=min(workers, len(bounds)),
                                 initializer=_start_worker, initargs=(chunks,)) as pool:
            outputs = [part for parts in pool.map(_pool_chunk, bounds) for part in parts]
    else:
        outputs = chunks(bounds)
    return [merge_results(parts) for parts in zip(*outputs)]


def run_experiment(
    config: ExperimentConfig,
    *,
    workers: int = 1,
    rep_range: tuple[int, int] | None = None,
) -> ExperimentResult:
    """Run the configured experiment over a range of repetitions: the one
    config of run_experiments, which documents `workers` and `rep_range`."""
    return run_experiments([config], workers=workers, rep_range=rep_range)[0]


def merge_results(partials: Sequence[ExperimentResult]) -> ExperimentResult:
    """Concatenate partial results over adjacent repetition ranges.

    The merge is bit-exact: with ranges tiling [0, repetitions) the merged
    result equals the single-shot run.  Raises InvalidInput when configs
    or node counts differ, or when ranges overlap or leave gaps.
    """
    if not partials:
        raise InvalidInput("nothing to merge")
    first = partials[0]
    for p in partials[1:]:
        if p.config != first.config:
            raise InvalidInput("partial results come from different configs")
        if (p.time_series is None) != (first.time_series is None):
            raise InvalidInput("partial results disagree on time-series recording")
        if p.final_fractions.shape[1:] != first.final_fractions.shape[1:]:
            raise InvalidInput("partial results hold different numbers of nodes")
    ordered = sorted(partials, key=lambda p: p.rep_range[0])
    for prev, nxt in zip(ordered, ordered[1:]):
        if nxt.rep_range[0] != prev.rep_range[1]:
            raise InvalidInput(
                f"ranges {prev.rep_range} and {nxt.rep_range} overlap or leave a gap"
            )
    series = ordered[0].time_series
    for p in ordered[1:]:
        if series is not None:
            series = series.merged(p.time_series)
    counts = np.zeros_like(first.proposer_counts)
    for p in ordered:
        counts += p.proposer_counts
    return ExperimentResult(
        config=first.config,
        rep_range=(ordered[0].rep_range[0], ordered[-1].rep_range[1]),
        final_fractions=np.concatenate([p.final_fractions for p in ordered], axis=0),
        proposer_counts=counts,
        time_series=series,
    )
