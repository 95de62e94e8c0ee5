"""Tests for the experiment runner: determinism, merging, parallelism, stats."""

import hashlib
import math
import os
import pickle
import re
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stakesim import (
    ExperimentConfig,
    RecordPolicy,
    RunningMoments,
    merge_results,
    predict,
    run_experiment,
    run_experiments,
)
from stakesim import montecarlo
from stakesim.cli import (builtin_benchmark_configs, table1_report, write_samples_csv,
                          write_stats_csv)
from stakesim.errors import InvalidInput, StakeSimError
from stakesim.urn import repetition_draws, run_slots, slot_snapshots
from test_urn import force_helpers


def make_config(**overrides):
    fields = dict(
        initial_stakes=(50.0, 50.0),
        scheme="frd",
        reward_budget_K=200.0,
        steps_n=100,
        repetitions=60,
        base_seed=101,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


def replay_final_fractions(config) -> np.ndarray:
    """The stream rule written out: repetition r runs one urn on row r of
    the (repetitions, steps_n) draws read serially from PCG64(base_seed)."""
    draws = np.random.Generator(np.random.PCG64(config.base_seed)).random(
        (config.repetitions, config.steps_n))
    matrix = config.reward_matrix()
    rows = []
    for row in draws:
        stakes = np.array(config.initial_stakes, ndmin=2)
        _, total = run_slots(stakes, float(stakes.sum()), matrix, row[None, :])
        rows.append(stakes[0] / total)
    return np.array(rows)


def results_equal(a, b) -> bool:
    return (
        a.config == b.config
        and a.rep_range == b.rep_range
        and np.array_equal(a.final_fractions, b.final_fractions)
        and np.array_equal(a.proposer_counts, b.proposer_counts)
        and a.time_series == b.time_series
    )


class TestRunExperiment:
    def test_no_steps_returns_initial_fractions(self):
        config = make_config(steps_n=0, repetitions=1, initial_stakes=(30.0, 70.0))
        result = run_experiment(config)
        assert result.final_fractions.tolist() == [[0.3, 0.7]]

    def test_bit_identical_reruns(self):
        config = make_config()
        assert results_equal(run_experiment(config), run_experiment(config))

    def test_rows_are_per_repetition_streams(self):
        # a run over any block of repetitions is that block of a run over
        # [0, 60), also when the block starts past repetition 0
        config = make_config()
        full = run_experiment(config)
        for a, b in [(0, 20), (20, 60), (37, 38)]:
            block = run_experiment(config, rep_range=(a, b))
            assert np.array_equal(block.final_fractions, full.final_fractions[a:b]), (a, b)

    def test_matches_single_trajectory_path(self):
        config = make_config(repetitions=5)
        result = run_experiment(config)
        assert np.array_equal(replay_final_fractions(config), result.final_fractions)
        # one urn on repetition 0's draws is row 0 of the run
        stakes = np.array(config.initial_stakes, ndmin=2)
        draws = repetition_draws(config.base_seed, 0, 1, config.steps_n)
        _, total = run_slots(stakes, float(stakes.sum()), config.reward_matrix(), draws)
        assert np.array_equal(stakes[0] / total, result.final_fractions[0])

    def test_parallel_equals_serial(self):
        config = make_config(record=RecordPolicy(stride=25), repetitions=40)
        import stakesim.montecarlo as mc
        old = mc._MAX_CHUNK
        mc._MAX_CHUNK = 16  # force several chunks so the pool actually splits
        try:
            serial = run_experiment(config, workers=1)
            parallel = run_experiment(config, workers=3)
        finally:
            mc._MAX_CHUNK = old
        assert results_equal(serial, parallel)

    @pytest.mark.parametrize("workers,reps",
                             [(2, 5000), (3, 40), (2, 20000), (4, 3), (64, 5)])
    def test_every_worker_gets_a_chunk(self, monkeypatch, workers, reps):
        # the pool stand-in runs serially and records its size and the
        # chunks it is given; a real pool starts every worker at once
        pools = []
        chunks = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, bounds):
                chunks.extend(bounds)
                return [fn(b) for b in bounds]

        config = make_config(repetitions=reps, record=RecordPolicy(stride=50))
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        parallel = run_experiment(config, workers=workers)
        sizes = [b - a for a, b in chunks]
        assert pools == [min(workers, reps)]
        assert chunks and len(chunks) % min(workers, reps) == 0
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= 8192
        assert results_equal(parallel, run_experiment(config, workers=1))

    def test_fraction_rows_sum_to_one(self):
        result = run_experiment(make_config(initial_stakes=(10.0, 30.0, 30.0, 30.0)))
        sums = result.final_fractions.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)

    def test_proposer_counts_total(self):
        config = make_config()
        result = run_experiment(config)
        assert result.proposer_counts.sum() == config.repetitions * config.steps_n

    def test_single_step_counts_are_binomial(self):
        # one slot per repetition from an equal split: exactly Binomial(R, 1/2);
        # at longer horizons within-run compounding correlates the draws and
        # the binomial bound no longer applies
        config = make_config(scheme="constant", steps_n=1, repetitions=40_000, base_seed=31337)
        counts = run_experiment(config).proposer_counts
        assert abs(counts[0] - 20_000) <= 4 * math.sqrt(40_000 * 0.25)

    def test_shared_reward_mean_stays_at_initial_fraction(self):
        for stakes in [(10.0, 30.0, 30.0, 30.0), (10.0,) * 10, (50.0, 50.0), (100 / 3, 200 / 3)]:
            config = make_config(
                initial_stakes=stakes, steps_n=1000, repetitions=2000, base_seed=5150 + len(stakes)
            )
            result = run_experiment(config)
            share = stakes[0] / sum(stakes)
            predicted = predict(config.reward_matrix(), 0, sum(stakes), 1000)
            bound = 3 * math.sqrt(predicted.var_fraction / config.repetitions)
            assert abs(result.final_fractions[:, 0].mean() - share) <= bound

    def test_resource_limit(self, monkeypatch):
        import stakesim.montecarlo as mc
        monkeypatch.setattr(mc, "_MAX_RESULT_ELEMENTS", 100)
        message = "1000 repetitions x 2 nodes exceeds the cap of 100 values"
        with pytest.raises(StakeSimError, match=message) as exc:
            run_experiment(make_config(repetitions=1000))
        assert not isinstance(exc.value, InvalidInput)
        # one repetition's row of draws is held whole, so steps_n is capped too
        message = "steps_n 101 exceeds the cap of 100 draws per repetition"
        with pytest.raises(StakeSimError, match=message) as exc:
            run_experiment(make_config(steps_n=101, repetitions=1))
        assert not isinstance(exc.value, InvalidInput)

    def test_bad_rep_range(self):
        with pytest.raises(ValueError):
            run_experiment(make_config(), rep_range=(10, 5))
        with pytest.raises(ValueError):
            run_experiment(make_config(), rep_range=(0, 1000))

    @pytest.mark.parametrize("rep_range", [(1,), (0, 1, 2), 5, ()],
                             ids=["one", "three", "int", "empty"])
    def test_rep_range_must_be_a_pair(self, rep_range):
        message = f"rep_range must be a (start, stop) pair, got {rep_range!r}"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            run_experiment(make_config(), rep_range=rep_range)

    def test_process_pool_is_imported_only_to_start_one(self):
        # importing the cli and a serial run load no pool module; a run with
        # two workers and two chunks starts a pool and loads it
        code = ("import sys, stakesim.cli\n"
                "from stakesim import ExperimentConfig, run_experiment\n"
                "pool = 'concurrent.futures.process'\n"
                "print(pool in sys.modules)\n"
                "config = ExperimentConfig(initial_stakes=(1.0, 1.0), scheme='frd',"
                " reward_budget_K=2.0, steps_n=3, repetitions=2, base_seed=1)\n"
                "run_experiment(config)\n"
                "print(pool in sys.modules)\n"
                "run_experiment(config, workers=2)\n"
                "print(pool in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(montecarlo.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out.split() == ["False", "False", "True"]


class _Planned(Exception):
    pass


def chunk_sizes(reps, n, workers, record):
    """The chunk sizes run_experiment plans for reps x n on `workers`, with
    or without recording: its _chunk_bounds call is spied on, and the run
    stops there."""
    config = make_config(repetitions=reps, steps_n=n, record=RecordPolicy(stride=int(record)))
    plan = montecarlo._chunk_bounds
    sizes = []

    def spy(*args):
        sizes.extend(b - a for a, b in plan(*args))
        raise _Planned

    with pytest.MonkeyPatch.context() as patch, pytest.raises(_Planned):
        patch.setattr(montecarlo, "_chunk_bounds", spy)
        run_experiment(config, workers=workers)
    return sizes


class TestChunkPlan:
    """Every run takes chunks of at most 4,096 repetitions, recording or
    not, and of at most 2**23 draws."""

    @pytest.mark.parametrize("record", [False, True])
    def test_one_cap_recording_or_not(self, record):
        sizes = chunk_sizes(20_000, 1_000, 1, record)
        assert len(sizes) == 5 and max(sizes) <= 4096 and sum(sizes) == 20_000

    @pytest.mark.parametrize("record", [False, True])
    def test_long_horizons_follow_the_draw_budget(self, record):
        sizes = chunk_sizes(20_000, 10_000, 1, record)
        assert len(sizes) == 24 and max(sizes) <= (1 << 23) // 10_000

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("n", [1_000, 10_000])
    def test_chunk_count_is_a_multiple_of_workers(self, record, n):
        sizes = chunk_sizes(20_000, n, 2, record)
        assert len(sizes) % 2 == 0 and max(sizes) - min(sizes) <= 1
        assert len(sizes) >= len(chunk_sizes(20_000, n, 1, record))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unrecorded_results_equal_the_old_cap(self, workers, monkeypatch):
        config = make_config(repetitions=20_000)
        result = run_experiment(config, workers=workers)
        assert len(chunk_sizes(20_000, config.steps_n, 1, False)) == 5
        monkeypatch.setattr(montecarlo, "_MAX_CHUNK", 8192)
        assert len(chunk_sizes(20_000, config.steps_n, 1, False)) == 3
        old = run_experiment(config, workers=workers)
        assert np.array_equal(bits(result.final_fractions), bits(old.final_fractions))
        assert np.array_equal(result.proposer_counts, old.proposer_counts)
        assert result.time_series is None and old.time_series is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_recorded_results_equal_the_old_cap(self, workers, monkeypatch):
        # 3 chunks of 3,000 against the 2 chunks of 4,500 that the old
        # 8,192 cap for recording runs planned
        config = make_config(initial_stakes=(20.0, 30.0, 50.0), steps_n=50, repetitions=9_000,
                             record=RecordPolicy(stride=7, track_nodes=(0, 2)))
        result = run_experiment(config, workers=workers)
        assert chunk_sizes(9_000, 50, 1, True) == [3_000] * 3
        monkeypatch.setattr(montecarlo, "_MAX_CHUNK", 8192)
        assert chunk_sizes(9_000, 50, 1, True) == [4_500] * 2
        old = run_experiment(config, workers=workers)
        assert np.array_equal(bits(result.final_fractions), bits(old.final_fractions))
        assert np.array_equal(result.proposer_counts, old.proposer_counts)
        assert result.time_series.steps == old.time_series.steps == (0, 7, 14, 21, 28, 35,
                                                                        42, 49, 50)
        assert len(result.time_series.cells) == len(old.time_series.cells) == 9
        for row, old_row in zip(result.time_series.cells, old.time_series.cells):
            for cell, old_cell in zip(row, old_row):
                assert cell == old_cell and cell.count == 9_000


class TestMergeResults:
    def test_two_blocks_equal_single_shot(self):
        config = make_config(record=RecordPolicy(stride=20, track_nodes=(0,)))
        single = run_experiment(config)
        merged = merge_results([
            run_experiment(config, rep_range=(0, 25)),
            run_experiment(config, rep_range=(25, 60)),
        ])
        assert results_equal(merged, single)

    def test_order_does_not_matter(self):
        config = make_config()
        parts = [run_experiment(config, rep_range=r) for r in [(40, 60), (0, 40)]]
        assert results_equal(merge_results(parts), run_experiment(config))

    def test_single_partial_is_identity(self):
        config = make_config()
        result = run_experiment(config)
        assert results_equal(merge_results([result]), result)

    def test_config_mismatch(self):
        a = run_experiment(make_config())
        b = run_experiment(make_config(reward_budget_K=100.0))
        with pytest.raises(InvalidInput, match="partial results come from different configs"):
            merge_results([a, b])

    def test_overlap_rejected(self):
        config = make_config()
        parts = [run_experiment(config, rep_range=r) for r in [(0, 30), (20, 60)]]
        message = r"ranges \(0, 30\) and \(20, 60\) overlap or leave a gap"
        with pytest.raises(InvalidInput, match=message):
            merge_results(parts)

    def test_gap_rejected(self):
        config = make_config()
        parts = [run_experiment(config, rep_range=r) for r in [(0, 20), (30, 60)]]
        message = r"ranges \(0, 20\) and \(30, 60\) overlap or leave a gap"
        with pytest.raises(InvalidInput, match=message):
            merge_results(parts)


def scheme_batch(**overrides):
    """The constant, frd and a custom config on the same set-up."""
    custom = ((120.0, 30.0, 50.0), (10.0, 170.0, 20.0), (60.0, 60.0, 80.0))
    base = dict(initial_stakes=(20.0, 0.0, 80.0), record=RecordPolicy(stride=30), **overrides)
    return [make_config(scheme="constant", **base), make_config(scheme="frd", **base),
            make_config(scheme="custom", custom_entries=custom, **base)]


class TestRunExperiments:
    """Configs that differ only in their reward scheme run over one set of
    draws, and each result equals the config's own run."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_one_run_per_config(self, workers, monkeypatch):
        monkeypatch.setattr(montecarlo, "_MAX_CHUNK", 16)  # several chunks for the pool
        configs = scheme_batch(repetitions=40)
        batch = run_experiments(configs, workers=workers)
        assert len(batch) == len(configs)
        for config, result in zip(configs, batch):
            assert results_equal(result, run_experiment(config))

    def test_rep_range_halves_merge_into_the_batch(self):
        configs = scheme_batch()
        halves = [run_experiments(configs, rep_range=r) for r in [(0, 25), (25, 60)]]
        for config, first, second in zip(configs, *halves):
            assert results_equal(merge_results([first, second]), run_experiment(config))

    def test_one_config_is_run_experiment(self):
        config = make_config(record=RecordPolicy(stride=10))
        [result] = run_experiments([config])
        assert results_equal(result, run_experiment(config))

    @pytest.mark.parametrize("field,value", [
        ("base_seed", 102), ("initial_stakes", (20.0, 1.0, 79.0)),
        ("record", RecordPolicy(stride=0)), ("steps_n", 99), ("repetitions", 61),
        ("reward_budget_K", 100.0),
    ])
    def test_configs_must_share_all_but_the_scheme(self, field, value):
        configs = scheme_batch()
        other = dict(initial_stakes=configs[1].initial_stakes, record=configs[1].record)
        other[field] = value
        with pytest.raises(InvalidInput, match=f"configs run together must share {field}"):
            run_experiments([configs[0], make_config(**other)])

    def test_row_sums_must_match(self):
        # within the config's row-sum tolerance of K, but not the same float
        custom = ((150.0, 50.0 + 1e-8), (50.0, 150.0))
        configs = [make_config(), make_config(scheme="custom", custom_entries=custom)]
        assert configs[1].reward_matrix().row_sum != 200.0
        message = "configs run together must share one reward matrix row sum"
        with pytest.raises(InvalidInput, match=message):
            run_experiments(configs)

    def test_no_configs_rejected(self):
        with pytest.raises(InvalidInput, match="need at least one config"):
            run_experiments([])


def bits(values) -> np.ndarray:
    """An array's float64 values as their bit patterns, so -0.0 != 0.0."""
    return np.ascontiguousarray(values).view(np.int64)


def leading_batch(stakes, kind, record=RecordPolicy(), **overrides):
    """Configs on `stakes` at K = 200 that share their row sum exactly:
    constant and frd, and integer custom matrices.  "balanced" pays node j
    l_j = j + 1 whenever another node proposes, so nodes k .. m-1 lump for
    every k; "unbalanced" adds 1 to the last row's node 0 and takes it from
    its diagonal, so no tail of two or more nodes lumps."""
    m = len(stakes)
    balanced = np.tile(np.arange(1.0, m + 1), (m, 1))
    balanced[np.diag_indices(m)] += 200.0 - balanced[0].sum()
    unbalanced = balanced.copy()
    unbalanced[-1, 0] += 1.0
    unbalanced[-1, -1] -= 1.0
    custom = {"balanced": balanced, "unbalanced": unbalanced}
    fields = dict(initial_stakes=tuple(stakes), record=record, **overrides)
    return [make_config(scheme="custom", custom_entries=tuple(map(tuple, custom[name])),
                        **fields) if name in custom else make_config(scheme=name, **fields)
            for name in kind]


BATCH_KINDS = [("constant", "frd"), ("balanced",), ("unbalanced",), ("frd", "unbalanced")]


def assert_leading_columns(full, lumped, k):
    assert lumped.final_fractions.shape == (full.final_fractions.shape[0], k)
    assert lumped.proposer_counts.shape == (k,)
    assert np.array_equal(bits(lumped.final_fractions), bits(full.final_fractions[:, :k]))
    assert np.array_equal(lumped.proposer_counts, full.proposer_counts[:k])
    assert lumped.time_series == full.time_series
    assert lumped.rep_range == full.rep_range


# stakes over six decades, a quarter of them zero
STAKE = st.tuples(st.integers(0, 3), st.floats(1.0, 10.0), st.integers(-3, 2)).map(
    lambda t: 0.0 if t[0] == 0 else t[1] * 10.0 ** t[2])


@st.composite
def leading_cases(draw):
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, m))
    stakes = draw(st.lists(STAKE, min_size=m, max_size=m))
    zeros = draw(st.sampled_from(["none", "tail", "kept", "last"]))
    if zeros == "tail":
        stakes[k:] = [0.0] * (m - k)
    elif zeros == "kept":
        stakes[draw(st.integers(0, k - 1))] = 0.0
    elif zeros == "last":  # so the kernel's float-edge pass runs
        stakes[-1] = 0.0
    if not any(stakes):
        stakes[0] = 1.0
    return dict(stakes=stakes, k=k, kind=draw(st.sampled_from(BATCH_KINDS)),
                n=draw(st.sampled_from([0, 63, 64, 65, 130])),
                reps=draw(st.integers(1, 12)), stride=draw(st.sampled_from([0, 40])))


class TestLeadingNodes:
    """run_experiments(..., leading_nodes=k) holds the full run's first k
    columns bit for bit, whether the tail after node k-1 runs lumped into
    one node or (for a custom matrix that pays the kept nodes differently
    across the tail) every node runs."""

    @seed(20240521)
    @settings(max_examples=200, deadline=None)
    @given(leading_cases())
    def test_equals_full_run_leading_columns(self, case):
        k, reps = case["k"], case["reps"]
        record = RecordPolicy(stride=case["stride"], track_nodes=tuple(range(k)))
        configs = leading_batch(case["stakes"], case["kind"], record=record,
                                steps_n=case["n"], repetitions=reps)
        full = run_experiments(configs)
        lumped = run_experiments(configs, leading_nodes=k)
        for f, l in zip(full, lumped):
            assert_leading_columns(f, l, k)
        if reps > 1:
            halves = [run_experiments(configs, leading_nodes=k, rep_range=r)
                      for r in [(0, reps // 2), (reps // 2, reps)]]
            for f, first, second in zip(full, *halves):
                assert_leading_columns(f, merge_results([first, second]), k)

    @pytest.mark.parametrize("kind", [("constant", "frd"), ("frd", "unbalanced")])
    def test_lumps_unless_a_matrix_pays_the_tail_apart(self, kind):
        configs = leading_batch((10.0, 30.0, 0.0, 60.0), kind)
        matrices = [c.reward_matrix() for c in configs]
        kept, initial = montecarlo._kernel_inputs(matrices, configs[0].initial_stakes, 1)
        lumped = [mat.num_nodes for mat in kept] != [4, 4]
        assert lumped == ("unbalanced" not in kind)
        if lumped:
            assert [mat.entries.shape for mat in kept] == [(2, 2)] * 2
            assert all(mat.row_sum == 200.0 for mat in kept)
            assert initial.tolist() == [10.0, 90.0]
        else:  # every node runs unchanged
            assert all(a is b for a, b in zip(kept, matrices))
            assert initial.tolist() == [10.0, 30.0, 0.0, 60.0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kernel_inputs_made_once_per_run(self, workers, monkeypatch, tmp_path):
        # three chunks on either worker count; the spies log to a file, so
        # that a call in a forked pool worker counts too
        log = tmp_path / "calls"
        log.touch()
        kernel_inputs, reward_matrix = montecarlo._kernel_inputs, montecarlo.RewardMatrix

        def spy(name, function):
            def logged(*args, **kwargs):
                with log.open("a") as f:
                    f.write(name + "\n")
                return function(*args, **kwargs)
            return logged

        def calls():
            return Counter(log.read_text().split())

        monkeypatch.setattr(montecarlo, "_kernel_inputs", spy("inputs", kernel_inputs))
        monkeypatch.setattr(montecarlo, "RewardMatrix", spy("matrix", reward_matrix))
        monkeypatch.setattr(montecarlo, "_MAX_CHUNK", 1)
        assert len(montecarlo._chunk_bounds(0, 3, 100, workers)) == 3
        configs = leading_batch((12.3, 7.9, 0.0, 41.6, 38.2), ("constant", "frd"),
                                repetitions=3)
        full = run_experiments(configs, workers=workers)
        assert calls() == {"inputs": 1}  # no tail: the matrices run as they are
        for f, l in zip(full, run_experiments(configs, workers=workers, leading_nodes=2)):
            assert_leading_columns(f, l, 2)
        assert calls() == {"inputs": 2, "matrix": 2}  # the two lumped matrices, made once

    @pytest.mark.parametrize("kind", [("constant", "frd"), ("frd", "unbalanced")])
    def test_workers_and_chunks(self, kind, monkeypatch):
        monkeypatch.setattr(montecarlo, "_MAX_CHUNK", 8)  # several chunks for the pool
        configs = leading_batch((12.3, 7.9, 0.0, 41.6, 38.2), kind, repetitions=40)
        full = run_experiments(configs)
        for workers in (1, 2):
            for f, l in zip(full, run_experiments(configs, workers=workers, leading_nodes=2)):
                assert_leading_columns(f, l, 2)

    @pytest.mark.parametrize("tail", [(0.0, 0.0), (0.0, 0.4)])
    def test_float_edge_sees_only_whether_the_tail_holds_stake(self, tail, monkeypatch):
        # every draw is the largest double below 1, so each threshold lands
        # within rounding of the total and the float-edge rule decides the
        # slots whose running sum rounds below it: with an empty tail they
        # go to the last kept node with stake, otherwise to the tail
        def last_draws(seed, first, count, n, *, out=None):
            draws = np.empty((count, n)) if out is None else out
            draws.fill(np.nextafter(1.0, 0.0))
            return draws

        monkeypatch.setattr(montecarlo, "repetition_draws", last_draws)
        configs = leading_batch((0.1, 0.2, 0.3, *tail), ("constant", "frd"),
                                steps_n=200, repetitions=3)
        for f, l in zip(run_experiments(configs), run_experiments(configs, leading_nodes=3)):
            assert_leading_columns(f, l, 3)

    @pytest.mark.parametrize("stakes", [(30.0, 70.0), (30.0, 0.0)])
    @pytest.mark.parametrize("stride", [0, 40])
    def test_one_node_tail(self, stakes, stride, monkeypatch):
        # m = 2 leaves a one-node tail, which always lumps, into itself;
        # holding stake, it is paid +0.0 in every matrix the kernel sees, as
        # in table1's two-node rows; empty, it keeps its column for the edge
        # rule
        seen = []

        def spy(stakes, total, matrices, *args, **kwargs):
            seen.append([mat.entries.copy() for mat in matrices])
            return slot_snapshots(stakes, total, matrices, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "slot_snapshots", spy)
        record = RecordPolicy(stride=stride, track_nodes=(0,))
        configs = leading_batch(stakes, ("constant", "frd"), record=record, steps_n=130,
                                repetitions=7)
        full = run_experiments(configs)
        full_entries = seen.pop()
        for f, l in zip(full, run_experiments(configs, leading_nodes=1)):
            assert_leading_columns(f, l, 1)
        [entries] = seen
        for full_mat, mat in zip(full_entries, entries):
            if stakes[1] > 0:
                assert np.array_equal(bits(mat[:, 1]), bits(np.zeros(2)))
                assert np.array_equal(mat[:, 0], full_mat[:, 0])
            else:
                assert np.array_equal(mat, full_mat)
        kept, initial = montecarlo._kernel_inputs([c.reward_matrix() for c in configs],
                                                  stakes, 1)
        assert [bits(mat.entries).tolist() for mat in kept] == [bits(e).tolist() for e in entries]
        assert bits(initial).tolist() == bits(stakes).tolist()

    def test_table1_kernel_inputs_pinned(self, monkeypatch):
        # sha256 of each stock row's batch as the kernel receives it: every
        # matrix's entries, one urn's initial stakes and the total, pinned
        # before the kept-node rule was made once per run; the 4-node and
        # 10-node rows both run as [10, 90]
        digests = []

        def spy(stakes, total, matrices, *args, **kwargs):
            assert stakes.shape[1] == 2 and [mat.num_nodes for mat in matrices] == [2, 2]
            h = hashlib.sha256()
            for mat in matrices:
                h.update(np.ascontiguousarray(mat.entries).tobytes())
            h.update(np.ascontiguousarray(stakes[0]).tobytes())
            h.update(np.float64(total).tobytes())
            digests.append(h.hexdigest())
            return slot_snapshots(stakes, total, matrices, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "slot_snapshots", spy)
        table1_report(builtin_benchmark_configs(repetitions=5))
        assert digests == [
            "f06cc9533eca69ff2884c544b0a65bd616f32c3b4b7173449c423ccd00906af4",
            "f06cc9533eca69ff2884c544b0a65bd616f32c3b4b7173449c423ccd00906af4",
            "8dee526272cc1ad8ed2ddf09803fe08410da746a8067c5bfe3004574e2ee4ca0",
            "2d895078eedfc0b8ca4faadb89a0e61d2fd35c3dfedf9dea55f1bdf633da8df8",
        ]

    def test_leading_nodes_above_node_count_rejected(self):
        configs = leading_batch((10.0, 30.0, 60.0), ("frd",))
        message = "leading_nodes must be <= 3, the node count, got 4"
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            run_experiments(configs, leading_nodes=4)

    def test_recording_must_track_leading_nodes(self):
        record = RecordPolicy(stride=10, track_nodes=(0, 2))
        configs = leading_batch((10.0, 30.0, 60.0), ("frd",), record=record)
        message = "recorded nodes must be among the 2 leading nodes"
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            run_experiments(configs, leading_nodes=2)
        # at stride 0 nothing is recorded, so track_nodes does not matter
        final = leading_batch((10.0, 30.0, 60.0), ("frd",),
                              record=RecordPolicy(track_nodes=(0, 2)))
        [result] = run_experiments(final, leading_nodes=2)
        assert result.final_fractions.shape == (60, 2)

    def test_merge_rejects_different_node_counts(self):
        configs = leading_batch((10.0, 30.0, 60.0), ("frd",))
        [first] = run_experiments(configs, rep_range=(0, 30), leading_nodes=1)
        [second] = run_experiments(configs, rep_range=(30, 60))
        with pytest.raises(InvalidInput, match="^partial results hold different numbers of nodes$"):
            merge_results([first, second])


class TestTimeSeries:
    def test_recorded_steps_match_stride(self):
        config = make_config(record=RecordPolicy(stride=30, track_nodes=(0, 1)))
        series = run_experiment(config).time_series
        assert series.steps == (0, 30, 60, 90, 100)
        assert series.nodes == (0, 1)
        assert series.count == config.repetitions

    def test_initial_step_has_exact_mean_and_zero_variance(self):
        config = make_config(record=RecordPolicy(stride=50), initial_stakes=(30.0, 70.0))
        series = run_experiment(config).time_series
        assert series.mean()[0].tolist() == [0.3, 0.7]
        assert series.variance()[0].tolist() == [0.0, 0.0]

    def test_running_moments_match_numpy(self):
        values = np.random.Generator(np.random.PCG64(5)).random(500)
        moments = RunningMoments()
        moments.add_values(values)
        assert moments.mean == pytest.approx(values.mean(), rel=1e-15)
        assert moments.variance == pytest.approx(values.var(ddof=1), rel=1e-12)

    def test_running_moments_merge_is_exact(self):
        values = np.random.Generator(np.random.PCG64(6)).random(301)
        whole = RunningMoments()
        whole.add_values(values)
        left, right = RunningMoments(), RunningMoments()
        left.add_values(values[:117])
        right.add_values(values[117:])
        assert left.merged(right) == whole

    def test_shared_reward_mean_plateau(self):
        # cross-repetition mean pinned at the initial share at every
        # recorded step, within 3 standard errors
        config = ExperimentConfig(
            initial_stakes=(100 / 3, 200 / 3), scheme="frd", reward_budget_K=200.0,
            steps_n=1000, repetitions=100, base_seed=424242,
            record=RecordPolicy(stride=100, track_nodes=(0,)),
        )
        series = run_experiment(config).time_series
        share = 1 / 3
        means = series.mean()[:, 0]
        errs = 3 * np.sqrt(series.variance()[:, 0] / series.count)
        assert np.all(np.abs(means - share) <= errs + 1e-12)

    def test_shared_reward_variance_decays(self):
        # ln(n)/n decay: the leading-order ratio between n=1e3 and n=1e2 is
        # ~0.15; 0.35 leaves room for sampling noise at 100 repetitions
        config = ExperimentConfig(
            initial_stakes=(100 / 3, 200 / 3), scheme="frd", reward_budget_K=200.0,
            steps_n=1000, repetitions=100, base_seed=424242,
            record=RecordPolicy(stride=100, track_nodes=(0,)),
        )
        series = run_experiment(config).time_series
        variances = series.variance()[:, 0]
        i100 = series.steps.index(100)
        i1000 = series.steps.index(1000)
        assert variances[i1000] < 0.35 * variances[i100]

    def test_winner_takes_all_variance_grows(self):
        # the fraction's spread widens toward the beta limit; checked at
        # decade steps where the increments dominate estimator noise
        config = ExperimentConfig(
            initial_stakes=(50.0, 50.0), scheme="constant", reward_budget_K=200.0,
            steps_n=1000, repetitions=2000, base_seed=777,
            record=RecordPolicy(stride=10, track_nodes=(0,)),
        )
        series = run_experiment(config).time_series
        index = {step: i for i, step in enumerate(series.steps)}
        variances = series.variance()[:, 0]
        checkpoints = [variances[index[s]] for s in (10, 50, 100, 500, 1000)]
        assert all(a < b for a, b in zip(checkpoints, checkpoints[1:]))

    @pytest.mark.parametrize("stops_per_batch", [1, 3, None])
    def test_batched_stops_equal_per_stop_sums(self, stops_per_batch, monkeypatch):
        # 10 stops of 2 tracked nodes x 2 groups x 30 urns = 120 values each:
        # batches of one stop, of three (a partial batch of one stop is
        # left), and of all ten under the default bound
        configs = [make_config(scheme=scheme, initial_stakes=(20.0, 30.0, 50.0), steps_n=60,
                               repetitions=30, record=RecordPolicy(stride=7, track_nodes=(2, 0)))
                   for scheme in ("constant", "frd")]
        if stops_per_batch is not None:
            monkeypatch.setattr(montecarlo, "_BATCH_VALUES", stops_per_batch * 120 + 1)
        draws = repetition_draws(101, 0, 30, 60)
        for config, result in zip(configs, run_experiments(configs)):
            series = result.time_series
            assert series.steps == (0, 7, 14, 21, 28, 35, 42, 49, 56, 60)
            assert len(series.cells) == 10
            stakes = np.tile(config.initial_stakes, (30, 1))
            kernel = slot_snapshots(stakes, 100.0, config.reward_matrix(), draws, series.steps)
            for row, (_, at, columns) in zip(series.cells, kernel):
                reference = [RunningMoments() for _ in series.nodes]
                for cell, node in zip(reference, series.nodes):
                    cell.add_values(columns[node] / at)
                assert row == tuple(reference)

    def test_stride_zero_defines_no_series(self):
        assert run_experiment(make_config()).time_series is None

    def test_recording_is_observation_only(self):
        # recording splits the draws into segments but does not change the
        # path: every stride and worker count gives the unrecorded result
        def config(stride):
            return make_config(initial_stakes=(20.0, 30.0, 50.0), repetitions=30,
                               record=RecordPolicy(stride=stride))

        plain = run_experiment(config(0))
        for stride in (0, 1, 7):
            for workers in (1, 2):
                result = run_experiment(config(stride), workers=workers)
                assert np.array_equal(result.final_fractions, plain.final_fractions)
                assert np.array_equal(result.proposer_counts, plain.proposer_counts)
                if stride:
                    assert result.time_series.steps[-1] == 100
                    for j, cell in enumerate(result.time_series.cells[-1]):
                        final = RunningMoments()
                        final.add_values(plain.final_fractions[:, j])
                        assert cell == final


def oracle_sums(values):
    """The exact accumulator's integers from rational arithmetic, column by
    column: (sum(v) * 2**1074, sum(v*v) * 2**2148), each distinct value
    times its count."""
    pairs = []
    for col in np.asarray(values).T.tolist():
        counts = Counter(col).items()
        s = sum(Fraction(v) * c for v, c in counts) * 2**1074
        s2 = sum(Fraction(v) ** 2 * c for v, c in counts) * 2**2148
        assert s.denominator == 1 and s2.denominator == 1
        pairs.append((int(s), int(s2)))
    return pairs


EDGE_VALUES = (
    0.0,
    1.0,
    5e-324,                    # smallest subnormal
    2.225073858507201e-308,    # largest subnormal
    2.2250738585072014e-308,   # smallest normal
    float(np.nextafter(1.0, 0.0)),
)


@st.composite
def spread_values(draw):
    """A (k, count) array, k <= 40 and count <= 12, whose rows are each any
    finite floats, or nonzero floats with exponents top - 17 .. top, so
    that no value falls below the row's window, or nonzero floats with
    exponents top - 18 .. top, so that some may fall just below it."""
    k, count = draw(st.integers(0, 40)), draw(st.integers(0, 12))
    values = draw(arrays(np.float64, (k, count),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    kind = draw(arrays(np.int64, (k, 1), elements=st.integers(0, 2)))
    # np.frexp mantissa in [0.5, 1), signed, and exponent top - below_top
    mantissa = draw(arrays(np.int64, (k, count), elements=st.integers(2**52, 2**53 - 1)))
    sign = draw(arrays(np.int64, (k, count), elements=st.sampled_from([1, -1])))
    top = draw(arrays(np.int64, (k, 1), elements=st.integers(-1000, 1024)))
    below_top = draw(arrays(np.int64, (k, count),
                            elements=st.integers(0, montecarlo._WINDOW + 1)))
    below_top = np.where(kind == 1, np.minimum(below_top, montecarlo._WINDOW), below_top)
    windowed = np.ldexp(sign * mantissa * 2.0**-53, top - below_top)
    return np.where(kind == 0, values, windowed)


@st.composite
def repeated_values(draw):
    """A (k, count) array, k <= 4, whose rows each repeat a few bit
    patterns, in any order: at most 4 finite floats per row, +0.0 and -0.0
    among them as often as not, so that a row may repeat values far below
    its window too.  count is at most 600, or within 40 of _EXACT_ROWS on
    either side, so that repeated values straddle a block's end."""
    k = draw(st.integers(1, 4))
    straddle = draw(st.integers(0, 7)) == 0
    count = draw(st.integers(montecarlo._EXACT_ROWS - 40, montecarlo._EXACT_ROWS + 40)
                 if straddle else st.integers(1, 600))
    pool = draw(arrays(np.float64, (k, 4), elements=st.one_of(
        st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False))))
    patterns = draw(st.integers(1, 4))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, patterns, (k, count))
    return np.take_along_axis(pool, picks, axis=1)


def exact_sum_inputs():
    """Inputs for _exact_sums: rows of spread values, or rows of few
    repeated ones."""
    return st.one_of(spread_values(), repeated_values())


class TestExactSums:
    """_exact_sums sums the rows of a (k, count) array: each call passes the
    transpose of a (count, k) array whose columns oracle_sums sums."""

    @settings(max_examples=300, deadline=None)
    @given(exact_sum_inputs())
    # row 0's second value sits one exponent below its window, and is an
    # odd multiple of half the window's unit; row 1 has nothing below
    @example(np.array([[0.75, 0.75 * 2.0**-18 + 2.0**-71], [1.5, -1.25]]))
    @example(np.empty((0, 5)))
    @example(np.empty((4, 0)))
    def test_matches_rational_oracle(self, values):
        assert montecarlo._exact_sums(values) == oracle_sums(values.T)

    def test_edge_values(self):
        values = np.array(EDGE_VALUES)
        both = np.stack([values, -values[::-1]], axis=1)
        assert montecarlo._exact_sums(both.T) == oracle_sums(both)

    def test_fullest_bucket(self):
        # a full block of one window whose limbs all sit at their bounds: v
        # scales to x = 2**70 - 2**53 + 2**35 - 2**17, which splits into
        # limbs 2**16, -2**17, 2**17, -2**17, so the Gram entries reach 2**50
        v = 1 - 2.0**-17 + 2.0**-35 - 2.0**-53
        values = np.full((montecarlo._EXACT_ROWS, 1), v)
        assert montecarlo._exact_sums(values.T) == oracle_sums(values)

    def test_many_windows_over_blocks(self):
        # one column spanning every exponent in the last 6000 rows, which
        # straddle the first block's end
        rng = np.random.Generator(np.random.PCG64(11))
        values = np.zeros((montecarlo._EXACT_ROWS + 3000, 1))
        values[-6000:] = rng.standard_normal((6000, 1)) * 2.0 ** rng.integers(-1074, 1000, (6000, 1))
        values[-6000::7] = np.nextafter(0.0, 1.0) * rng.integers(1, 2**52, (858, 1))
        assert montecarlo._exact_sums(values.T) == oracle_sums(values)

    def test_zero_column_beside_nonzero(self):
        values = np.array([[0.0, 1.5], [-0.0, -2.25], [0.0, 3e-300], [-0.0, 7e300]])
        assert montecarlo._exact_sums(values.T) == oracle_sums(values)

    def test_subnormal_column(self):
        rng = np.random.Generator(np.random.PCG64(12))
        values = np.nextafter(0.0, 1.0) * rng.integers(-2**52, 2**52, (300, 2))
        values[:, 1] = np.nextafter(0.0, 1.0) * rng.integers(-4, 5, 300)
        assert montecarlo._exact_sums(values.T) == oracle_sums(values)

    def test_no_rows(self):
        assert montecarlo._exact_sums(np.empty((3, 0))) == [(0, 0)] * 3
        assert montecarlo._exact_sums(np.empty((0, 4))) == []

    def test_wide_block(self):
        values = np.random.Generator(np.random.PCG64(8)).random((50, 3000))
        assert montecarlo._exact_sums(values.T) == oracle_sums(values)

    def test_row_blocks(self, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(9))
        values = rng.standard_normal((101, 3)) * 10.0 ** rng.integers(-310, 300, (101, 3))
        whole = montecarlo._exact_sums(values.T)
        monkeypatch.setattr(montecarlo, "_EXACT_ROWS", 7)
        assert montecarlo._exact_sums(values.T) == whole == oracle_sums(values)

    def test_add_values_equals_column_sums(self):
        values = np.random.Generator(np.random.PCG64(10)).random((40, 2))
        moments = RunningMoments()
        moments.add_values(values[:, 1])
        assert (moments.sum_scaled, moments.sumsq_scaled) == oracle_sums(values)[1]

    @pytest.mark.parametrize("values, message", [
        ([0.5, math.inf], "values must be finite"),
        ([-math.inf], "values must be finite"),
        ([0.5, math.nan], "values must be finite"),
        (np.zeros((3, 2)), "values must be a 1-D array, got 2 dimensions"),
        (0.5, "values must be a 1-D array, got 0 dimensions"),
    ])
    def test_add_values_rejects_bad_input(self, values, message):
        moments = RunningMoments()
        with pytest.raises(InvalidInput, match=message):
            moments.add_values(values)
        assert moments == RunningMoments()

    def test_value_semantics(self):
        # pool results carry these cells: they compare by value, are not
        # hashable, take (count, sum_scaled, sumsq_scaled) in that order and
        # pickle to an equal cell
        moments = RunningMoments(3, 5, 7)
        assert (moments.count, moments.sum_scaled, moments.sumsq_scaled) == (3, 5, 7)
        assert moments == RunningMoments(3, 5, 7) != RunningMoments(3, 5, 8)
        assert moments != (3, 5, 7)
        with pytest.raises(TypeError, match="unhashable"):
            hash(moments)
        copy = pickle.loads(pickle.dumps(moments))
        assert copy == moments and copy is not moments
        assert repr(copy) == repr(moments) == "RunningMoments(count=3, mean=" \
            f"{moments.mean}, variance={moments.variance})"


class _LimbStageNumpy:
    """numpy as _exact_sums sees it through stakesim.montecarlo.np: every
    call counted by name, and the shape of each matmul's output kept."""

    def __init__(self):
        self.calls = Counter()
        self.products = []

    def __getattr__(self, name):
        value = getattr(np, name)
        if not callable(value) or isinstance(value, type):
            return value

        def counted(*args, **kwargs):
            self.calls[name] += 1
            out = value(*args, **kwargs)
            if name == "matmul":
                self.products.append(out.shape)
            return out

        return counted


class TestLimbStageCost:
    """The numpy calls of one window pass, pinned: the Gram matrix's ten
    entries i <= j as one dot product per row and limb pair, in four
    batched products, and a call count that does not grow with the rows or
    their length.  All sixteen entries back, or a call per row, fails
    here, not in a noisy benchmark."""

    @pytest.mark.parametrize("k, count", [(1, 40000), (2, 2500), (16, 2500), (3, 7)])
    def test_one_window(self, monkeypatch, k, count):
        values = np.random.default_rng(16).random((k, count)) + 1.0  # [1, 2): one window
        proxy = _LimbStageNumpy()
        monkeypatch.setattr(montecarlo, "np", proxy)
        montecarlo._exact_sums(values)
        assert proxy.products == [(4, k, 1, 1), (3, k, 1, 1), (2, k, 1, 1), (1, k, 1, 1)]
        assert proxy.calls == {"abs": 1, "frexp": 1, "empty": 1, "ldexp": 2, "rint": 3,
                               "matmul": 4, "concatenate": 2, "ones": 1}


# sha256 of samples.csv and stats.csv under stream version 2 (repetition r
# reads draws r*n .. (r+1)*n - 1 of one stream per run), pinned after each
# config's final fractions were checked against replay_final_fractions; a
# change to these is a change to the output bytes
GOLDEN = {
    "frd": (
        ExperimentConfig(initial_stakes=(50.0, 50.0), scheme="frd", reward_budget_K=200.0,
                         steps_n=100, repetitions=200, base_seed=20240611,
                         record=RecordPolicy(stride=10)),
        "4978404a997b303b28543e151de190f54198ee30e676ccd3d579e77d12d437aa",
        "d2e490f139b542a304c3d97eab5148902dd32c784c422d137bfe7fa9b5ae471d",
    ),
    "constant_zero_stake": (
        ExperimentConfig(initial_stakes=(30.0, 20.0, 10.0, 0.0), scheme="constant",
                         reward_budget_K=5.0, steps_n=60, repetitions=150, base_seed=777,
                         record=RecordPolicy(stride=7, track_nodes=(3, 0))),
        "97ea1d907c56068aea30158697bd484a68bac19a88fe8385b713520f2dc7ae14",
        "f67401c5e09bf1271540992116d5b2565df42c8b595607b77c37391fe7735aaa",
    ),
    # table1's widest kernel, and a custom matrix recorded at every step
    "frd_ten_nodes": (
        ExperimentConfig(initial_stakes=(10.0,) * 10, scheme="frd", reward_budget_K=200.0,
                         steps_n=200, repetitions=300, base_seed=20261018,
                         record=RecordPolicy(stride=25)),
        "01b55fabbb4f70e07a259935c6e6461af7ff4efd4099a1768fd89aefec8ac5e2",
        "163131b62e0d8ffc3ce2a0b8c0b66082d0a8c415845a6c2480a3228258c924d2",
    ),
    "custom_zero_stake": (
        ExperimentConfig(initial_stakes=(25.0, 0.0, 75.0), scheme="custom",
                         reward_budget_K=200.0, steps_n=80, repetitions=150, base_seed=4242,
                         record=RecordPolicy(stride=1),
                         custom_entries=((120.0, 50.0, 30.0), (40.0, 140.0, 20.0),
                                         (10.0, 60.0, 130.0))),
        "276b4f8024f177a236589799a313028b3f1dbbd50052b47be093eb82e3630d92",
        "7e8f82d1ab2c39082e88c764c4f499101a32e51bf3cf50bcbdcbd8c0155806a8",
    ),
    # recorded steps on the kernel's block edges (0, 64, 128, 192)
    # and inside its last block (200); then stops inside blocks with an
    # empty last node, so the float-edge pass runs in blocks that stop
    "frd_stride_64": (
        ExperimentConfig(initial_stakes=(40.0, 35.0, 25.0), scheme="frd",
                         reward_budget_K=150.0, steps_n=200, repetitions=120,
                         base_seed=20261019, record=RecordPolicy(stride=64)),
        "61290c19c52d5cdec86d6b261fe20725874102ad299dbad1be53b506fa73da19",
        "d10c8a0c08119d56f40f61857dbacd0321afe18ccf63cc0b16b8602d363868d2",
    ),
    "constant_stride_37_zero_last": (
        ExperimentConfig(initial_stakes=(30.0, 20.0, 0.0), scheme="constant",
                         reward_budget_K=3.0, steps_n=200, repetitions=100, base_seed=20261020,
                         record=RecordPolicy(stride=37, track_nodes=(2, 0))),
        "e9ebf9c96f78906d75d1e8f2be1a25cc25c7e1d5c143d4625738f5142809e22a",
        "3dfea4d2c26d03dd5227e9ea5f214073181c81c5f6f705511dc2cea62c96d7eb",
    ),
}


# a balanced matrix with row sum 1: each column is constant off the diagonal
BALANCED = ((0.5, 0.25, 0.25), (0.125, 0.625, 0.25), (0.125, 0.25, 0.625))


class TestPowerOfTwoScaling:
    """Every stake, K and custom entry times 2**k: every float op of a run
    scales exactly, so no output byte and no proposer count moves."""

    @seed(20261020)
    @given(scheme=st.sampled_from(["frd", "constant", "custom"]), exact=st.booleans(),
           k=st.integers(-20, 20), base_seed=st.integers(0, 2**64 - 1),
           stakes=st.lists(st.integers(0, 60), min_size=3, max_size=3).filter(any))
    @settings(max_examples=60, deadline=None)
    def test_outputs_do_not_depend_on_the_scale(self, scheme, exact, k, stakes, base_seed):
        # integer stakes and K = 200 make exact passes under the constant and
        # custom schemes; K = 0.7 makes every pass inexact
        budget = 200.0 if exact else 0.7
        outputs = []
        for scale in (1.0, 2.0**k):
            custom = tuple(tuple(budget * scale * x for x in row) for row in BALANCED)
            config = make_config(initial_stakes=tuple(scale * s for s in stakes), scheme=scheme,
                                 reward_budget_K=budget * scale, steps_n=150, repetitions=40,
                                 custom_entries=custom if scheme == "custom" else None,
                                 base_seed=base_seed, record=RecordPolicy(stride=13))
            result = run_experiment(config)
            outputs.append((write_samples_csv(result), write_stats_csv(result.time_series),
                            result.proposer_counts.tolist()))
        assert outputs[1] == outputs[0]


class TestGoldenBytes:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_output_bytes_pinned(self, name, workers):
        config, samples_sha, stats_sha = GOLDEN[name]
        result = run_experiment(config, workers=workers)
        assert hashlib.sha256(write_samples_csv(result)).hexdigest() == samples_sha
        assert hashlib.sha256(write_stats_csv(result.time_series)).hexdigest() == stats_sha

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_small_chunks_reuse_the_draw_buffer(self, name, monkeypatch):
        # a serial run draws every chunk into one buffer; with chunks of 8
        # and 9 rows, some shorter chunk fills a leading slice of the buffer
        # after a longer one filled all of it
        config, samples_sha, stats_sha = GOLDEN[name]
        monkeypatch.setattr(montecarlo, "_MAX_CHUNK", 9)
        sizes = chunk_sizes(config.repetitions, config.steps_n, 1, config.record.stride > 0)
        assert any(s < max(sizes[:i]) for i, s in enumerate(sizes) if i)
        result = run_experiment(config, workers=1)
        assert hashlib.sha256(write_samples_csv(result)).hexdigest() == samples_sha
        assert hashlib.sha256(write_stats_csv(result.time_series)).hexdigest() == stats_sha

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_output_bytes_with_helpers_forced(self, name, cpus, monkeypatch):
        # every fill and kernel pass takes a helper thread on 2 CPUs, and
        # none on 1; the pinned bytes do not depend on which
        config, samples_sha, stats_sha = GOLDEN[name]
        force_helpers(monkeypatch, cpus)
        result = run_experiment(config, workers=1)
        assert hashlib.sha256(write_samples_csv(result)).hexdigest() == samples_sha
        assert hashlib.sha256(write_stats_csv(result.time_series)).hexdigest() == stats_sha

    def test_serial_run_with_helpers_then_a_pool(self, monkeypatch):
        # the helper threads of a serial run are joined when it returns, so
        # the pool that forks next inherits none
        config, samples_sha, stats_sha = GOLDEN["frd"]
        force_helpers(monkeypatch, 2)
        baseline = threading.active_count()
        serial = run_experiment(config, workers=1)
        assert threading.active_count() == baseline
        pooled = run_experiment(config, workers=2)
        for result in (serial, pooled):
            assert hashlib.sha256(write_samples_csv(result)).hexdigest() == samples_sha
            assert hashlib.sha256(write_stats_csv(result.time_series)).hexdigest() == stats_sha


class TestConfigValidation:
    def test_scheme_checked(self):
        with pytest.raises(ValueError):
            make_config(scheme="geometric")

    def test_custom_needs_entries(self):
        with pytest.raises(ValueError):
            make_config(scheme="custom")
        with pytest.raises(ValueError):
            make_config(custom_entries=((200.0, 0.0), (0.0, 200.0)))

    def test_budget_positive(self):
        with pytest.raises(InvalidInput, match="reward_budget_K must be finite and > 0, got 0.0"):
            make_config(reward_budget_K=0.0)
        with pytest.raises(InvalidInput, match="reward_budget_K must be finite and > 0, got nan"):
            make_config(reward_budget_K=float("nan"))

    def test_ranges(self):
        with pytest.raises(ValueError):
            make_config(steps_n=-1)
        with pytest.raises(ValueError):
            make_config(repetitions=0)
        with pytest.raises(ValueError):
            make_config(base_seed=-1)
        with pytest.raises(ValueError):
            make_config(record=RecordPolicy(track_nodes=(2,)))

    @pytest.mark.parametrize("track_nodes", [5, 1.5, {0, 1}, iter((0, 1)), np.array(1)],
                             ids=["int", "float", "set", "iterator", "0-d-array"])
    def test_track_nodes_not_a_sequence_rejected(self, track_nodes):
        with pytest.raises(InvalidInput, match="^track_nodes must be a sequence of node indices$"):
            RecordPolicy(track_nodes=track_nodes)

    def test_empty_track_nodes_rejected(self):
        with pytest.raises(InvalidInput, match="track_nodes must name at least one node"):
            RecordPolicy(track_nodes=())
        with pytest.raises(InvalidInput, match="track_nodes must name at least one node"):
            RecordPolicy(stride=5, track_nodes=[])
        assert RecordPolicy(track_nodes=None).track_nodes is None

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(InvalidInput, match=f"workers must be >= 1, got {workers}"):
            run_experiment(make_config(), workers=workers)

    def test_custom_matrix_dimension_checked(self):
        with pytest.raises(InvalidInput, match="custom matrix is 2x2, config has 3 nodes"):
            make_config(
                scheme="custom",
                custom_entries=((200.0, 0.0), (0.0, 200.0)),
                initial_stakes=(10.0, 10.0, 10.0),
            )

    def test_custom_matrix_budget_checked(self):
        message = "custom matrix rows sum to 200.0, reward_budget_K is 100.0"
        with pytest.raises(InvalidInput, match=message):
            make_config(scheme="custom", custom_entries=((150.0, 50.0), (50.0, 150.0)),
                        reward_budget_K=100.0)

    def test_scheme_dispatch(self):
        assert make_config(scheme="constant").reward_matrix().entries.tolist() == [
            [200.0, 0.0], [0.0, 200.0]]
        assert make_config().reward_matrix().entries.tolist() == [[150.0, 50.0], [50.0, 150.0]]
        custom = make_config(scheme="custom", custom_entries=((150.0, 50.0), (50.0, 150.0)))
        assert custom.reward_matrix().entries.tolist() == [[150.0, 50.0], [50.0, 150.0]]

    def test_pickle_leaves_the_matrix_out(self):
        # a pool ships every chunk's configs and results: their pickles stay
        # O(m), and an unpickled config builds the same matrix on first use
        config = make_config(initial_stakes=tuple(range(1, 301)))
        copy = pickle.loads(pickle.dumps(config))
        assert len(pickle.dumps(config)) < 8 * 300 * 10
        assert copy == config
        assert copy.reward_matrix().entries.tobytes() == config.reward_matrix().entries.tobytes()

    @pytest.mark.parametrize("build,message", [
        (lambda: make_config(steps_n=10.0), "steps_n must be an integer, got 10.0"),
        (lambda: make_config(repetitions=2.0), "repetitions must be an integer, got 2.0"),
        (lambda: make_config(base_seed=1.0), "base_seed must be an integer, got 1.0"),
        (lambda: make_config(steps_n=True), "steps_n must be an integer, got True"),
        (lambda: RecordPolicy(stride=2.5), "stride must be an integer, got 2.5"),
        (lambda: RecordPolicy(stride=True), "stride must be an integer, got True"),
        (lambda: RecordPolicy(track_nodes=(1.5,)), "track_nodes entry must be an integer, got 1.5"),
        (lambda: RecordPolicy(track_nodes=(True,)), "track_nodes entry must be an integer, got True"),
    ], ids=["steps_n-float", "repetitions-float", "base_seed-float", "steps_n-bool",
            "stride-float", "stride-bool", "track_nodes-float", "track_nodes-bool"])
    def test_integer_fields_rejected(self, build, message):
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            build()

    def test_numpy_integers_are_stored_as_ints(self):
        from_numpy = make_config(
            steps_n=np.int64(50), repetitions=np.int32(7), base_seed=np.uint64(7),
            record=RecordPolicy(stride=np.int64(10), track_nodes=(np.int8(1),)),
        )
        plain = make_config(steps_n=50, repetitions=7, base_seed=7,
                            record=RecordPolicy(stride=10, track_nodes=(1,)))
        assert from_numpy == plain
        fields = (from_numpy.steps_n, from_numpy.repetitions, from_numpy.base_seed,
                  from_numpy.record.stride, *from_numpy.record.track_nodes)
        assert all(type(x) is int for x in fields)
        assert (run_experiment(from_numpy).final_fractions.tobytes()
                == run_experiment(plain).final_fractions.tobytes())
