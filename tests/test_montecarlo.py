"""Tests for the experiment runner: determinism, merging, parallelism, stats."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stakesim import (
    ExperimentConfig,
    RecordPolicy,
    RunningMoments,
    merge_results,
    predict,
    run_experiment,
)
from stakesim import montecarlo
from stakesim.cli import write_samples_csv, write_stats_csv
from stakesim.errors import InvalidInput, StakeSimError
from stakesim.urn import repetition_draws, run_slots


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
        monkeypatch.setattr("stakesim.montecarlo.ProcessPoolExecutor", SerialPool)
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
    column: (sum(v) * 2**1074, sum(v*v) * 2**2148)."""
    pairs = []
    for col in np.asarray(values).T.tolist():
        s = sum(Fraction(v) for v in col) * 2**1074
        s2 = sum(Fraction(v) ** 2 for v in col) * 2**2148
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


class TestExactSums:
    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_matches_rational_oracle(self, values):
        assert montecarlo._exact_sums(values) == oracle_sums(values)

    def test_edge_values(self):
        values = np.array(EDGE_VALUES)
        both = np.stack([values, -values[::-1]], axis=1)
        assert montecarlo._exact_sums(both) == oracle_sums(both)

    def test_fullest_bucket(self):
        # one bucket of a full chunk, every limb and limb product at its largest
        values = np.full((8192, 1), np.nextafter(1.0, 0.0))
        assert montecarlo._exact_sums(values) == oracle_sums(values)

    def test_wide_block(self):
        values = np.random.Generator(np.random.PCG64(8)).random((50, 3000))
        assert montecarlo._exact_sums(values) == oracle_sums(values)

    def test_row_blocks(self, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(9))
        values = rng.standard_normal((101, 3)) * 10.0 ** rng.integers(-310, 300, (101, 3))
        whole = montecarlo._exact_sums(values)
        monkeypatch.setattr(montecarlo, "_EXACT_ROWS", 7)
        assert montecarlo._exact_sums(values) == whole == oracle_sums(values)

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
}


class TestGoldenBytes:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_output_bytes_pinned(self, name, workers):
        config, samples_sha, stats_sha = GOLDEN[name]
        result = run_experiment(config, workers=workers)
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
