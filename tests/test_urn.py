"""Tests for the core urn process: stake vectors, the slot kernel, trajectories."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stakesim
from stakesim import (
    ExperimentConfig,
    constant_matrix,
    frd_matrix,
    recorded_steps,
    run_experiment,
    stake_vector,
)
from stakesim import urn
from stakesim.schemes import custom_matrix
from stakesim.urn import _BLOCK_STEPS, _BLOCK_URNS, repetition_draws, run_slots
from stakesim.errors import InvalidInput


def start(stakes):
    """A validated stake vector and its total, as every run starts."""
    vector = stake_vector(stakes)
    return vector, float(vector.sum())


def start_fractions(stakes):
    """The fractions a run reports after 0 slots."""
    config = ExperimentConfig(initial_stakes=tuple(stakes), scheme="constant",
                              reward_budget_K=200.0, steps_n=0, repetitions=1, base_seed=0)
    return run_experiment(config).final_fractions[0]


def trajectory(stakes, matrix, n, seed, steps=None):
    """One urn run for n slots on the draws of repetition 0 of `seed`: run_slots
    on a (1, m) array, one call per segment ending at each of `steps`
    (default: n alone).  Returns the (n,) proposers, the stakes after each
    segment and the final total."""
    stakes, total = start(stakes)
    row = np.array(stakes, ndmin=2)
    draws = repetition_draws(seed, 0, 1, n)
    proposers = np.empty((1, n), dtype=np.int64)
    steps = [n] if steps is None else steps
    snapshots = np.empty((len(steps), row.shape[1]))
    done = 0
    for i, step in enumerate(steps):
        _, total = run_slots(
            row, total, matrix, draws[:, done:step], proposers=proposers[:, done:step]
        )
        snapshots[i] = row[0]
        done = step
    return proposers[0], snapshots, total


class TestNewState:
    def test_equal_two_node_start(self):
        stakes, total = start([50, 50])
        assert stakes.tolist() == [50.0, 50.0]
        assert total == 100.0

    def test_single_node(self):
        assert start_fractions([100]).tolist() == [1.0]

    def test_zero_stake_node_is_valid(self):
        assert start_fractions([0, 100])[0] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput, match="need a non-empty 1-D stake vector"):
            stake_vector([])

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput, match="stakes must be finite and >= 0"):
            stake_vector([-1.0, 5.0])

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidInput, match="at least one stake must be positive"):
            stake_vector([0.0, 0.0])

    def test_total_overflow_rejected(self):
        # each stake is finite, but their sum is inf
        with pytest.raises(InvalidInput, match="stakes must sum to a finite total"):
            stake_vector([1e308, 1e308])


class TestFractionalStakes:
    def test_symmetric(self):
        assert start_fractions([50, 50]).tolist() == [0.5, 0.5]

    def test_one_third_split(self):
        fractions = start_fractions([33.33, 66.67])
        assert fractions[0] == pytest.approx(0.3333, abs=1e-4)
        assert fractions[1] == pytest.approx(0.6667, abs=1e-4)

    def test_proportional(self):
        fractions = start_fractions([10, 20, 30, 40])
        np.testing.assert_allclose(fractions, [0.1, 0.2, 0.3, 0.4], rtol=1e-15)

    def test_sums_to_one(self):
        fractions = start_fractions([3.7, 11.1, 0.04, 295.0])
        assert abs(fractions.sum() - 1.0) < 1e-12


def select(stakes, draws):
    """Proposers of one slot run on len(draws) copies of the urn `stakes`,
    copy c taking draws[c]."""
    stakes, total = start(stakes)
    draws = np.asarray(draws, dtype=np.float64).reshape(-1, 1)
    urns = np.tile(stakes, (len(draws), 1))
    proposers = np.empty(draws.shape, dtype=np.int64)
    matrix = constant_matrix(len(stakes), 200.0)
    run_slots(urns, total, matrix, draws, proposers=proposers)
    return proposers[:, 0]


def one_slot(stakes, matrix, draw):
    """(proposer, stakes, total) after one slot of the urn `stakes`."""
    stakes, total = start(stakes)
    row = np.array(stakes, ndmin=2)
    proposers = np.empty((1, 1), dtype=np.int64)
    _, total = run_slots(row, total, matrix, np.array([[draw]]), proposers=proposers)
    return int(proposers[0, 0]), row[0], total


class TestSelectProposer:
    def test_draw_in_first_interval(self):
        assert select([50, 50], [0.3]).tolist() == [0]

    def test_draw_in_second_interval(self):
        assert select([50, 50], [0.75]).tolist() == [1]

    def test_boundary_is_half_open(self):
        # draw exactly at the cumulative boundary belongs to the next node
        assert select([50, 50], [0.5]).tolist() == [1]

    def test_zero_stake_node_never_selected(self):
        assert select([0, 100], [0.0, 0.3, 0.999999]).tolist() == [1, 1, 1]

    def test_float_edge_goes_to_last_positive_node(self):
        # u * total rounds to the float sum of all stakes, so no interval
        # claims the draw: it goes to node 7, the last with positive stake,
        # and not to the empty node 8.  u = 1 - 2**-53 is the largest value
        # Generator.random returns.
        stakes = [523.43472739492, 88.93564024627199, 981.9426931267062,
                  571.3956004557745, 6.408882664310167, 772.6492012253887,
                  978.2657138401457, 589.8700283209505, 0.0]
        u = np.nextafter(1.0, 0.0)
        assert u == 1.0 - 2.0**-53
        assert u * start(stakes)[1] == np.cumsum(stakes)[-1]
        assert select(stakes, [u]).tolist() == [7]

    def test_frequency_matches_fraction(self):
        # 1e6 single-step draws from [30, 70]: node 1 comes up 0.7 +- 0.003
        draws = np.random.Generator(np.random.PCG64(2024)).random(1_000_000)
        hits = int(select([30.0, 70.0], draws).sum())
        assert abs(hits / 1_000_000 - 0.7) <= 0.003


class TestApplyReward:
    def test_shared_reward_row(self):
        matrix = frd_matrix([100, 100], 200)
        assert matrix.entries.tolist() == [[150.0, 50.0], [50.0, 150.0]]
        proposer, stakes, _ = one_slot([100, 100], matrix, 0.25)
        assert proposer == 0
        assert stakes.tolist() == [250.0, 150.0]

    def test_winner_takes_all_row(self):
        proposer, stakes, _ = one_slot([100, 100], constant_matrix(2, 200), 0.75)
        assert proposer == 1
        assert stakes.tolist() == [100.0, 300.0]

    def test_total_grows_by_budget(self):
        for matrix in (frd_matrix([12.5, 87.5], 200), constant_matrix(2, 200)):
            for draw, expected in ((0.05, 0), (0.5, 1)):
                proposer, _, total = one_slot([12.5, 87.5], matrix, draw)
                assert proposer == expected
                assert total == 300.0


class TestSimulateTrajectory:
    """One urn: run_slots on a (1, m) array fed repetition_draws(seed, 0, 1, n)."""

    def test_zero_steps_is_identity(self):
        proposers, stakes, total = trajectory([50, 50], frd_matrix([50, 50], 200), 0, seed=1)
        assert stakes[-1].tolist() == [50.0, 50.0]
        assert total == 100.0
        assert proposers.size == 0

    def test_zero_stake_node_absorbs_under_shared_reward(self):
        # l_0 = 0 and selection probability 0: node 0 stays at 0 forever
        matrix = frd_matrix([0, 100], 200)
        _, stakes, total = trajectory([0, 100], matrix, 500, seed=9)
        assert stakes[-1][0] == 0.0
        assert total == 100.0 + 500 * 200.0

    def test_same_seed_same_path(self):
        matrix = frd_matrix([30, 70], 200)
        p1, s1, _ = trajectory([30, 70], matrix, 300, seed=77)
        p2, s2, _ = trajectory([30, 70], matrix, 300, seed=77)
        assert np.array_equal(p1, p2)
        assert np.array_equal(s1, s2)

    def test_proposer_count_and_snapshots(self):
        matrix = constant_matrix(2, 200)
        steps = recorded_steps(95, 20)
        proposers, snapshots, _ = trajectory([30, 70], matrix, 95, seed=5, steps=steps)
        _, final, _ = trajectory([30, 70], matrix, 95, seed=5)
        assert proposers.shape == (95,)
        assert steps == [0, 20, 40, 60, 80, 95]
        assert np.all(np.diff(steps) > 0)
        assert np.array_equal(snapshots[-1], final[-1])

    def test_snapshots_equal_shorter_runs(self):
        # draws are consumed in order, so the snapshot at step s is the final
        # state of an s-step run from the same seed
        matrix = frd_matrix([30, 70], 200)
        steps = recorded_steps(95, 20)
        proposers, snapshots, _ = trajectory([30, 70], matrix, 95, seed=5, steps=steps)
        for step, snapshot in zip(steps, snapshots):
            shorter, final, _ = trajectory([30, 70], matrix, step, seed=5)
            assert snapshot.tobytes() == final[-1].tobytes()
            assert np.array_equal(proposers[:step], shorter)

    def test_stride_zero_records_final_only(self):
        matrix = constant_matrix(2, 200)
        steps = recorded_steps(12, 0)
        _, snapshots, _ = trajectory([30, 70], matrix, 12, seed=5, steps=steps)
        _, final, _ = trajectory([30, 70], matrix, 12, seed=5)
        assert steps == [12]
        assert np.array_equal(snapshots[0], final[-1])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput, match="matrix is 2x2, state has 3 nodes"):
            urn.simulate_trajectory(urn.new_state([1, 2, 3]), constant_matrix(2, 200), 0, seed=1)


class TestProbeEntry:
    """urn.new_state and urn.simulate_trajectory stay for the benchmark's
    per-slot probe, which calls them in exactly this shape."""

    @pytest.mark.parametrize("scheme", ["frd", "constant", "custom"])
    def test_final_stakes_are_repetition_zero(self, scheme):
        stakes = (10.0, 30.0, 60.0)
        custom = ((120.0, 50.0, 30.0), (20.0, 160.0, 20.0), (40.0, 40.0, 120.0))
        config = ExperimentConfig(
            initial_stakes=stakes, scheme=scheme, reward_budget_K=200.0, steps_n=300,
            repetitions=4, base_seed=8_121,
            custom_entries=custom if scheme == "custom" else None,
        )
        matrix = config.reward_matrix()
        final, total = urn.simulate_trajectory(
            urn.new_state(config.initial_stakes), matrix, config.steps_n, config.base_seed
        )
        fractions = run_experiment(config).final_fractions[0]
        assert (final / total).tobytes() == fractions.tobytes()

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidInput, match="n must be >= 0"):
            urn.simulate_trajectory(urn.new_state([1, 2]), constant_matrix(2, 200), -1, seed=1)


def test_package_surface():
    names = stakesim.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(stakesim, name) is not None, name
    removed = {"Trajectory", "UrnState", "fractional_stakes", "new_state", "simulate_trajectory"}
    assert not removed & set(names)
    assert not [name for name in removed if hasattr(stakesim, name)]


def test_recorded_steps_policy():
    assert recorded_steps(10, 0) == [10]
    assert recorded_steps(10, 4) == [0, 4, 8, 10]
    assert recorded_steps(10, 5) == [0, 5, 10]
    assert recorded_steps(0, 0) == [0]
    assert recorded_steps(0, 3) == [0]
    with pytest.raises(ValueError):
        recorded_steps(-1, 0)


stake_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=6
).filter(lambda s: sum(s) > 0)


class TestProcessInvariants:
    @given(stakes=stake_lists, n=st.integers(0, 64), budget=st.floats(0.5, 500.0))
    @settings(max_examples=200, deadline=None)
    def test_conservation_and_nonnegativity(self, stakes, n, budget):
        initial, initial_total = start(stakes)
        matrix = frd_matrix(stakes, budget)
        _, final, total = trajectory(stakes, matrix, n, seed=0)
        expected_total = initial_total + n * budget
        assert total == pytest.approx(expected_total, rel=1e-12)
        # recomputed sum agrees with the tracked total
        assert float(final[-1].sum()) == pytest.approx(total, rel=1e-9)
        assert np.all(final[-1] >= initial)

    def test_total_is_exact_for_representable_budget(self):
        # integer-valued budget: the tracked total is exactly S(0) + n*K
        _, _, total = trajectory([50.0, 50.0], constant_matrix(2, 200), 1000, seed=3)
        assert total == 100.0 + 1000 * 200.0

    @given(stakes=stake_lists, seed=st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_fractions_sum_to_one(self, stakes, seed):
        _, final, total = trajectory(stakes, frd_matrix(stakes, 200.0), 32, seed=seed)
        assert abs((final[-1] / total).sum() - 1.0) < 1e-12


def reference_slots(stakes, total, matrix, draws):
    """The slot rule one urn and one step at a time: the proposer is the
    first node whose np.cumsum prefix exceeds u * total, or the last node
    with positive stake when none does.  Returns (stakes, proposers, total)."""
    stakes = np.array(stakes, dtype=np.float64)
    proposers = np.empty(draws.shape, dtype=np.int64)
    end_total = total
    for c in range(draws.shape[0]):
        urn_total = total
        for k in range(draws.shape[1]):
            above = np.flatnonzero(draws[c, k] * urn_total < np.cumsum(stakes[c]))
            g = above[0] if above.size else np.flatnonzero(stakes[c] > 0)[-1]
            proposers[c, k] = g
            stakes[c] = stakes[c] + matrix.entries[g]
            urn_total += matrix.row_sum
        end_total = urn_total
    return stakes, proposers, end_total


EDGE_STAKES = [523.43472739492, 88.93564024627199, 981.9426931267062,
               571.3956004557745, 6.408882664310167, 772.6492012253887,
               978.2657138401457, 589.8700283209505, 0.0]
LARGEST_DRAW = 1.0 - 2.0**-53


def some_matrix(scheme, stakes, budget, weights):
    m = len(stakes)
    if scheme == "frd":
        return frd_matrix(stakes, budget)
    if scheme == "constant":
        return constant_matrix(m, budget)
    rows = np.reshape(weights, (m, m)) + np.eye(m)
    return custom_matrix(rows * (budget / rows.sum(axis=1, keepdims=True)))


def check_against_reference(stakes, matrix, draws):
    stakes, initial_total = start(stakes)
    urns = np.tile(stakes, (draws.shape[0], 1))
    ref_stakes, ref_proposers, ref_total = reference_slots(urns, initial_total, matrix, draws)
    proposers = np.empty(draws.shape, dtype=np.int64)
    counts, total = run_slots(urns, initial_total, matrix, draws, proposers=proposers)
    assert urns.tobytes() == ref_stakes.tobytes()
    assert proposers.tobytes() == ref_proposers.tobytes()
    assert counts.tolist() == np.bincount(ref_proposers.ravel(), minlength=len(stakes)).tolist()
    assert total == ref_total


class TestSlotRuleReference:
    """run_slots against the scalar rule, bit for bit, at every width."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_reference(self, data):
        m = data.draw(st.integers(1, 10))
        stake = st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.integers(0, 64).map(float))
        stakes = data.draw(st.lists(stake, min_size=m, max_size=m).filter(lambda s: sum(s) > 0))
        scheme = data.draw(st.sampled_from(["frd", "constant", "custom"]))
        budget = data.draw(st.sampled_from([200.0, 1e-9, 3.0, 0.7]))
        weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=m * m, max_size=m * m))
        matrix = some_matrix(scheme, stakes, budget, weights)
        vector, total = start(stakes)
        # u * total lands on a prefix of the first slot when u = C_j / S is exact
        boundaries = [float(c) / total for c in np.cumsum(vector)]
        special = [0.0, LARGEST_DRAW, *(u for u in boundaries if u < 1.0)]
        draw = st.one_of(st.sampled_from(special), st.floats(0.0, 1.0, exclude_max=True))
        count, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
        draws = data.draw(st.lists(draw, min_size=count * n, max_size=count * n))
        check_against_reference(stakes, matrix, np.reshape(draws, (count, n)))

    @pytest.mark.parametrize("scheme", ["frd", "constant", "custom"])
    def test_float_edge_matches_scalar_reference(self, scheme):
        # the largest draw puts u * total past every prefix in the first
        # slot, and near the last prefix in later ones
        weights = np.linspace(0.0, 1.0, len(EDGE_STAKES) ** 2)
        matrix = some_matrix(scheme, EDGE_STAKES, 1e-9, weights)
        draws = np.full((3, 5), LARGEST_DRAW)
        draws[1, ::2] = 0.0
        check_against_reference(EDGE_STAKES, matrix, draws)

    def test_exact_prefix_boundaries(self):
        # dyadic stakes: u * total equals each prefix exactly, and the draw
        # goes to the next node with positive stake
        stakes = [1.0, 0.0, 2.0, 0.0, 1.0]
        draws = np.array([[0.0, 0.25, 0.75, LARGEST_DRAW]]).T
        assert [0.25 * 4.0, 0.75 * 4.0] == list(np.cumsum(stakes)[[0, 3]])
        assert select(stakes, draws).tolist() == [0, 2, 4, 4]
        for scheme in ("frd", "constant", "custom"):
            matrix = some_matrix(scheme, stakes, 4.0, np.ones(25))
            check_against_reference(stakes, matrix, np.repeat(draws.T, 3, axis=0))

    @pytest.mark.parametrize("scheme", ["frd", "constant", "custom"])
    def test_blocks_and_tiles_match_scalar_reference(self, scheme):
        # more urns than one tile and more slots than two blocks; the largest
        # draw hits the float edge in the first, a middle and the last block
        # (under constant, node 8 keeps zero stake, so the edge rule decides
        # the proposer in all three)
        count, n = _BLOCK_URNS + 3, 2 * _BLOCK_STEPS + 5
        draws = np.random.default_rng(11).random((count, n))
        for step in (0, _BLOCK_STEPS + 7, n - 1):
            draws[::2, step] = LARGEST_DRAW
        weights = np.linspace(0.0, 1.0, len(EDGE_STAKES) ** 2)
        matrix = some_matrix(scheme, EDGE_STAKES, 1e-9, weights)
        check_against_reference(EDGE_STAKES, matrix, draws)

    def test_segments_off_the_block_grid_match_one_call(self):
        count, n = _BLOCK_URNS + 3, 200
        cuts = [0, 1, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 130, n]
        draws = repetition_draws(17, 0, count, n)
        draws[::3, [0, _BLOCK_STEPS, n - 1]] = LARGEST_DRAW
        weights = np.linspace(0.0, 1.0, len(EDGE_STAKES) ** 2)
        for scheme in ("frd", "constant", "custom"):
            matrix = some_matrix(scheme, EDGE_STAKES, 1e-9, weights)
            stakes, initial_total = start(EDGE_STAKES)
            whole = np.tile(stakes, (count, 1))
            whole_proposers = np.empty((count, n), dtype=np.int64)
            counts, total = run_slots(whole, initial_total, matrix, draws, proposers=whole_proposers)
            parts = np.tile(stakes, (count, 1))
            part_proposers = np.empty((count, n), dtype=np.int64)
            summed = np.zeros(len(EDGE_STAKES), dtype=np.int64)
            part_total = initial_total
            for a, b in zip(cuts, cuts[1:]):
                part_counts, part_total = run_slots(
                    parts, part_total, matrix, draws[:, a:b], proposers=part_proposers[:, a:b]
                )
                summed += part_counts
            assert parts.tobytes() == whole.tobytes(), scheme
            assert part_proposers.tobytes() == whole_proposers.tobytes(), scheme
            assert part_total == total, scheme
            assert summed.tolist() == counts.tolist(), scheme
