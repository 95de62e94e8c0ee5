"""Tests for the core urn process: stake vectors, the slot kernel, trajectories."""

import os
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
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
from stakesim import montecarlo, urn
from stakesim.schemes import custom_matrix
from stakesim.urn import (
    _BLOCK_STEPS,
    repetition_draws,
    run_slots,
    slot_snapshots,
)
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
    check_urns_against_reference(np.tile(stakes, (draws.shape[0], 1)), initial_total, matrix, draws)


def check_urns_against_reference(urns, initial_total, matrix, draws):
    """run_slots on (count, m) `urns` equals reference_slots bit for bit;
    returns the reference proposers."""
    ref_stakes, ref_proposers, ref_total = reference_slots(urns, initial_total, matrix, draws)
    proposers = np.empty(draws.shape, dtype=np.int64)
    counts, total = run_slots(urns, initial_total, matrix, draws, proposers=proposers)
    assert urns.tobytes() == ref_stakes.tobytes()
    assert proposers.tobytes() == ref_proposers.tobytes()
    assert counts.tolist() == np.bincount(ref_proposers.ravel(), minlength=urns.shape[1]).tolist()
    assert total == ref_total
    return ref_proposers


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
        # a thousand urns and more slots than two blocks; the largest draw
        # hits the float edge in the first, a middle and the last block
        # (under constant, node 8 keeps zero stake, so the edge rule decides
        # the proposer in all three)
        count, n = 1027, 2 * _BLOCK_STEPS + 5
        draws = np.random.default_rng(11).random((count, n))
        for step in (0, _BLOCK_STEPS + 7, n - 1):
            draws[::2, step] = LARGEST_DRAW
        weights = np.linspace(0.0, 1.0, len(EDGE_STAKES) ** 2)
        matrix = some_matrix(scheme, EDGE_STAKES, 1e-9, weights)
        check_against_reference(EDGE_STAKES, matrix, draws)

    @pytest.mark.parametrize("scheme", ["constant", "custom"])
    def test_edge_check_is_per_block_and_covers_every_urn(self, scheme):
        # urns with an empty node 8 beside urns that moved 5.0 of node 0's
        # stake to node 8, at the same float total: the largest draws on the
        # empty-node-8 urns, in the first block and a later one, go to node 7
        # by the edge rule however much the other urns' node 8 holds.  Under
        # custom, node 8 gains only when node 3 proposes, partway through the
        # first block, so no urn's node 8 is empty from the second block on
        edge, initial_total = start(EDGE_STAKES)
        moved = edge.copy()
        moved[0] -= 5.0
        moved[8] = 5.0
        assert float(moved.sum()) == initial_total
        count, n = 8, 2 * _BLOCK_STEPS + 5
        urns = np.array([edge, moved] * (count // 2))
        draws = np.random.default_rng(23).random((count, n))
        for step in (0, 3, _BLOCK_STEPS + 7, n - 1):
            draws[::2, step] = LARGEST_DRAW
        weights = np.reshape(np.linspace(0.0, 1.0, len(EDGE_STAKES) ** 2), (9, 9))
        weights[:, 8] = 0.0
        weights[3, 8] = 1.0
        matrix = some_matrix(scheme, EDGE_STAKES, 1e-9, weights)
        proposers = check_urns_against_reference(urns, initial_total, matrix, draws)
        assert (proposers[::2, 0] == 7).all()
        if scheme == "custom":
            first_gain = (proposers[::2] == 3).argmax(axis=1)
            assert (0 < first_gain).all() and (first_gain < _BLOCK_STEPS - 1).all()

    def test_segments_off_the_block_grid_match_one_call(self):
        count, n = 1027, 200
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


def unpaid_custom(paid_rows, unpaid, zero):
    """A custom matrix whose first columns are `paid_rows` times 2**-30 and
    whose last `unpaid` columns are all `zero` (0.0 or -0.0)."""
    rows = np.array(paid_rows, dtype=np.float64) * 2.0**-30
    return custom_matrix(np.hstack([rows, np.full((len(rows), unpaid), zero)]))


# the first 4 - unpaid columns of a 4-node matrix, each row summing to 8
PAID_ROWS = {1: [[5, 2, 1], [1, 6, 1], [2, 2, 4], [3, 3, 2]],
             2: [[5, 3], [2, 6], [4, 4], [1, 7]]}


class TestUnpaidNodes:
    """A trailing node that every row pays +0.0 and that holds stake in
    every urn is never gathered or added; the kernel equals the scalar rule
    bit for bit whether it skips such nodes or not."""

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("tail", ["stake", "empty", "negative_zero", "mixed"])
    @pytest.mark.parametrize("unpaid", [1, 2])
    def test_matches_scalar_reference(self, zero, tail, unpaid):
        # skipped only with +0.0 columns and a tail holding stake in every
        # urn; an empty tail keeps the edge check on, and a -0.0 stake turns
        # +0.0 when paid +0.0, so a skip would show there
        matrix = unpaid_custom(PAID_ROWS[unpaid], unpaid, zero)
        paid = np.array(EDGE_STAKES[:4 - unpaid])
        stake = {"stake": 7.5, "empty": 0.0, "negative_zero": -0.0, "mixed": 7.5}[tail]
        urns = np.tile(np.append(paid, [stake] * unpaid), (6, 1))
        if tail == "mixed":
            urns[::3, -unpaid:] = 0.0
        total = float(paid.sum()) + (stake > 0) * unpaid * stake
        draws = np.random.default_rng(unpaid).random((6, _BLOCK_STEPS + 9))
        draws[1::2, [0, 5, _BLOCK_STEPS + 3]] = LARGEST_DRAW
        proposers = check_urns_against_reference(urns, total, matrix, draws)
        # an unpaid node that holds stake still proposes
        assert proposers.max() == (3 if stake > 0 else 3 - unpaid)

    def test_groups_skip_only_a_node_no_matrix_pays(self):
        paid = [*EDGE_STAKES[:3], 7.5]
        unpaid = unpaid_custom(PAID_ROWS[1], 1, 0.0)
        paying = some_matrix("constant", paid, unpaid.row_sum, None)
        n = _BLOCK_STEPS + 9
        draws = np.random.default_rng(4).random((5, n))
        for matrices in ([unpaid, unpaid], [unpaid, paying], [paying, unpaid]):
            check_groups_against_single_calls(paid, matrices, draws, [0, 9, n - 5, n])
        check_against_reference(paid, unpaid, draws)


def integer_custom(weights, scale):
    """A custom matrix of small integers times a power of two: every row sums
    exactly to the same budget, so it can share a row sum with frd and
    constant matrices at that budget."""
    rows = np.array(weights, dtype=np.float64)
    np.fill_diagonal(rows, 0.0)
    rows[np.diag_indices(len(rows))] = rows.sum(axis=1).max() + 1.0 - rows.sum(axis=1)
    return custom_matrix(rows * scale)


def grouped_matrices(schemes, stakes, custom):
    """One matrix per scheme, all at the custom matrix's row sum."""
    budget = custom.row_sum
    return [custom if s == "custom" else some_matrix(s, stakes, budget, None) for s in schemes]


def edge_slots(stakes, matrices, draws):
    """(urns, n) flags: the slots whose draw the float-edge rule decides in
    a grouped run, those where the running sum of the stakes in node order
    is at most draw * total."""
    vector, total = start(stakes)
    count, n = draws.shape
    urns = np.tile(vector, (len(matrices) * count, 1))
    fired = []
    for step, at, columns in slot_snapshots(urns, total, matrices, draws, range(n)):
        sums = np.add.accumulate(columns, axis=0)[-1]
        fired.append(sums <= np.tile(draws[:, step], len(matrices)) * at)
    return np.array(fired).T


def check_groups_against_single_calls(stakes, matrices, draws, cuts=None):
    """run_slots over len(matrices) groups of urns, in one call per column
    slice between `cuts`, and one slot_snapshots pass stopping at the cuts,
    equal one whole call per matrix, bit for bit: stakes, proposers, counts
    and total.  Each group's counts are the bincount of its proposers."""
    vector, initial_total = start(stakes)
    count, n = draws.shape
    groups = len(matrices)
    cuts = [0, n] if cuts is None else cuts
    urns = np.tile(vector, (groups * count, 1))
    proposers = np.empty((groups * count, n), dtype=np.int64)
    counts = np.zeros((groups, len(vector)), dtype=np.int64)
    total = initial_total
    for a, b in zip(cuts, cuts[1:]):
        part_counts, total = run_slots(urns, total, matrices, draws[:, a:b],
                                       proposers=proposers[:, a:b])
        counts += part_counts
    passed = np.tile(vector, (groups * count, 1))
    pass_proposers = np.empty_like(proposers)
    _, pass_counts, pass_total = one_pass(passed, initial_total, matrices, draws,
                                          cuts[1:-1], pass_proposers)
    assert passed.tobytes() == urns.tobytes()
    assert pass_proposers.tobytes() == proposers.tobytes()
    assert pass_counts.tolist() == counts.tolist()
    assert pass_total == total
    for g, matrix in enumerate(matrices):
        single = np.tile(vector, (count, 1))
        single_proposers = np.empty((count, n), dtype=np.int64)
        single_counts, single_total = run_slots(single, initial_total, matrix, draws,
                                                proposers=single_proposers)
        rows = slice(g * count, (g + 1) * count)
        assert urns[rows].tobytes() == single.tobytes(), g
        assert proposers[rows].tobytes() == single_proposers.tobytes(), g
        assert counts[g].tolist() == single_counts.tolist(), g
        assert counts[g].tolist() == np.bincount(proposers[rows].ravel(),
                                                 minlength=len(vector)).tolist(), g
        assert total == single_total, g
    return proposers


class TestGroupedSlots:
    """run_slots on G groups of urns, one per matrix, over one set of draws."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_one_call_per_matrix(self, data):
        m = data.draw(st.sampled_from([1, 2, 3, 10]))
        groups = data.draw(st.integers(1, 3))
        stake = st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.integers(0, 64).map(float))
        stakes = data.draw(st.lists(stake, min_size=m, max_size=m).filter(lambda s: sum(s) > 0))
        weights = data.draw(st.lists(st.integers(0, 5), min_size=m * m, max_size=m * m))
        scale = data.draw(st.sampled_from([2.0**-30, 0.25, 1.0, 8.0]))
        custom = integer_custom(np.reshape(weights, (m, m)), scale)
        schemes = data.draw(st.lists(st.sampled_from(["frd", "constant", "custom"]),
                                     min_size=groups, max_size=groups))
        vector, total = start(stakes)
        boundaries = [float(c) / total for c in np.cumsum(vector)]
        special = [0.0, LARGEST_DRAW, *(u for u in boundaries if u < 1.0)]
        draw = st.one_of(st.sampled_from(special), st.floats(0.0, 1.0, exclude_max=True))
        count = data.draw(st.integers(1, 4))
        # short runs draw every slot; runs that cross the block grid draw
        # from a seeded generator and place some special draws
        n = data.draw(st.one_of(st.integers(1, 6),
                                st.sampled_from([_BLOCK_STEPS - 1, _BLOCK_STEPS + 1, 130])))
        if n <= 6:
            draws = np.reshape(data.draw(st.lists(draw, min_size=count * n,
                                                  max_size=count * n)), (count, n))
        else:
            draws = np.random.default_rng(data.draw(st.integers(0, 2**32))).random((count, n))
            cells = st.tuples(st.integers(0, count - 1), st.integers(0, n - 1), draw)
            for c, k, u in data.draw(st.lists(cells, max_size=12)):
                draws[c, k] = u
        cuts = sorted(set(data.draw(st.lists(st.integers(1, n), max_size=3))) - {n})
        check_groups_against_single_calls(stakes, grouped_matrices(schemes, stakes, custom),
                                          draws, [0, *cuts, n])

    @pytest.mark.parametrize("groups", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 10])
    def test_block_tallies_count_the_proposers(self, groups, m):
        # node m-1 starts empty (but at m = 1); from m = 3 on, the largest
        # draws, placed mid-block, meet a running sum that rounds below the
        # total in some urns, and the edge rule moves them off node m-1 (at
        # m = 10 node 8 is empty too); the slices and the stops fall off the
        # block grid
        stakes = {1: [5.0], 10: [*EDGE_STAKES, 0.0]}.get(m, [*EDGE_STAKES[:m - 1], 0.0])
        weights = np.ones((m, m))
        weights[:, -1] = 0.0
        matrices = grouped_matrices(["frd", "constant", "custom"][:groups], stakes,
                                    integer_custom(weights, 2.0**-30))
        count, n = 5, 2 * _BLOCK_STEPS + 9
        draws = np.random.default_rng(m * 10 + groups).random((count, n))
        draws[::2, 8:60] = LARGEST_DRAW
        check_groups_against_single_calls(stakes, matrices, draws,
                                          [0, 7, _BLOCK_STEPS + 2, n])
        assert edge_slots(stakes, matrices, draws)[:, 8:60].any() == (m >= 3)

    def test_zero_stake_last_node_across_blocks_and_slices(self):
        # EDGE_STAKES' node 8 is empty: the largest draws go to node 7 by the
        # edge rule, in the first, a middle and the last block, in every
        # group; the grouped calls stop off the block grid
        count, n = 1027, 2 * _BLOCK_STEPS + 5
        draws = np.random.default_rng(31).random((count, n))
        for step in (0, _BLOCK_STEPS + 7, n - 1):
            draws[::2, step] = LARGEST_DRAW
        weights = np.zeros((9, 9))
        weights[3, :8] = 1.0  # under custom, node 8 gains nothing
        custom = integer_custom(weights, 2.0**-30)
        matrices = grouped_matrices(["constant", "frd", "custom"], EDGE_STAKES, custom)
        cuts = [0, 1, _BLOCK_STEPS - 1, _BLOCK_STEPS + 1, 2 * _BLOCK_STEPS + 2, n]
        proposers = check_groups_against_single_calls(EDGE_STAKES, matrices, draws, cuts)
        assert (proposers.reshape(3, count, n)[:, ::2, 0] == 7).all()

    def test_one_node_two_groups(self):
        # no mask runs at m = 1, so the group offset must not pile up
        custom = integer_custom([[0]], 1.0)
        matrices = [custom, constant_matrix(1, custom.row_sum)]
        draws = np.random.default_rng(5).random((3, _BLOCK_STEPS + 9))
        proposers = check_groups_against_single_calls([7.0], matrices, draws)
        assert (proposers == 0).all()

    def test_more_nodes_than_a_byte_indexes(self):
        # m = 300 needs a 16-bit proposer index
        stakes = np.random.default_rng(8).random(300).tolist()
        weights = np.random.default_rng(9).integers(0, 3, (300, 300))
        custom = integer_custom(weights, 1.0)
        matrices = grouped_matrices(["frd", "custom", "constant"], stakes, custom)
        draws = np.random.default_rng(10).random((4, _BLOCK_STEPS + 6))
        draws[:, -1] = LARGEST_DRAW
        proposers = check_groups_against_single_calls(stakes, matrices, draws)
        assert proposers.max() > 255

    @pytest.mark.parametrize("m, groups", [(128, 2), (129, 2), (2, 128), (2, 129)])
    def test_reward_index_past_a_byte(self, m, groups):
        # G * m - 1 at 255, where the picks and offsets are one byte, and at
        # 257, where they widen to two though the proposer fits one; the
        # largest draws send the last group's urns to index G * m - 1
        stakes = np.random.default_rng(m + groups).random(m).tolist()
        weights = np.random.default_rng(11).integers(0, 3, (m, m))
        custom = integer_custom(weights, 1.0)
        matrices = grouped_matrices((["frd", "custom", "constant"] * groups)[:groups],
                                    stakes, custom)
        draws = np.random.default_rng(12).random((3, _BLOCK_STEPS + 6))
        draws[:, -1] = LARGEST_DRAW
        proposers = check_groups_against_single_calls(stakes, matrices, draws, [0, 5, 70])
        assert (proposers[-3:, -1] == m - 1).all()

    def test_row_sums_must_match(self):
        stakes, total = start([50.0, 50.0])
        draws = np.zeros((2, 3))
        matrices = [frd_matrix([50.0, 50.0], 200.0), constant_matrix(2, 100.0)]
        with pytest.raises(InvalidInput, match="the reward matrices must share one row sum"):
            run_slots(np.tile(stakes, (4, 1)), total, matrices, draws)

    def test_urn_rows_must_fill_the_groups(self):
        stakes, total = start([50.0, 50.0])
        matrices = [frd_matrix([50.0, 50.0], 200.0), constant_matrix(2, 200.0)]
        with pytest.raises(InvalidInput, match="3 urns for 2 groups of 2 draws rows"):
            run_slots(np.tile(stakes, (3, 1)), total, matrices, np.zeros((2, 3)))


def segment_reference(urns, total, matrices, draws, stops, proposers):
    """The recorded run as one run_slots call per segment between `stops`,
    then one call for the slots after the last stop.  Returns the (step,
    total, node-major stakes) at each stop, the counts and the final total."""
    snapshots = []
    counts = 0
    done = 0
    for step in stops:
        part, total = run_slots(urns, total, matrices, draws[:, done:step],
                                proposers=proposers[:, done:step])
        counts = counts + part
        done = step
        snapshots.append((step, total, urns.T.copy()))
    part, total = run_slots(urns, total, matrices, draws[:, done:],
                            proposers=proposers[:, done:])
    return snapshots, counts + part, total


def one_pass(urns, total, matrices, draws, stops, proposers):
    """slot_snapshots drained: the same triple as segment_reference."""
    kernel = slot_snapshots(urns, total, matrices, draws, stops, proposers=proposers)
    snapshots = []
    while True:
        try:
            step, at, columns = next(kernel)
        except StopIteration as end:
            counts, total = end.value
            return snapshots, counts, total
        assert columns.shape == urns.T.shape and columns.flags.c_contiguous
        snapshots.append((step, at, columns.copy()))


@st.composite
def snapshot_cases(draw):
    """A recorded kernel pass: stakes, budget, schemes, horizon, stops, urns
    per group, the draws' seed and the tracked nodes."""
    m = draw(st.integers(1, 4))
    stake = st.one_of(st.floats(0.0, 1e6), st.integers(0, 64).map(float))
    stakes = draw(st.lists(stake, min_size=m, max_size=m))
    if draw(st.booleans()):
        stakes[-1] = 0.0  # under constant, node m-1 stays empty: the edge pass runs
    if sum(stakes) <= 0:
        stakes[0] = 1.0
    budget = draw(st.sampled_from([200.0, 3.0, 1e-9]))
    schemes = draw(st.sampled_from([["constant"], ["frd"], ["constant", "frd"]]))
    n = draw(st.one_of(st.sampled_from([0, 1, 63, 64, 65, 128, 130]), st.integers(0, 200)))
    stride = draw(st.one_of(st.sampled_from([1, 7, 63, 64, 65]), st.integers(n + 1, n + 100)))
    # step 0 and the final step are stops or not; with neither, there are none
    stops = recorded_steps(n, stride)[draw(st.integers(0, 2)):]
    return dict(stakes=stakes, budget=budget, schemes=schemes, n=n, stops=stops,
                count=draw(st.integers(1, 40)), draw_seed=draw(st.integers(0, 2**32)),
                track=draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True)))


class TestSlotSnapshots:
    """One slot_snapshots pass stopping at the recorded steps against the
    per-segment run_slots loop, bit for bit."""

    @seed(20261019)
    @given(case=snapshot_cases())
    # the case that broke a version of the exact rule that did not check the
    # urns' sums: the segment calls cross 2**18 in total stake, and the last
    # one runs no slot
    @example(case=dict(stakes=[1.4938554653781466, 236544.42814033836], budget=200.0,
                       schemes=["constant"], n=128, stops=recorded_steps(128, 1), count=1,
                       draw_seed=0, track=[0]))
    @settings(max_examples=150, deadline=None)
    def test_one_pass_equals_per_segment_calls(self, case):
        stakes, budget, n, count = case["stakes"], case["budget"], case["n"], case["count"]
        stops, track = case["stops"], case["track"]
        m = len(stakes)
        matrices = [constant_matrix(m, budget) if scheme == "constant" else
                    frd_matrix(stakes, budget) for scheme in case["schemes"]]
        groups = len(matrices)
        draws = np.random.default_rng(case["draw_seed"]).random((count, n))
        draws[np.random.default_rng(n).random((count, n)) < 0.05] = LARGEST_DRAW
        vector, total = start(stakes)
        runs = []
        for run in (segment_reference, one_pass):
            urns = np.tile(vector, (groups * count, 1))
            proposers = np.empty((groups * count, n), dtype=np.int64)
            runs.append((urns, proposers, run(urns, total, matrices, draws, stops, proposers)))
        (ref_urns, ref_proposers, (ref_snaps, ref_counts, ref_total)), \
            (urns, proposers, (snaps, counts, total)) = runs
        assert urns.tobytes() == ref_urns.tobytes()
        assert proposers.tobytes() == ref_proposers.tobytes()
        assert counts.tolist() == ref_counts.tolist()
        assert total == ref_total
        assert [s[0] for s in snaps] == [s[0] for s in ref_snaps] == list(stops)
        for (_, at, columns), (_, ref_at, ref_columns) in zip(snaps, ref_snaps):
            assert at == ref_at
            assert columns.tobytes() == ref_columns.tobytes()
            # the fractions read from the columns, as a recorded run reads them
            fractions = columns[track, :count]
            fractions /= at
            assert fractions.tobytes() == (ref_columns.T[:count, track] / ref_at).T.tobytes()

    @pytest.mark.parametrize("stops", [[3, 2], [1, 1], [-1], [6], [0, 6]])
    def test_stops_must_increase_within_the_run(self, stops):
        vector, total = start([1.0, 1.0])
        kernel = slot_snapshots(np.tile(vector, (2, 1)), total, frd_matrix([1.0, 1.0], 2.0),
                                np.zeros((2, 5)), stops)
        with pytest.raises(InvalidInput, match=r"^stops must increase within \[0, 5\], got "):
            next(kernel)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_totals_are_one_running_sum(self, cpus, monkeypatch):
        # S(t + 1) = S(t) + K as one float add per slot, across block edges,
        # whatever CPU count a run would see; K = 0.1 is inexact, so the
        # closed form S(0) + t * K rounds differently at some steps
        force_helpers(monkeypatch, cpus)
        budget, n = 0.1, 2 * _BLOCK_STEPS + 5
        vector, total = start([0.15, 0.15])
        expected = [total]
        for _ in range(n):
            expected.append(expected[-1] + budget)
        assert any(at != total + t * budget for t, at in enumerate(expected))
        snaps, _, end = one_pass(np.tile(vector, (4, 1)), total, frd_matrix([0.15, 0.15], budget),
                                 np.random.default_rng(3).random((4, n)), range(n + 1),
                                 np.empty((4, n), dtype=np.int64))
        assert [at.hex() for _, at, _ in snaps] == [at.hex() for at in expected]
        assert end.hex() == expected[-1].hex()

    @seed(20261020)
    @given(case=snapshot_cases())
    @settings(max_examples=60, deadline=None)
    def test_slot_major_draws_equal_row_major(self, case):
        # the kernel on slot-major draws, as runs draw them, and on the same
        # draws row-major; stops on and off the block grid, one or two
        # groups, and the column-slice segment calls of README's trajectory
        # recipe
        stakes, n, count = case["stakes"], case["n"], case["count"]
        m = len(stakes)
        matrices = [constant_matrix(m, case["budget"]) if scheme == "constant" else
                    frd_matrix(stakes, case["budget"]) for scheme in case["schemes"]]
        draws = np.random.default_rng(case["draw_seed"]).random((count, n))
        draws[np.random.default_rng(n).random((count, n)) < 0.05] = LARGEST_DRAW
        slot_major = np.asfortranarray(draws)
        vector, total = start(stakes)
        runs = []
        for layout, run in ((draws, one_pass), (slot_major, one_pass),
                            (slot_major, segment_reference)):
            urns = np.tile(vector, (len(matrices) * count, 1))
            proposers = np.empty((len(matrices) * count, n), dtype=np.int64)
            snaps, counts, end = run(urns, total, matrices, layout, case["stops"], proposers)
            runs.append((urns.tobytes(), proposers.tobytes(), counts.tolist(), end,
                         [(step, at, columns.tobytes()) for step, at, columns in snaps]))
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_draw_blocks_and_slot_blocks_equal_row_major(self, monkeypatch):
        # a thousand urns drawn in blocks of 100 repetitions, and slots past
        # two blocks, read slot-major and row-major
        count, n = 1027, 2 * _BLOCK_STEPS + 5
        monkeypatch.setattr(urn, "_DRAW_BLOCK", 100 * n)
        draws = repetition_draws(29, 0, count, n)
        draws[::3, [0, _BLOCK_STEPS, n - 1]] = LARGEST_DRAW
        matrices = [constant_matrix(len(EDGE_STAKES), 1e-9), frd_matrix(EDGE_STAKES, 1e-9)]
        vector, total = start(EDGE_STAKES)
        runs = []
        for layout in (draws, np.ascontiguousarray(draws)):
            urns = np.tile(vector, (2 * count, 1))
            proposers = np.empty((2 * count, n), dtype=np.int64)
            snaps, counts, end = one_pass(urns, total, matrices, layout,
                                          [1, _BLOCK_STEPS, _BLOCK_STEPS + 1], proposers)
            runs.append((urns.tobytes(), proposers.tobytes(), counts.tolist(), end,
                         [(step, at, columns.tobytes()) for step, at, columns in snaps]))
        assert runs[1] == runs[0]


def force_helpers(patch, cpus):
    """Set the CPU probe of serial runs to `cpus`, and let every chunk's
    draws take a helper thread when there are two, however small: each
    chunk is drawn in two halves, and a run of chunks of two or more
    repetitions draws ahead in halves of them."""
    patch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    patch.setattr(montecarlo, "_SPLIT_DRAWS", 0)
    patch.setattr(montecarlo, "_OVERLAP_URNS", 1)  # a half holds at least one urn


class TestStreamRule:
    """README's Stream rule, stated without numpy's Generator: the draws are
    PCG64's raw 64-bit outputs, each read as (raw >> 11) * 2**-53."""

    @pytest.mark.parametrize("seed,first,count,n", [
        (1, 0, 40, 1000), (2**63 + 5, 17, 33, 77), (0, 0, 1, 1), (2**64 - 1, 3, 5, 0)])
    def test_draws_are_pcg64_raw_bits(self, seed, first, count, n):
        bitgen = np.random.PCG64(seed)
        bitgen.advance(first * n)
        raw = bitgen.random_raw(count * n).reshape(count, n)
        expected = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert repetition_draws(seed, first, count, n).tobytes() == expected.tobytes(), (
            "Generator.random no longer reads PCG64's raw outputs as (raw >> 11) * 2**-53: "
            "README's Stream rule, and every output byte pinned on it, would change")


class TestHelperThread:
    """With two usable CPUs, a serial run draws part of its chunks on a
    helper thread: large chunks in two halves at once, and, when the
    halves of its chunks are large, each next chunk while the kernel runs
    this one.  With one, the same calls run in order on the calling thread.
    Either way the bytes are the same."""

    def test_probe_reads_the_affinity_mask(self):
        # so a run pinned to one CPU (taskset -c 0) selects no helper
        assert montecarlo._usable_cpus() == len(os.sched_getaffinity(0))

    def test_pool_workers_start_no_helper(self):
        # the workers of a process pool already share the CPUs
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(montecarlo._usable_cpus).result(timeout=60) == 1

    def test_probe_without_affinity_counts_the_cpus(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert montecarlo._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert montecarlo._usable_cpus() == 1

    @pytest.mark.parametrize("cpus,threaded", [(1, False), (2, True)])
    def test_selection_follows_the_probe(self, monkeypatch, cpus, threaded):
        force_helpers(monkeypatch, cpus)
        caller = threading.get_ident()
        drawers = set()

        def spy(*args):
            job = urn.draw_job(*args)

            def run():
                drawers.add(threading.get_ident())
                return job()
            return run
        monkeypatch.setattr(montecarlo, "draw_job", spy)
        run_experiment(ExperimentConfig(initial_stakes=(1.0, 3.0), scheme="frd",
                                        reward_budget_K=2.0, steps_n=10, repetitions=40,
                                        base_seed=7))
        assert caller in drawers
        assert (drawers != {caller}) == threaded
        with montecarlo._helper(True) as submit:
            assert submit(threading.get_ident)() != caller
        with montecarlo._helper(False) as submit:
            assert submit(threading.get_ident)() == caller

    @given(seed=st.integers(0, 2**64 - 1), first=st.integers(0, 10**6),
           count=st.one_of(st.sampled_from([1, 127, 128, 129, 257]),
                           st.integers(1, 12).map(lambda k: 2 * k + 1), st.integers(1, 25)),
           n=st.one_of(st.sampled_from([0, 1]), st.integers(0, 70)),
           rows=st.sampled_from([None, 1, 2, 128]), into_buffer=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_split_fill_equals_one_generator(self, seed, first, count, n, rows, into_buffer):
        # the fill is split into blocks of `rows` repetitions (None: the
        # default block, which holds every repetition at these sizes), and
        # `out` is a slice of a larger slot-major buffer
        bitgen = np.random.PCG64(seed)
        bitgen.advance(first * n)
        expected = np.random.Generator(bitgen).random((count, n))
        out = np.full((n, count + 2), -1.0).T if into_buffer else None
        with pytest.MonkeyPatch.context() as patch:
            if rows is not None:
                patch.setattr(urn, "_DRAW_BLOCK", rows * n)
            if out is None:
                draws = repetition_draws(seed, first, count, n)
            else:
                draws = urn.draw_job(seed, first, out[1:count + 1])()
        assert draws.shape == (count, n)
        assert n == 0 or draws.strides[0] == 8  # each slot's draws are contiguous
        assert draws.tobytes() == expected.tobytes()
        if out is not None:
            assert draws.base is out.base and (out[[0, -1]] == -1.0).all()

    def test_helper_exception_propagates(self, monkeypatch):
        force_helpers(monkeypatch, 2)
        baseline = threading.active_count()
        with montecarlo._helper(True) as submit:
            handle = submit(int, "not a number")
            with pytest.raises(ValueError, match="invalid literal"):
                handle()

        # 200 repetitions run as two chunks of 100, the second drawn ahead
        def failing(seed, first, out):
            job = urn.draw_job(seed, first, out)

            def run():
                if first == 100 and threading.current_thread() is not threading.main_thread():
                    raise RuntimeError("helper failed")
                return job()
            return run
        monkeypatch.setattr(montecarlo, "draw_job", failing)
        config = ExperimentConfig(initial_stakes=(1.0, 3.0), scheme="frd", reward_budget_K=2.0,
                                  steps_n=3 * _BLOCK_STEPS, repetitions=200, base_seed=5)
        with pytest.raises(RuntimeError, match="helper failed"):
            run_experiment(config)
        assert threading.active_count() == baseline

    def test_closing_early_joins_the_helper(self, monkeypatch):
        # a run whose chunk task raises while the helper draws the next
        # chunk joins the helper before the exception leaves it
        force_helpers(monkeypatch, 2)
        baseline = threading.active_count()
        running = []

        def failing(*args):
            running.append(threading.active_count())
            raise RuntimeError("task failed")
        monkeypatch.setattr(montecarlo, "_chunk_task", failing)
        config = ExperimentConfig(initial_stakes=(1.0, 3.0), scheme="frd", reward_budget_K=2.0,
                                  steps_n=3 * _BLOCK_STEPS, repetitions=200, base_seed=5)
        with pytest.raises(RuntimeError, match="task failed"):
            run_experiment(config)
        assert running == [baseline + 1]  # the run's helper
        assert threading.active_count() == baseline


def exact_answers(monkeypatch):
    """urn._exact_pass' answers from now on, one per kernel pass."""
    answers = []
    real = urn._exact_pass

    def spy(*args):
        answers.append(real(*args))
        return answers[-1]
    monkeypatch.setattr(urn, "_exact_pass", spy)
    return answers


def check_pass_against_reference(urns, total, matrices, draws, stops):
    """One slot_snapshots pass over group-major `urns` equals reference_slots
    run group by group, bit for bit: the stakes, proposers, counts and final
    total, and the total and columns at every stop."""
    count, n = draws.shape
    initial = urns.copy()

    def reference(steps):
        runs = [reference_slots(initial[g * count:(g + 1) * count], total, matrix, draws[:, :steps])
                for g, matrix in enumerate(matrices)]
        return (np.concatenate([run[0] for run in runs]),
                np.concatenate([run[1] for run in runs]), runs[0][2])

    proposers = np.empty((urns.shape[0], n), dtype=np.int64)
    snapshots, counts, end_total = one_pass(urns, total, matrices, draws, stops, proposers)
    ref_stakes, ref_proposers, ref_total = reference(n)
    assert urns.tobytes() == ref_stakes.tobytes()
    assert proposers.tobytes() == ref_proposers.tobytes()
    assert counts.tolist() == [np.bincount(group.ravel(), minlength=urns.shape[1]).tolist()
                               for group in np.split(ref_proposers, len(matrices))]
    assert end_total == ref_total
    assert [step for step, _, _ in snapshots] == list(stops)
    for step, at, columns in snapshots:
        stakes, _, ref_at = reference(step)
        assert at == ref_at
        assert columns.tobytes() == stakes.T.tobytes()


def exact_case(stakes, matrices, total=None, n=2 * _BLOCK_STEPS + 9, count=5):
    """Group-major urns at `stakes`, their total (the stakes' sum unless
    given), draws with some of the largest, and stops on and off the block
    grid."""
    vector, stake_sum = start(stakes)
    draws = np.random.default_rng(len(stakes) + len(matrices)).random((count, n))
    draws[::2, [k for k in (0, 9, _BLOCK_STEPS + 1) if k < n]] = LARGEST_DRAW
    stops = sorted({step for step in (0, 7, _BLOCK_STEPS, _BLOCK_STEPS + 1) if step < n} | {n})
    return (np.tile(vector, (len(matrices) * count, 1)), stake_sum if total is None else total,
            matrices, draws, stops)


# frd pays integers on these stakes at K = 200; a custom matrix and frd on
# dyadic stakes pay multiples of 2**-30; the last stakes sit on a 2**10 grid
DYADIC = integer_custom([[0, 1, 2, 1], [3, 0, 1, 0], [1, 1, 0, 2], [0, 2, 2, 0]], 2.0**-30)
EXACT_RUNS = {
    "m2": ([50.0, 50.0], [frd_matrix([50.0, 50.0], 200.0)]),
    "m2_groups2": ([50.0, 50.0], [constant_matrix(2, 200.0), frd_matrix([50.0, 50.0], 200.0)]),
    "m4": ([10.0, 30.0, 30.0, 30.0], [frd_matrix([10.0, 30.0, 30.0, 30.0], 200.0)]),
    "m4_groups2": ([1.0, 3.0, 2.0, 2.0],
                   [DYADIC, frd_matrix([1.0, 3.0, 2.0, 2.0], DYADIC.row_sum)]),
    "coarse_grid": ([3.0 * 2**60, 2.0**61], [constant_matrix(2, 2.0**58)]),
}


class TestExactPass:
    """On a pass whose every add is exact, the kernel writes a paid node
    m-1 from the total at each stop and at the end instead of adding its
    rewards; the bytes equal the scalar rule's either way."""

    @pytest.mark.parametrize("run", sorted(EXACT_RUNS))
    def test_exact_runs_match_scalar_reference(self, monkeypatch, run):
        answers = exact_answers(monkeypatch)
        check_pass_against_reference(*exact_case(*EXACT_RUNS[run]))
        assert answers == [True]

    @pytest.mark.parametrize("below,exact", [(0, False), (1, True)])
    def test_final_total_at_the_bound(self, monkeypatch, below, exact):
        # integer stakes with an odd one, so the grid is 2**0: the final total
        # 2**53 - below is at the bound 2**53, where the rule is off, or one
        # step below it, where it holds
        n, budget = 2 * _BLOCK_STEPS + 9, 2.0**40
        stakes = [2.0**52 + 1, 2.0**53 - 2.0**52 - 1 - below - n * budget]
        answers = exact_answers(monkeypatch)
        urns, total, matrices, draws, stops = exact_case(stakes, [constant_matrix(2, budget)], n=n)
        assert total + n * budget == 2.0**53 - below
        check_pass_against_reference(urns, total, matrices, draws, stops)
        assert answers == [exact]

    @pytest.mark.parametrize("n", [0, 9])
    def test_total_not_the_stakes_sum(self, monkeypatch, n):
        # an analytic total that rounded apart from the stakes' sum: node 1
        # is not the total less node 0, so the rule is off
        answers = exact_answers(monkeypatch)
        check_pass_against_reference(*exact_case([3.0, 5.0], [constant_matrix(2, 2.0)],
                                                 total=10.0, n=n))
        assert answers == [False]

    def test_negative_values_are_not_exact(self):
        # multiples of the grid whose sums match, but with a negative stake,
        # or a reward row whose 2**60 and -2**60 cancel, so that adds round
        stakes = np.array([[1.0], [1.0], [1.0]])  # node-major: one urn
        constant = np.eye(3) * 2.0  # rewards[j, p]: node j's reward when p proposes
        assert urn._exact_pass(stakes, 3.0, constant, 2.0, 1) is True
        assert urn._exact_pass(np.array([[-1.0], [2.0], [2.0]]), 3.0, constant, 2.0, 1) is False
        cancelling = np.array([[2.0**60, 0.0, 0.0], [-2.0**60, 0.0, 0.0], [2.0, 2.0, 2.0]])
        assert urn._exact_pass(stakes, 3.0, cancelling, 2.0, 1) is False

    def test_row_past_the_row_sum(self, monkeypatch):
        # custom_matrix accepts a row 2**-40 past the row sum, within its
        # tolerance; a stake total that drifts from the analytic one turns
        # the rule off
        matrix = custom_matrix([[1.0, 1.0], [1.0, 1.0 + 2.0**-40]])
        answers = exact_answers(monkeypatch)
        check_pass_against_reference(*exact_case([3.0, 5.0], [matrix]))
        assert answers == [False]


class _Counted:
    """A numpy function that tallies its calls by name."""

    def __init__(self, function, name, tally):
        self.function, self.name, self.tally = function, name, tally

    def __call__(self, *args, **kwargs):
        self.tally[self.name] += 1
        return self.function(*args, **kwargs)

    def __getattr__(self, attribute):
        return getattr(self.function, attribute)


class _CountedTakes(np.ndarray):
    """The reward table: tallies its take calls and the elements they gather."""

    tally: Counter = Counter()

    def take(self, *args, **kwargs):
        gathered = super().take(*args, **kwargs)
        self.tally["take"] += 1
        self.tally["gathered"] += gathered.size
        return gathered


class _CountingNumpy:
    """numpy as slot_snapshots sees it through stakesim.urn.np, every call
    counted; the reward table, the one array concatenate makes, counts its
    takes."""

    def __init__(self, tally):
        self._tally = tally

    def __getattr__(self, name):
        value = getattr(np, name)
        if name == "concatenate":
            return lambda *args, **kwargs: np.concatenate(*args, **kwargs).view(_CountedTakes)
        if callable(value) and not isinstance(value, type):
            return _Counted(value, name, self._tally)
        return value


def slot_costs(monkeypatch, stakes, matrices, count=5):
    """Numpy calls per slot, by name, and the reward elements take gathers
    per slot: a one-block pass less one a slot shorter, both one block, so
    every per-block and per-call cost cancels."""
    vector, total = start(stakes)
    passes = []
    for n in (_BLOCK_STEPS, _BLOCK_STEPS - 1):
        tally = Counter()
        draws = np.random.default_rng(0).random((count, n))
        with monkeypatch.context() as patch:
            patch.setattr(urn, "np", _CountingNumpy(tally))
            patch.setattr(_CountedTakes, "tally", tally)
            run_slots(np.tile(vector, (len(matrices) * count, 1)), total, matrices, draws)
        passes.append(tally)
    longer, shorter = passes
    longer.subtract(shorter)
    return {name: calls for name, calls in longer.items() if calls}


class TestSlotCost:
    """The kernel's numpy calls per slot and the rewards it gathers per slot
    at fixed shapes, pinned: a per-slot call added, or node m-1's gather
    back on an exact run, fails here, not in a noisy benchmark."""

    def test_two_nodes_exact(self, monkeypatch):
        # node 1 is written from the total: one row of rewards per urn
        costs = slot_costs(monkeypatch, [50.0, 50.0], [frd_matrix([50.0, 50.0], 200.0)])
        assert costs == {"less_equal": 1, "copyto": 1, "take": 1, "add": 1, "gathered": 5}

    def test_two_nodes_inexact(self, monkeypatch):
        costs = slot_costs(monkeypatch, [0.1, 0.2], [frd_matrix([0.1, 0.2], 200.0)])
        assert costs == {"less_equal": 1, "copyto": 1, "take": 1, "add": 1, "gathered": 10}

    def test_two_nodes_two_groups(self, monkeypatch):
        # the group offsets make the index in one add; no copy
        matrices = [constant_matrix(2, 200.0), frd_matrix([50.0, 50.0], 200.0)]
        costs = slot_costs(monkeypatch, [50.0, 50.0], matrices)
        assert costs == {"less_equal": 1, "take": 1, "add": 2, "gathered": 10}

    def test_ten_nodes(self, monkeypatch):
        # 8 running-sum adds and 8 mask adds for masks 1 .. 8, one stake add
        stakes = [10.0] * 10
        costs = slot_costs(monkeypatch, stakes, [frd_matrix(stakes, 200.0)])
        assert costs == {"less_equal": 9, "copyto": 1, "take": 1, "add": 17, "gathered": 45}
