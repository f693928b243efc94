import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsde.de import (
    ParameterMemory,
    Strategy,
    StrategyStats,
    current_to_pbest_batch,
    current_to_rand_batch,
    _repair,
    _three_distinct,
    improvement_weights,
    make_trials,
    pbest_pool_size,
    rand_1_bin_batch,
    select_strategies,
    strategy_rates,
)
from ppsde.problems import Problem

from reference import fold_reference, trials_reference


def box_problem(dim=3, lower=-5.0, upper=5.0):
    return Problem(dim=dim, lower=lower, upper=upper,
                   objective=lambda xs: (xs**2).sum(axis=-1), name="box")


class _Draws:
    """A generator stub: the given Cauchy draws in order, then 0.0 for every draw."""

    def __init__(self, cauchy=()):
        self._cauchy = list(cauchy)

    def random(self, size):
        return np.zeros(size)

    standard_normal = random

    def standard_cauchy(self, size):
        return np.array([self._cauchy.pop(0) if self._cauchy else 0.0 for _ in range(size)])


class TestImprovementWeights:
    def test_proportional_to_deltas(self):
        np.testing.assert_allclose(improvement_weights([1.0, 3.0]), [0.25, 0.75])

    def test_all_zero_falls_back_to_uniform(self):
        np.testing.assert_allclose(improvement_weights([0.0, 0.0, 0.0]), [1 / 3] * 3)

    def test_sum_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = improvement_weights(rng.exponential(1.0, rng.integers(1, 20)))
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            improvement_weights([])
        with pytest.raises(ValueError):
            improvement_weights([1.0, -0.1])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            improvement_weights([np.nan, 1.0])

    def test_infinite_improvements_share_the_weight(self):
        np.testing.assert_array_equal(improvement_weights([np.inf, 2.0, np.inf]),
                                      [0.5, 0.0, 0.5])
        # finite improvements whose sum overflows keep their proportions
        np.testing.assert_array_equal(improvement_weights([1e308, 1e308, 0.0]),
                                      [0.5, 0.5, 0.0])
        np.testing.assert_array_equal(improvement_weights([1e308, 5e307]),
                                      improvement_weights([2.0, 1.0]))


class TestParameterMemory:
    def test_initial_state(self):
        mem = ParameterMemory(length=5)
        assert mem.f_memory.shape == (3, 5)
        np.testing.assert_array_equal(mem.f_memory, 0.5)
        np.testing.assert_array_equal(mem.cr_memory, 0.5)
        np.testing.assert_array_equal(mem.pointer, 0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            ParameterMemory(length=0)

    def test_weighted_update_by_hand(self):
        # successes (F, CR, delta) = (0.5, 0.2, 1) and (1.0, 0.4, 3)
        # weights (0.25, 0.75); Lehmer mean 0.8125 / 0.875 = 13/14; CR mean 0.35
        mem = ParameterMemory(length=5)
        mem.record_success(Strategy.RAND_1_BIN, f=0.5, cr=0.2, delta=1.0)
        mem.record_success(Strategy.RAND_1_BIN, f=1.0, cr=0.4, delta=3.0)
        mem.update_memory(Strategy.RAND_1_BIN)
        assert mem.f_memory[0, 0] == pytest.approx(13 / 14, abs=1e-15)
        assert mem.cr_memory[0, 0] == pytest.approx(0.35, abs=1e-15)
        assert mem.pointer[0] == 1
        # untouched cells and strategies keep the initial value
        np.testing.assert_array_equal(mem.f_memory[0, 1:], 0.5)
        np.testing.assert_array_equal(mem.f_memory[1:], 0.5)
        assert mem.pointer[1] == 0 and mem.pointer[2] == 0

    def test_zero_delta_successes_use_uniform_weights(self):
        mem = ParameterMemory(length=5)
        mem.record_success(Strategy.CURRENT_TO_RAND, f=0.4, cr=0.1, delta=0.0)
        mem.record_success(Strategy.CURRENT_TO_RAND, f=0.8, cr=0.3, delta=0.0)
        mem.update_memory(Strategy.CURRENT_TO_RAND)
        # Lehmer of (0.4, 0.8) at equal weight: 0.4 / 0.6
        assert mem.f_memory[2, 0] == pytest.approx(2 / 3, abs=1e-15)
        assert mem.cr_memory[2, 0] == pytest.approx(0.2, abs=1e-15)

    def test_empty_generation_leaves_memory_alone(self):
        mem = ParameterMemory(length=3)
        mem.update_memory(Strategy.RAND_1_BIN)
        np.testing.assert_array_equal(mem.f_memory, 0.5)
        assert mem.pointer[0] == 0

    def test_pointer_wraps(self):
        mem = ParameterMemory(length=2)
        for expected in (1, 0, 1):
            mem.record_success(Strategy.CURRENT_TO_PBEST, f=0.6, cr=0.5, delta=1.0)
            mem.update_memory(Strategy.CURRENT_TO_PBEST)
            assert mem.pointer[1] == expected

    def test_success_sets_cleared_even_without_update(self):
        mem = ParameterMemory(length=2)
        mem.record_success(Strategy.RAND_1_BIN, f=0.9, cr=0.9, delta=1.0)
        mem.update_memory(Strategy.RAND_1_BIN)
        before = mem.f_memory[0].copy()
        mem.update_memory(Strategy.RAND_1_BIN)  # nothing new recorded
        np.testing.assert_array_equal(mem.f_memory[0], before)

    @settings(max_examples=60, deadline=None)
    @given(successes=st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 1.0),
                                        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e3)),
                              min_size=1, max_size=30),
           cuts=st.lists(st.integers(0, 30), max_size=4),
           strategy=st.sampled_from(Strategy))
    def test_array_records_match_scalar_records_bit_for_bit(self, successes, cuts, strategy):
        f, cr, delta = (np.array(col) for col in zip(*successes))
        one_by_one, chunked = ParameterMemory(length=3), ParameterMemory(length=3)
        for generation in range(2):
            for i in range(len(f)):
                one_by_one.record_success(strategy, f[i], cr[i], delta[i])
            for part in np.split(np.arange(len(f)), sorted(set(cuts))):
                chunked.record_success(strategy, f[part], cr[part], delta[part])
            one_by_one.update_memory(strategy)
            chunked.update_memory(strategy)
        for name in ("f_memory", "cr_memory", "pointer"):
            assert getattr(one_by_one, name).tobytes() == getattr(chunked, name).tobytes()

    def test_misaligned_successes_rejected(self):
        with pytest.raises(ValueError):
            ParameterMemory().record_success(Strategy.RAND_1_BIN, [0.5, 0.6], [0.5], [1.0, 1.0])

    def test_recorded_arrays_are_copies(self):
        f, cr, delta = np.array([0.5, 1.0]), np.array([0.2, 0.4]), np.array([1.0, 3.0])
        changed, reference = ParameterMemory(length=2), ParameterMemory(length=2)
        changed.record_success(Strategy.RAND_1_BIN, f, cr, delta)
        reference.record_success(Strategy.RAND_1_BIN, f.copy(), cr.copy(), delta.copy())
        # the caller reuses its buffers, here with a negative improvement
        f[:], cr[:], delta[:] = 0.9, 0.9, -5.0
        changed.update_memory(Strategy.RAND_1_BIN)
        reference.update_memory(Strategy.RAND_1_BIN)
        for name in ("f_memory", "cr_memory", "pointer"):
            assert getattr(changed, name).tobytes() == getattr(reference, name).tobytes()
        assert changed.f_memory[0, 0] == pytest.approx((1 * 0.25 + 3 * 1.0) / (1 * 0.5 + 3 * 1.0))

    def test_scalar_mixes_with_one_element_arrays(self):
        mixed, scalars = ParameterMemory(length=2), ParameterMemory(length=2)
        mixed.record_success(Strategy.CURRENT_TO_PBEST, 0.5, [0.3], [1.0])
        scalars.record_success(Strategy.CURRENT_TO_PBEST, 0.5, 0.3, 1.0)
        mixed.update_memory(Strategy.CURRENT_TO_PBEST)
        scalars.update_memory(Strategy.CURRENT_TO_PBEST)
        assert mixed.f_memory.tobytes() == scalars.f_memory.tobytes()
        assert mixed.cr_memory.tobytes() == scalars.cr_memory.tobytes()

    def test_per_row_strategies_sample_their_own_cells(self):
        mem = ParameterMemory(length=2)
        mem.f_memory[:] = [[0.1], [0.5], [0.9]]
        mem.cr_memory[:] = [[0.0], [0.5], [1.0]]
        strategies = np.repeat([0, 1, 2], 4000)
        f, cr = mem.sample_parameters_many(strategies, strategies.size, np.random.default_rng(5))
        # CR is normal around the cell, so its median is the cell even where
        # truncation piles draws on 0 or 1
        medians = [np.median(cr[strategies == s]) for s in range(3)]
        np.testing.assert_allclose(medians, [0.0, 0.5, 1.0], atol=0.01)
        f_medians = [np.median(f[strategies == s]) for s in range(3)]
        assert f_medians[0] < f_medians[1] < f_medians[2]

    def test_negative_delta_rejected(self):
        mem = ParameterMemory()
        with pytest.raises(ValueError):
            mem.record_success(Strategy.RAND_1_BIN, f=0.5, cr=0.5, delta=-1e-9)

    def test_nan_delta_rejected(self):
        mem = ParameterMemory()
        with pytest.raises(ValueError):
            mem.record_success(Strategy.RAND_1_BIN, f=[0.5, 0.6], cr=[0.5, 0.6],
                               delta=[np.nan, 1.0])
        mem.update_memory(Strategy.RAND_1_BIN)
        assert _memory_state(mem) == _memory_state(ParameterMemory())

    def test_lehmer_mean_stays_within_success_range(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            mem = ParameterMemory(length=1)
            fs = rng.uniform(0.05, 1.0, rng.integers(1, 12))
            for f in fs:
                mem.record_success(Strategy.RAND_1_BIN, f=f, cr=rng.random(),
                                   delta=rng.exponential())
            mem.update_memory(Strategy.RAND_1_BIN)
            cell = mem.f_memory[0, 0]
            assert fs.min() - 1e-12 <= cell <= fs.max() + 1e-12

    def test_sampled_parameters_stay_in_range(self):
        rng = np.random.default_rng(13)
        mem = ParameterMemory(length=4)
        # push the cells toward the edges to stress the truncation
        mem.f_memory[:] = rng.uniform(0.01, 1.0, size=mem.f_memory.shape)
        mem.cr_memory[:] = rng.uniform(0.0, 1.0, size=mem.cr_memory.shape)
        for strategy in Strategy:
            f, cr = mem.sample_parameters_many(strategy, 20000, rng)
            assert np.all(f > 0.0) and np.all(f <= 1.0)
            assert np.all(cr >= 0.0) and np.all(cr <= 1.0)

    def test_a_cauchy_draw_of_exactly_zero_is_redrawn(self):
        # cell 0.5 and a first draw of -5.0 give F = 0.5 - 0.5 = 0.0 exactly
        rng = _Draws(cauchy=[-5.0, 0.0])
        f, _ = ParameterMemory(length=1).sample_parameters_many(Strategy.RAND_1_BIN, 1, rng)
        assert f[0] == 0.5


@st.composite
def success_sets(draw, max_size=40):
    """Aligned successes of all strategies in any interleaving, zero-delta sets included."""
    size = draw(st.integers(0, max_size))
    keys = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=size, max_size=size))
    f = draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size))
    cr = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    delta = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1e3)
    deltas = draw(st.lists(delta, min_size=size, max_size=size))
    for s in draw(st.sets(st.sampled_from([0, 1, 2]))):
        deltas = [0.0 if k == s else d for k, d in zip(keys, deltas)]
    return (np.array(keys, dtype=np.intp), np.array(f, dtype=float), np.array(cr, dtype=float),
            np.array(deltas, dtype=float))


def _memory_state(memory):
    return tuple(getattr(memory, name).tobytes() for name in ("f_memory", "cr_memory", "pointer"))


class TestKeyedFold:
    @settings(max_examples=200, deadline=None)
    @given(generations=st.lists(success_sets(), min_size=1, max_size=3))
    def test_equals_the_per_strategy_loop_bit_for_bit(self, generations):
        folded, reference = ParameterMemory(length=2), ParameterMemory(length=2)
        for keys, f, cr, delta in generations:
            folded.fold_successes(keys, f, cr, delta)
            fold_reference(reference, keys, f, cr, delta)
        assert _memory_state(folded) == _memory_state(reference)

    @settings(max_examples=200, deadline=None)
    @given(successes=success_sets(), strategy=st.sampled_from([0, 1, 2]))
    def test_a_strategy_does_not_depend_on_the_others(self, successes, strategy):
        keys, f, cr, delta = successes
        own = keys == strategy
        everyone, alone = ParameterMemory(length=3), ParameterMemory(length=3)
        everyone.fold_successes(keys, f, cr, delta)
        alone.fold_successes(keys[own], f[own], cr[own], delta[own])
        for name in ("f_memory", "cr_memory", "pointer"):
            assert (getattr(everyone, name)[strategy].tobytes()
                    == getattr(alone, name)[strategy].tobytes())

    @settings(max_examples=200, deadline=None)
    @given(successes=success_sets(), cuts=st.lists(st.integers(0, 40), max_size=4))
    def test_record_and_update_equal_the_fold(self, successes, cuts):
        keys, f, cr, delta = successes
        folded, recorded = ParameterMemory(length=3), ParameterMemory(length=3)
        folded.fold_successes(keys, f, cr, delta)
        for part in np.split(np.arange(len(keys)), sorted(set(cuts))):
            for s in Strategy:
                mine = part[keys[part] == s]
                recorded.record_success(s, f[mine], cr[mine], delta[mine])
        for s in Strategy:
            recorded.update_memory(s)
        assert _memory_state(folded) == _memory_state(recorded)

    def test_empty_fold_changes_nothing(self):
        mem = ParameterMemory(length=3)
        empty = np.array([])
        mem.fold_successes(np.array([], dtype=np.intp), empty, empty, empty)
        assert _memory_state(mem) == _memory_state(ParameterMemory(length=3))

    def test_rejects_negative_and_misaligned_successes(self):
        mem = ParameterMemory()
        keys, ones = np.array([0, 1]), np.ones(2)
        with pytest.raises(ValueError):
            mem.fold_successes(keys, ones, ones, np.array([1.0, -1e-9]))
        with pytest.raises(ValueError):
            mem.fold_successes(keys, ones, np.ones(3), ones)
        assert _memory_state(mem) == _memory_state(ParameterMemory())

    @settings(max_examples=200, deadline=None)
    @given(successes=success_sets(), data=st.data())
    def test_an_infinite_improvement_shares_its_strategy_weight(self, successes, data):
        """A strategy whose successes include an infinite improvement weighs
        its infinite ones equally and the rest by 0; every other strategy
        folds as before, and every cell stays finite."""
        keys, f, cr, delta = successes
        infinite = np.array(data.draw(st.lists(st.booleans(), min_size=len(keys),
                                               max_size=len(keys))), dtype=bool)
        delta = np.where(infinite, np.inf, delta)
        folded, reference = ParameterMemory(length=3), ParameterMemory(length=3)
        folded.fold_successes(keys, f, cr, delta)
        overflowed = np.isin(keys, keys[infinite])
        fold_reference(reference, keys, f, cr,
                        np.where(overflowed, infinite.astype(float), delta))
        assert _memory_state(folded) == _memory_state(reference)
        assert np.isfinite(folded.f_memory).all() and np.isfinite(folded.cr_memory).all()

    def test_infinite_improvement_writes_a_finite_cell(self):
        # a finite candidate that replaces a member of infinite violation
        # improves by inf; inf / inf would write NaN into the cells
        mem = ParameterMemory()
        mem.fold_successes(np.array([0, 0]), np.array([0.5, 0.9]), np.array([0.25, 0.75]),
                           np.array([np.inf, 1.0]))
        assert (mem.f_memory[0, 0], mem.cr_memory[0, 0]) == (0.5, 0.25)
        assert mem.pointer[0] == 1

    def test_rejects_nan_improvements(self):
        # a NaN improvement would write NaN into the strategy's F and CR cells
        mem = ParameterMemory()
        keys, f = np.array([0, 1]), np.array([0.5, 0.6])
        with pytest.raises(ValueError):
            mem.fold_successes(keys, f, f, np.array([np.nan, 1.0]))
        assert _memory_state(mem) == _memory_state(ParameterMemory())


class TestStrategyStats:
    def test_uniform_during_warmup(self):
        stats = StrategyStats(window=3)
        for _ in range(2):
            stats.record_generation([10, 0, 0])
            np.testing.assert_allclose(stats.success_rates(), [1 / 3] * 3)
        stats.record_generation([10, 0, 0])
        np.testing.assert_allclose(stats.success_rates(), [1, 0, 0])

    def test_rates_follow_windowed_wins(self):
        stats = StrategyStats(window=2)
        stats.record_generation([2, 1, 1])
        stats.record_generation([2, 1, 1])
        np.testing.assert_allclose(stats.success_rates(), [0.5, 0.25, 0.25])

    def test_zero_wins_fall_back_to_uniform(self):
        stats = StrategyStats(window=1)
        stats.record_generation([0, 0, 0])
        np.testing.assert_allclose(stats.success_rates(), [1 / 3] * 3)

    def test_window_slides(self):
        stats = StrategyStats(window=2)
        stats.record_generation([5, 0, 0])
        stats.record_generation([0, 5, 0])
        stats.record_generation([0, 0, 5])
        np.testing.assert_array_equal(stats.windowed_wins(), [0, 5, 5])
        np.testing.assert_allclose(stats.success_rates(), [0.0, 0.5, 0.5])

    @settings(max_examples=100, deadline=None)
    @given(window=st.integers(1, 30),
           counts=st.lists(st.lists(st.just(0) | st.integers(0, 40), min_size=3, max_size=3),
                           max_size=70))
    def test_window_matches_brute_force(self, window, counts):
        stats = StrategyStats(window=window)
        np.testing.assert_array_equal(stats.windowed_wins(), [0, 0, 0])
        np.testing.assert_array_equal(stats.success_rates(), np.full(3, 1 / 3))
        for k, c in enumerate(counts):
            stats.record_generation(c)
            expected = np.array(counts[max(0, k + 1 - window):k + 1]).sum(axis=0)
            np.testing.assert_array_equal(stats.windowed_wins(), expected)
            # the window warms up until it holds `window` records
            if k + 1 < window or expected.sum() == 0:
                rates = np.full(3, 1 / 3)
            else:
                rates = expected / expected.sum()
            np.testing.assert_array_equal(stats.success_rates(), rates)

    def test_windowed_wins_is_a_copy(self):
        stats = StrategyStats(window=2)
        for counts in ([3, 1, 0], [1, 1, 2]):
            stats.record_generation(counts)
        wins = stats.windowed_wins()
        wins[:] = [0, 0, 100]
        np.testing.assert_array_equal(stats.windowed_wins(), [4, 2, 2])
        np.testing.assert_array_equal(stats.success_rates(), [0.5, 0.25, 0.25])

    def test_record_validation(self):
        stats = StrategyStats(window=25)
        with pytest.raises(ValueError):
            stats.record_generation([1, 2])
        with pytest.raises(ValueError):
            stats.record_generation([1, -1, 0])
        with pytest.raises(ValueError):
            StrategyStats(window=0)

    @pytest.mark.parametrize("counts", [[1.5, 0, 0], [0, 0.5, 0], [math.nan, 0, 0],
                                        [math.inf, 0, 0], [1e300, 0, 0]])
    def test_rejects_counts_that_are_not_whole(self, counts):
        # a cast to the ring's integers would record 1.5 as one win, and a
        # count beyond int64 as garbage
        stats = StrategyStats(window=1)
        with pytest.raises(ValueError):
            stats.record_generation(counts)
        np.testing.assert_array_equal(stats.windowed_wins(), [0, 0, 0])
        stats.record_generation([2.0, 1, 0])  # a whole float is a count
        np.testing.assert_array_equal(stats.success_rates(), [2 / 3, 1 / 3, 0])

    @settings(max_examples=200, deadline=None)
    @given(window=st.integers(1, 30),
           rows=st.lists(st.just([0, 0, 0]) | st.lists(st.just(0) | st.integers(0, 40),
                                                        min_size=3, max_size=3),
                         max_size=80),
           data=st.data())
    def test_the_ring_steps_strategy_rates(self, window, rows, data):
        """StrategyStats fed k rows gives the bytes of strategy_rates over
        those k rows, before the window fills, after its ring wraps, and on
        windows without a win."""
        k = data.draw(st.integers(0, len(rows)))
        stats = StrategyStats(window=window)
        for counts in rows[:k]:
            stats.record_generation(counts)
        expected = strategy_rates(np.array(rows[:k], dtype=int).reshape(k, 3), window)
        got = stats.success_rates()
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_strategy_rates_reads_the_last_window_rows(self):
        wins = np.array([[9, 0, 0], [1, 1, 0], [0, 1, 2]])
        np.testing.assert_array_equal(strategy_rates(wins, 2), [0.2, 0.4, 0.4])
        np.testing.assert_array_equal(strategy_rates(wins, 4), np.full(3, 1 / 3))
        np.testing.assert_array_equal(strategy_rates(wins[:0], 1), np.full(3, 1 / 3))
        np.testing.assert_array_equal(strategy_rates([[0, 0, 0]], 1), np.full(3, 1 / 3))
        for window in (0, 1.5, math.nan):
            with pytest.raises(ValueError):
                strategy_rates(wins, window)

    def test_selection_frequencies_track_rates(self):
        stats = StrategyStats(window=1)
        stats.record_generation([8, 2, 0])
        rng = np.random.default_rng(15)
        picks = select_strategies(stats.success_rates(), 20000, rng)
        freq = np.bincount(picks, minlength=3) / 20000
        np.testing.assert_allclose(freq, [0.8, 0.2, 0.0], atol=0.02)
        assert not np.any(picks == 2)

    def test_a_strategy_with_rate_zero_is_never_drawn(self):
        # a uniform draw of 0.0 lands on the first edge, which the zero-rate
        # strategy 0 shares with the start of strategy 1
        assert select_strategies(np.array([0.0, 0.5, 0.5]), 1, _Draws()).tolist() == [1]


class TestPoolSize:
    @pytest.mark.parametrize("n,expected", [
        (50, 3), (70, 4), (60, 3), (20, 1), (10, 1), (100, 5),
    ])
    def test_round_half_up_at_five_percent(self, n, expected):
        assert pbest_pool_size(n) == expected

    def test_never_below_one(self):
        assert pbest_pool_size(2) == 1


class TestRepair:
    def test_midpoint_examples(self):
        lower, upper = np.zeros(3), np.ones(3)
        parent = np.array([[0.4, 0.4, 0.4]])
        out = _repair(np.array([[-1.0, 2.0, 0.9]]), parent, lower, upper)
        np.testing.assert_allclose(out, [[0.2, 0.7, 0.9]])

    def test_repaired_points_always_inside(self):
        lower, upper = np.full(5, -5.0), np.full(5, 5.0)
        rng = np.random.default_rng(17)
        parent = rng.uniform(lower, upper, (200, 5))
        candidate = rng.uniform(-20, 20, (200, 5))
        out = _repair(candidate, parent, lower, upper)
        assert np.all(out >= lower) and np.all(out <= upper)
        inside = (candidate >= lower) & (candidate <= upper)
        np.testing.assert_array_equal(out[inside], candidate[inside])


def _repair_reference(candidate, parent, lower, upper):
    # both passes always run; the kernel skips a pass with nothing to move
    out = np.where(candidate < lower, 0.5 * (lower + parent), candidate)
    return np.where(out > upper, 0.5 * (upper + parent), out)


@st.composite
def repair_cases(draw):
    """Parents inside a box and candidates inside, on or outside it, per row."""
    m, d = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    lower = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(1e-3, 20.0), min_size=d, max_size=d)))
    upper = lower + width
    share = st.floats(0.0, 1.0)
    unit = np.array(draw(st.lists(share, min_size=m * d, max_size=m * d))).reshape(m, d)
    parent = np.minimum(lower + width * unit, upper)
    # each row's candidate scale: 0 stays inside the box, larger ones leave it
    reach = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 3.0]), min_size=m, max_size=m)))
    spread = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m * d, max_size=m * d)))
    candidate = parent + reach[:, None] * width * spread.reshape(m, d)
    edges = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, d - 1),
                                    st.booleans()), max_size=4))
    for i, j, at_lower in edges:
        candidate[i, j] = lower[j] if at_lower else upper[j]
    return candidate, parent, lower, upper


class TestRepairKernel:
    @settings(max_examples=300, deadline=None)
    @given(repair_cases())
    def test_equals_two_pass_reference_bit_for_bit(self, case):
        candidate, parent, lower, upper = case
        expected = _repair_reference(candidate, parent, lower, upper)
        got = _repair(candidate.copy(), parent, lower, upper)
        assert got.tobytes() == expected.tobytes()


class TestTrialGeneration:
    def rand_pop(self, rng, n=12, d=6):
        return rng.uniform(-5, 5, (n, d))

    def test_trials_respect_bounds(self):
        rng = np.random.default_rng(18)
        lower, upper = np.full(6, -5.0), np.full(6, 5.0)
        for _ in range(50):
            pop = self.rand_pop(rng)
            targets = np.arange(len(pop))
            f = rng.uniform(0.1, 1.0, len(pop))
            cr = rng.random(len(pop))
            for trial in (
                rand_1_bin_batch(pop, targets, f, cr, lower, upper, rng),
                current_to_pbest_batch(pop, targets, f, cr, lower, upper, rng),
                current_to_rand_batch(pop, targets, f, lower, upper, rng),
            ):
                assert np.all(trial >= lower) and np.all(trial <= upper)

    def test_zero_crossover_changes_exactly_one_coordinate(self):
        rng = np.random.default_rng(19)
        lower, upper = np.full(6, -5.0), np.full(6, 5.0)
        for _ in range(50):
            pop = self.rand_pop(rng)
            targets = np.arange(len(pop))
            f = rng.uniform(0.1, 1.0, len(pop))
            cr = np.zeros(len(pop))
            trial = rand_1_bin_batch(pop, targets, f, cr, lower, upper, rng)
            differs = (trial != pop).sum(axis=1)
            assert np.all(differs == 1)

    def test_full_crossover_zero_scale_copies_another_member(self):
        # F = 0 and CR = 1 make the trial exactly the random base vector
        rng = np.random.default_rng(20)
        pop = self.rand_pop(rng)
        targets = np.arange(len(pop))
        trial = rand_1_bin_batch(pop, targets, np.zeros(len(pop)),
                                 np.ones(len(pop)), np.full(6, -5.0), np.full(6, 5.0), rng)
        for i, t in enumerate(trial):
            matches = np.nonzero((pop == t).all(axis=1))[0]
            assert len(matches) == 1 and matches[0] != i

    def test_single_target_wrappers(self):
        rng = np.random.default_rng(21)
        prob = box_problem(dim=4)
        pop = rng.uniform(-5, 5, (8, 4))
        target, f, cr = np.array([2]), np.array([0.7]), np.array([0.5])
        a = rand_1_bin_batch(pop, target, f, cr, prob.lower, prob.upper, rng)
        b = current_to_pbest_batch(pop, target, f, cr, prob.lower, prob.upper, rng)
        c = current_to_rand_batch(pop, target, f, prob.lower, prob.upper, rng)
        for trial in (a, b, c):
            assert trial.shape == (1, 4)
            assert np.all(trial >= prob.lower) and np.all(trial <= prob.upper)

    def test_pbest_donor_uses_elite_head(self):
        # six members make a pool of one, and F = 1, CR = 1: the donor
        # collapses to best + (r0 - r1)
        rng = np.random.default_rng(22)
        pop = self.rand_pop(rng, n=6)
        targets = np.array([3])
        got = current_to_pbest_batch(pop, targets, np.ones(1), np.ones(1),
                                     np.full(6, -50.0), np.full(6, 50.0), rng)[0]
        # x + 1 * (best - x) + 1 * (r0 - r1) = best + r0 - r1 for some valid r0, r1
        found = False
        for r0 in range(6):
            for r1 in range(6):
                if len({r0, r1, 3}) != 3:
                    continue
                if np.allclose(got, pop[0] + pop[r0] - pop[r1]):
                    found = True
        assert found


@st.composite
def trial_batches(draw):
    """A population of 4..60 rows, any targets and any mix of strategies."""
    n = draw(st.integers(4, 60))
    m = draw(st.integers(1, 40))
    rows = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    kinds = st.lists(st.sampled_from([int(s) for s in Strategy]), min_size=m, max_size=m)
    return (n, draw(st.integers(1, 8)), np.array(draw(rows)), np.array(draw(kinds)),
            draw(st.integers(0, 2**32 - 1)))


class TestMakeTrials:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(4, 60), data=st.data())
    def test_indices_distinct_and_never_the_target(self, n, data):
        m = data.draw(st.integers(1, 40))
        targets = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
        unit = st.sampled_from([0.0, np.nextafter(1.0, 0.0)]) | st.floats(0.0, 1.0,
                                                                           exclude_max=True)
        u = np.array(data.draw(st.lists(st.tuples(unit, unit, unit), min_size=m, max_size=m)))
        ranks = (u * (n - 1, n - 2, n - 3)).astype(np.intp).T
        r = np.stack(_three_distinct(targets, *ranks), axis=1)
        assert np.all((r >= 0) & (r < n))
        taken = np.column_stack((targets, r))
        assert all(len(set(row)) == 4 for row in taken.tolist())

    @settings(max_examples=100, deadline=None)
    @given(trial_batches())
    def test_equals_the_per_row_reference_bit_for_bit(self, case):
        """Every row, under any mix of strategies, equals the per-coordinate
        reference built from the same uniform block; with 30 or more rows the
        elite pool has more than one member."""
        n, d, targets, strategies, seed = case
        rng = np.random.default_rng(seed)
        lower, upper = np.full(d, -1.0), np.full(d, 2.0)
        pop = rng.uniform(lower, upper, (n, d))
        m = len(targets)
        f, cr = rng.uniform(0.01, 1.0, m), rng.random(m)
        state = rng.bit_generator.state
        got = make_trials(pop, targets, strategies, f, cr, lower, upper, rng)
        rng.bit_generator.state = state
        want = trials_reference(pop, targets, strategies, f, cr, rng.random(m * (6 + d)),
                                lower, upper)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(trial_batches())
    def test_trials_inside_the_box(self, case):
        n, d, targets, strategies, seed = case
        rng = np.random.default_rng(seed)
        lower, upper = np.full(d, -1.0), np.full(d, 2.0)
        pop = rng.uniform(lower, upper, (n, d))
        m = len(targets)
        trial = make_trials(pop, targets, strategies, rng.uniform(0.01, 1.0, m),
                            rng.random(m), lower, upper, rng)
        assert trial.shape == (m, d)
        assert np.all((trial >= lower) & (trial <= upper))

    @settings(max_examples=100, deadline=None)
    @given(trial_batches())
    def test_zero_crossover_changes_one_coordinate_except_current_to_rand(self, case):
        n, d, targets, strategies, seed = case
        rng = np.random.default_rng(seed)
        pop = rng.uniform(-5.0, 5.0, (n, d))
        m = len(targets)
        trial = make_trials(pop, targets, strategies, rng.uniform(0.1, 1.0, m), np.zeros(m),
                            np.full(d, -5.0), np.full(d, 5.0), rng)
        changed = (trial != pop[targets]).sum(axis=1)
        binomial = strategies != Strategy.CURRENT_TO_RAND
        assert np.all(changed[binomial] == 1)
        # no crossover: every coordinate of a current-to-rand row moves
        assert np.all(changed[~binomial] == d)

    @settings(max_examples=100, deadline=None)
    @given(trial_batches())
    def test_zero_scale_full_crossover_copies_the_base_on_rand_1_rows(self, case):
        n, d, targets, strategies, seed = case
        rng = np.random.default_rng(seed)
        pop = rng.uniform(-5.0, 5.0, (n, d))
        m = len(targets)
        trial = make_trials(pop, targets, strategies, np.zeros(m), np.ones(m),
                            np.full(d, -5.0), np.full(d, 5.0), rng)
        for row in np.nonzero(strategies == Strategy.RAND_1_BIN)[0]:
            matches = np.nonzero((pop == trial[row]).all(axis=1))[0]
            assert len(matches) == 1 and matches[0] != targets[row]

    def test_every_other_index_equally_likely_in_each_role(self):
        # one-hot rows with F = 1/2 and CR = 1 make each rand/1 trial read
        # e_r0 + e_r1 / 2 - e_r2 / 2, so the three roles decode exactly
        n, m, target = 6, 60000, 2
        trial = make_trials(np.eye(n), np.full(m, target), np.zeros(m, dtype=int),
                            np.full(m, 0.5), np.ones(m), np.full(n, -2.0), np.full(n, 2.0),
                            np.random.default_rng(23))
        assert np.all(np.sort(trial, axis=1) == [-0.5, 0, 0, 0, 0.5, 1.0])
        for value in (1.0, 0.5, -0.5):
            counts = np.bincount(np.nonzero(trial == value)[1], minlength=n)
            assert counts[target] == 0
            # 4.5 standard deviations of a binomial(60000, 1/5) count
            np.testing.assert_allclose(counts[np.arange(n) != target], m / 5, atol=440)
