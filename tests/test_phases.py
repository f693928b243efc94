import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsde import SUITE_IDS, RunConfig, make_suite_problem, run
from ppsde.phases import (
    DECAY_POWER,
    EPS_CUTOFF_FRACTION,
    EPS_SHRINK,
    FEASIBLE_TRIGGER,
    PULL,
    PUSH,
    RATE_FLOOR,
    SF,
    SWITCH_THRESHOLD,
    EpsilonSchedule,
    PhaseTracker,
)


class TestPhaseTracker:
    def test_rate_pinned_until_history_fills(self):
        tracker = PhaseTracker(learning_period=25)
        for g in range(25):
            # even huge improvements leave the rate at 1 during warmup
            assert tracker.update_rate(g, 1000.0 / (g + 1)) == 1.0
            assert not tracker.should_switch()
        assert tracker.switch_generation is None

    def test_constant_objective_switches_at_learning_period(self):
        tracker = PhaseTracker(learning_period=25)
        for g in range(25):
            tracker.update_rate(g, 5.0)
            assert not tracker.should_switch()
        assert tracker.update_rate(25, 5.0) == 0.0
        assert tracker.should_switch()
        assert tracker.switch_generation == 25

    def test_rate_formula_by_hand(self):
        # best objective 2 one period ago, 1 now: (2 - 1) / 2 = 0.5
        tracker = PhaseTracker(learning_period=25)
        tracker.update_rate(0, 2.0)
        for g in range(1, 25):
            tracker.update_rate(g, 1.5)
        assert tracker.update_rate(25, 1.0) == pytest.approx(0.5)
        assert not tracker.should_switch()

    def test_magnitude_floor_in_denominator(self):
        # without the floor this rate would be 1e-9 / 1e-7 = 1e-2, no switch;
        # the floor makes it 1e-9 / 1e-6, exactly the threshold
        tracker = PhaseTracker(learning_period=25)
        tracker.update_rate(0, 1e-7)
        for g in range(1, 26):
            tracker.update_rate(g, 0.99e-7)
        assert tracker.rate == pytest.approx(1e-3)
        assert tracker.should_switch()

    def test_switch_is_one_way(self):
        tracker = PhaseTracker(learning_period=2)
        for g in range(3):
            tracker.update_rate(g, 1.0)
        assert tracker.should_switch()
        assert tracker.switch_generation == 2
        # later large improvements must not reopen the push phase
        tracker.update_rate(3, 0.001)
        assert not tracker.should_switch()
        assert tracker.switch_generation == 2

    def test_slow_improvement_keeps_pushing(self):
        tracker = PhaseTracker(learning_period=5)
        switched = False
        for g in range(40):
            tracker.update_rate(g, 100.0 * 0.9**g)
            switched = switched or tracker.should_switch()
        # 10% decay per generation is far above the stagnation threshold
        assert not switched

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseTracker(learning_period=0)


class TestEpsilonSchedule:
    def test_starts_at_initial_level(self):
        sched = EpsilonSchedule(eps_initial=4.0, cutoff=100)
        assert sched.level(0, feasible_ratio=0.0) == 4.0

    def test_geometric_shrink_while_mostly_infeasible(self):
        sched = EpsilonSchedule(eps_initial=4.0, cutoff=100)
        sched.level(0, 0.0)
        assert sched.level(1, 0.0) == pytest.approx(3.6)
        assert sched.level(2, 0.0) == pytest.approx(3.24)

    def test_polynomial_decay_when_mostly_feasible(self):
        sched = EpsilonSchedule(eps_initial=4.0, cutoff=100)
        sched.level(0, 1.0)
        # k = 50 of 100 with quadratic decay: 4 * (1/2)^2 = 1
        assert sched.level(50, 1.0) == pytest.approx(1.0)

    def test_zero_from_cutoff_on(self):
        sched = EpsilonSchedule(eps_initial=4.0, cutoff=100)
        sched.level(0, 0.0)
        assert sched.level(100, 0.0) == 0.0
        assert sched.level(250, 1.0) == 0.0

    def test_level_bounded_by_initial(self):
        # with mixed feasible ratios the level can bounce between branches
        # but must stay inside [0, eps_initial]
        rng = np.random.default_rng(23)
        sched = EpsilonSchedule(eps_initial=7.0, cutoff=60)
        for k in range(80):
            level = sched.level(k, float(rng.random()))
            assert 0.0 <= level <= 7.0

    def test_level_monotone_under_constant_ratio(self):
        for ratio in (0.0, 1.0):
            sched = EpsilonSchedule(eps_initial=7.0, cutoff=60)
            levels = [sched.level(k, ratio) for k in range(70)]
            assert all(b <= a for a, b in zip(levels, levels[1:]))
            assert levels[-1] == 0.0

    def test_a_repeated_k_raises(self):
        sched = EpsilonSchedule(eps_initial=4.0, cutoff=100)
        sched.level(3, 0.0)
        with pytest.raises(ValueError):
            sched.level(3, 1.0)

    def test_k_must_not_decrease(self):
        sched = EpsilonSchedule(eps_initial=4.0, cutoff=100)
        sched.level(5, 0.0)
        with pytest.raises(ValueError):
            sched.level(4, 0.0)

    def test_from_violations_quantile(self):
        # 101 evenly spaced violations from 0 to 1: the 0.95 quantile is 0.95
        violations = np.linspace(0.0, 1.0, 101)
        sched = EpsilonSchedule.from_violations(violations, cutoff=100)
        assert sched.eps_initial == pytest.approx(0.95)

    def test_from_violations_counts_infinite_violations_as_the_largest_double(self):
        # np.quantile would interpolate inf - inf and start the schedule at NaN
        largest = np.finfo(float).max
        sched = EpsilonSchedule.from_violations([0.0, 1.0, np.inf, np.inf], cutoff=10)
        assert sched.eps_initial == largest
        sched = EpsilonSchedule.from_violations([0.0, 1.0, 2.0, np.inf], cutoff=10)
        assert 2.0 < sched.eps_initial < largest
        assert all(np.isfinite(sched.level(k, 0.0)) for k in range(12))
        # finite violations give the quantile itself
        violations = np.random.default_rng(3).exponential(1.0, 50)
        sched = EpsilonSchedule.from_violations(violations, cutoff=10)
        assert sched.eps_initial == float(np.quantile(violations, 0.95))

    def test_from_violations_explicit_override(self):
        sched = EpsilonSchedule.from_violations([1.0, 2.0, 3.0], cutoff=10,
                                                eps_initial=0.0)
        assert sched.eps_initial == 0.0
        assert sched.level(0, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(eps_initial=-0.1, cutoff=10)
        sched = EpsilonSchedule(eps_initial=1.0, cutoff=10)
        with pytest.raises(ValueError):
            sched.level(-1, 0.0)

    def test_a_nan_initial_level_is_rejected(self):
        with pytest.raises(ValueError, match="eps_initial must be >= 0"):
            EpsilonSchedule(eps_initial=math.nan, cutoff=10)


class TestReplayFromTrace:
    """The phase switch and the relaxation levels of a run, recomputed in
    plain Python from its trace with the formulas of the ``phases``
    docstrings, equal the run's bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(pid=st.sampled_from(SUITE_IDS), dim=st.integers(2, 5),
           algorithm=st.sampled_from(("pps-de", "sf-de", "eps-de")),
           seed=st.integers(0, 2**16), period=st.integers(2, 10),
           max_fes=st.integers(300, 3000))
    def test_switch_and_levels_replay_from_the_trace(self, pid, dim, algorithm, seed, period,
                                                     max_fes):
        res = run(make_suite_problem(pid, dim),
                  RunConfig(algorithm=algorithm, seed=seed, learning_period=period,
                            max_fes=max_fes))
        trace, n_gen = res.trace, res.generations
        if algorithm == "sf-de":
            assert res.switch_generation is None
            assert list(trace.phase) == [SF] * n_gen
            assert all(math.isnan(v) for v in trace.eps)
            assert all(math.isnan(v) for v in trace.rate)
            return

        # the change rate and the switch, from the population minima
        pull_start, switch = 0, None
        if algorithm == "pps-de":
            best = [float(v) for v in trace.pop_min_f]
            rate = [1.0 if g < period
                    else (best[g - period] - best[g]) / max(abs(best[g - period]), RATE_FLOOR)
                    for g in range(n_gen)]
            assert [float(v) for v in trace.rate] == rate
            switch = next((g for g in range(n_gen) if rate[g] <= SWITCH_THRESHOLD), None)
            pull_start = n_gen if switch is None else switch + 1
        else:
            assert all(math.isnan(v) for v in trace.rate)
        assert res.switch_generation == switch
        assert list(trace.phase) == [PUSH] * pull_start + [PULL] * (n_gen - pull_start)
        assert list(trace.eps[:pull_start]) == [math.inf] * pull_start

        # the levels, from the first pull generation's level and the feasible shares
        cutoff = EPS_CUTOFF_FRACTION * n_gen
        levels = [float(v) for v in trace.eps[pull_start:]]
        for k in range(1, len(levels)):
            if k >= cutoff:
                expected = 0.0
            elif float(trace.feasible_ratio[pull_start + k]) < FEASIBLE_TRIGGER:
                expected = (1.0 - EPS_SHRINK) * levels[k - 1]
            else:
                expected = levels[0] * (1.0 - k / cutoff) ** DECAY_POWER
            assert levels[k] == expected, f"pull generation {k}"
