import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsde import SUITE_IDS, Problem, RunConfig, make_suite_problem, run
from ppsde.cli import ExperimentSpec
from ppsde.de import ParameterMemory, StrategyStats, strategy_rates
from ppsde.phases import (
    DECAY_POWER,
    EPS_CUTOFF_FRACTION,
    EPS_QUANTILE,
    EPS_SHRINK,
    FEASIBLE_TRIGGER,
    PULL,
    PUSH,
    RATE_FLOOR,
    SF,
    SWITCH_THRESHOLD,
    EpsilonSchedule,
    PhaseTracker,
    change_rate,
    eps_level,
    initial_eps,
)

LARGEST = np.finfo(float).max


def bits(value):
    """A float's IEEE 754 bytes, so that -0.0 and 0.0 differ and NaN equals itself."""
    return struct.pack("<d", value)


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

    # population minima rich in magnitudes near the rate's floor
    MINIMA = (st.sampled_from([0.0, -0.0, RATE_FLOOR, -RATE_FLOOR, 0.99e-6, 1.01e-6, 1.0])
              | st.floats(-2e-6, 2e-6) | st.floats(allow_nan=False))

    @settings(max_examples=200, deadline=None)
    @given(period=st.integers(1, 8), minima=st.lists(MINIMA, max_size=40))
    def test_update_rate_is_change_rate_bit_for_bit(self, period, minima):
        tracker = PhaseTracker(learning_period=period)
        column = np.array(minima, dtype=float)  # as run's trace holds them
        switch = None
        for g, value in enumerate(minima):
            rate = tracker.update_rate(g, value)
            assert bits(rate) == bits(change_rate(minima[:g + 1], period))
            assert bits(rate) == bits(change_rate(column[:g + 1], period))
            if switch is None and rate <= SWITCH_THRESHOLD:
                switch = g
            tracker.should_switch()
        assert tracker.switch_generation == switch


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

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(eps_initial=-0.1, cutoff=10)
        sched = EpsilonSchedule(eps_initial=1.0, cutoff=10)
        with pytest.raises(ValueError):
            sched.level(-1, 0.0)

    def test_a_nan_initial_level_is_rejected(self):
        with pytest.raises(ValueError, match="eps_initial must be >= 0"):
            EpsilonSchedule(eps_initial=math.nan, cutoff=10)

    @pytest.mark.parametrize("cutoff", [math.nan, -1.0, -math.inf])
    def test_a_nan_or_negative_cutoff_is_rejected(self, cutoff):
        # a NaN cutoff would give a NaN level, under which every violation counts
        with pytest.raises(ValueError, match="cutoff must be >= 0"):
            EpsilonSchedule(eps_initial=4.0, cutoff=cutoff)

    @settings(max_examples=200, deadline=None)
    @given(eps_initial=st.sampled_from([0.0, 1.0, np.finfo(float).max]) | st.floats(0.0, 1e6),
           cutoff=st.sampled_from([0.0, 1.0, math.inf]) | st.floats(0.0, 200.0),
           first=st.integers(0, 5),
           steps=st.lists(st.tuples(st.integers(1, 12), st.floats(0.0, 1.0)), max_size=40))
    def test_level_is_chained_eps_level_bit_for_bit(self, eps_initial, cutoff, first, steps):
        sched = EpsilonSchedule(eps_initial, cutoff)
        ks = list(np.cumsum([first] + [gap for gap, _ in steps]))
        ratios = [0.0] + [ratio for _, ratio in steps]
        # chained on Python floats, and on a float64 column as run's trace holds them
        level, column = eps_initial, np.empty(len(ks))
        for i, (k, ratio) in enumerate(zip(ks, ratios)):
            level = eps_level(level, int(k), ratio, eps_initial, cutoff)
            column[i] = eps_level(column[i - 1] if i else np.float64(eps_initial), int(k), ratio,
                                  np.float64(eps_initial), cutoff)
            assert bits(sched.level(int(k), ratio)) == bits(level) == bits(column[i])


class TestEpsLevel:
    """The feasible share that ends ε's shrinking, written as literals so that a
    change to ``FEASIBLE_TRIGGER`` or to its comparison shows."""

    def test_shrinks_below_95_percent_feasible(self):
        assert eps_level(1.0, 5, 0.92, 2.0, 100) == 0.9

    def test_decays_at_exactly_95_percent_feasible(self):
        # 19 feasible members of 20, as a run at N = 20 meets it
        assert eps_level(1.0, 5, 19 / 20, 2.0, 100) == 2.0 * (1 - 5 / 100) ** 2


class TestInitialEps:
    """``initial_eps`` is ``np.quantile`` of the capped violations, bit for bit."""

    @staticmethod
    def numpy_quantile(violations):
        return float(np.quantile(np.minimum(violations, LARGEST), EPS_QUANTILE))

    @pytest.mark.parametrize("violations", [[], [math.nan, 1.0], [1.0, math.nan], [-1.0, 2.0],
                                            [0.0, -math.inf], [-5e-324]],
                             ids=["empty", "nan-first", "nan-last", "negative", "minus-inf",
                                  "negative-subnormal"])
    def test_an_empty_nan_or_negative_input_is_rejected(self, violations):
        with pytest.raises(ValueError, match="violations must"):
            initial_eps(violations)
        with pytest.raises(ValueError, match="violations must"):
            EpsilonSchedule.from_violations(violations, cutoff=10)

    def test_signed_zeros_are_accepted(self):
        assert bits(initial_eps([-0.0])) == bits(-0.0)
        assert initial_eps([0.0, -0.0, 1.0]) == self.numpy_quantile([0.0, -0.0, 1.0])

    # ties, zeros of both signs, infinities and values near the largest double
    VIOLATION = (st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.0, LARGEST / 2,
                                  np.nextafter(LARGEST, 0.0), LARGEST, math.inf])
                 | st.floats(min_value=0.0))

    @settings(max_examples=300, deadline=None)
    @given(zeros=st.lists(st.sampled_from([0.0, -0.0]), max_size=500),
           runs=st.lists(st.tuples(VIOLATION, st.integers(1, 60)), min_size=1, max_size=40),
           order=st.none() | st.integers(0, 2**32 - 1))
    def test_equals_numpy_quantile_bit_for_bit(self, zeros, runs, order):
        # signed zeros, then runs of equal values, cut to sizes 1-500 and shuffled or not;
        # where both neighbours are zeros, their signs set the sign of the result
        values = zeros + [value for value, count in runs for _ in range(count)]
        violations = np.array(values[:500])
        if order is not None:
            violations = np.random.default_rng(order).permutation(violations)
        before = violations.tobytes()
        assert bits(initial_eps(violations)) == bits(self.numpy_quantile(violations))
        assert violations.tobytes() == before

    def test_every_population_size_equals_numpy_quantile(self):
        # run accepts populations of 4 members and more
        rng = np.random.default_rng(23)
        for n in range(4, 501):
            violations = rng.exponential(1.0, n) * rng.choice([0.0, -0.0, 1.0, 1.0], n)
            violations[rng.random(n) < 0.05] = math.inf
            zeros = rng.choice([0.0, -0.0], n)
            for v in (violations, zeros):
                assert bits(initial_eps(v)) == bits(self.numpy_quantile(v)), n


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


def test_run_builds_neither_phase_class(monkeypatch):
    """run keeps its phase state in its trace and pull_start, not in the classes."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("run built a phase class")

    monkeypatch.setattr(PhaseTracker, "__init__", refuse)
    monkeypatch.setattr(EpsilonSchedule, "__init__", refuse)
    for algorithm in ("pps-de", "eps-de"):
        res = run(make_suite_problem("P1", 2),
                  RunConfig(algorithm=algorithm, learning_period=2, max_fes=400))
        assert PULL in res.trace.phase


def _run_config(**counts):
    return run(make_suite_problem("P1", 2), RunConfig(**{"max_fes": 100, **counts})).config


def _spec(**counts):
    return ExperimentSpec(**{"problems": (("P1", 2),), "algorithms": ("pps-de",), "runs": 1,
                             "base_seed": 0, "out_dir": "unused", "overrides": {}, **counts})


_WINS = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [5, 0, 0]])

# every count the package reads: the value stored or computed from one count,
# the name its error gives, and a whole value it accepts
_COUNT_SITES = {
    "PhaseTracker": (lambda v: PhaseTracker(v).learning_period, "learning period", 3),
    "StrategyStats": (lambda v: StrategyStats(v).window, "window", 3),
    "ParameterMemory": (lambda v: ParameterMemory(v).length, "memory length", 3),
    "strategy_rates": (lambda v: strategy_rates(_WINS, v).tolist(), "window", 3),
    "Problem": (lambda v: Problem(dim=v, lower=-1.0, upper=1.0,
                                  objective=lambda x: x.sum(axis=-1)).dim, "dim", 3),
    "make_suite_problem": (lambda v: make_suite_problem("P3", v).dim, "dim", 3),
    "seed": (lambda v: _run_config(seed=v).seed, "seed", 3),
    "n_pop": (lambda v: _run_config(n_pop=v).n_pop, "population size", 8),
    "top_size": (lambda v: _run_config(n_pop=8, top_size=v).top_size, "top size", 4),
    "max_fes": (lambda v: _run_config(max_fes=v).max_fes, "evaluation budget", 100),
    "learning_period": (lambda v: _run_config(learning_period=v).learning_period,
                        "learning period", 3),
    "runs": (lambda v: _spec(runs=v).runs, "runs", 3),
    "workers": (lambda v: _spec(workers=v).workers, "workers", 3),
    "base_seed": (lambda v: _spec(base_seed=v).base_seed, "seed", 3),
}
_NOT_COUNTS = {"2.5": 2.5, "nan": math.nan, "inf": math.inf, "str": "3", "None": None}
_DEFAULTED = ("n_pop", "top_size", "max_fes")  # None asks for the default


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{vid}")
    for site in _COUNT_SITES for vid, value in _NOT_COUNTS.items()
    if not (value is None and site in _DEFAULTED)])
def test_a_period_window_or_memory_length_must_be_whole(site, value):
    """Every count follows one rule: a value that is not a whole number raises ValueError."""
    read, what, _ = _COUNT_SITES[site]
    with pytest.raises(ValueError, match=f"{what} must be a whole number >= "):
        read(value)


@pytest.mark.parametrize("site", _COUNT_SITES)
def test_a_whole_float_count_is_kept_as_an_int(site):
    read, _, good = _COUNT_SITES[site]
    want, got = read(good), read(float(good))
    assert got == want and type(got) is type(want)
