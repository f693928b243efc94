import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsde import solver
from ppsde.de import ParameterMemory
from ppsde.phases import PULL, PUSH, SF, SWITCH_THRESHOLD
from ppsde.problems import BOUND_LIMIT, SUITE_IDS, Problem, evaluate, make_suite_problem
from ppsde.selection import (
    eps_key,
    key_less,
    pull_accept_mask,
    push_accept_mask,
    sf_accept_mask,
    sf_best_index,
    sf_better,
    sf_better_mask,
    sf_key,
)
from ppsde.solver import ALGORITHMS, RunConfig, _acceptance, _resolve, _top_race, run

from conftest import EPS, F, PHI, random_pairs, sf_better_reference
from reference import (
    accept_reference,
    delta_reference,
    race_reference,
    reference_run,
    strictly_better,
)


def small_run(algorithm="pps-de", pid="P2", dim=3, seed=0, **kw):
    prob = make_suite_problem(pid, dim)
    cfg = RunConfig(algorithm=algorithm, seed=seed, **kw)
    return run(prob, cfg)


class TestResolve:
    def test_defaults_scale_with_dimension(self):
        prob = make_suite_problem("P1", 10)
        cfg = _resolve(prob, RunConfig())
        assert cfg.n_pop == 50
        assert cfg.top_size == 25
        assert cfg.max_fes == 200000

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_defaults_run_a_one_dimensional_problem(self, algorithm):
        """Five times D=1 is below the smallest top part, so the default
        population is raised to 8, with a top part of 4."""
        problem = Problem(dim=1, lower=-5.0, upper=5.0,
                          objective=lambda xs: (xs**2).sum(axis=-1),
                          inequalities=(lambda xs: 0.5 - xs[..., 0],), name="ray")
        res = run(problem, RunConfig(algorithm=algorithm))
        assert (res.config.n_pop, res.config.top_size, res.config.max_fes) == (8, 4, 20000)
        assert res.best.phi == 0.0 and res.best.f == pytest.approx(0.25)

    def test_explicit_values_kept(self):
        prob = make_suite_problem("P1", 10)
        cfg = _resolve(prob, RunConfig(n_pop=30, top_size=12, max_fes=999))
        assert (cfg.n_pop, cfg.top_size, cfg.max_fes) == (30, 12, 999)
        # integral floats, as a config file may give them, resolve to ints
        cfg = _resolve(prob, RunConfig(seed=7.0, n_pop=30.0, top_size=12.0, max_fes=1e5,
                                       learning_period=4.0))
        resolved = (cfg.seed, cfg.n_pop, cfg.top_size, cfg.max_fes, cfg.learning_period)
        assert resolved == (7, 30, 12, 100000, 4)
        assert all(type(v) is int for v in resolved)

    def test_validation(self):
        prob = make_suite_problem("P1", 4)
        assert set(ALGORITHMS) == {"pps-de", "sf-de", "eps-de"}
        for algorithm in ALGORITHMS:
            _resolve(prob, RunConfig(algorithm=algorithm))
        with pytest.raises(ValueError):
            _resolve(prob, RunConfig(algorithm="nope"))
        with pytest.raises(ValueError):
            _resolve(prob, RunConfig(n_pop=3))
        with pytest.raises(ValueError):
            _resolve(prob, RunConfig(n_pop=10, top_size=3))
        with pytest.raises(ValueError):
            _resolve(prob, RunConfig(n_pop=10, top_size=11))
        with pytest.raises(ValueError):
            _resolve(prob, RunConfig(n_pop=10, max_fes=9))
        with pytest.raises(ValueError):
            _resolve(prob, RunConfig(learning_period=0))

    def test_run_config_holds_the_search_settings_only(self):
        # sigma belongs to the problem and pulling starts at initial_eps's level
        names = tuple(field.name for field in dataclasses.fields(RunConfig))
        assert names == ("algorithm", "seed", "n_pop", "top_size", "max_fes", "learning_period")
        for key in ("sigma", "eps_initial"):
            with pytest.raises(TypeError):
                RunConfig(**{key: 0.0})

    @pytest.mark.parametrize("bad", [
        {"n_pop": 3},
        {"learning_period": 2.5}, {"n_pop": 10.5},
        {"seed": -1}, {"seed": 2.5}, {"seed": math.nan}, {"seed": None},
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_invalid_config_rejected_before_the_first_evaluation(self, bad):
        prob = make_suite_problem("P2", 4)
        calls = []

        def counted(xs):
            calls.append(len(xs))
            return prob.objective(xs)

        counting = dataclasses.replace(prob, objective=counted)
        with pytest.raises(ValueError):
            run(counting, RunConfig(**{"seed": 0, "max_fes": 8000, **bad}))
        assert calls == []
        run(counting, RunConfig(seed=0, max_fes=200))
        assert calls


PUBLIC_ACCEPT = {
    PUSH: lambda phi_p, f_p, phi_t, f_t, eps: push_accept_mask(f_p, f_t),
    PULL: pull_accept_mask,
    SF: lambda phi_p, f_p, phi_t, f_t, eps: sf_accept_mask(phi_p, f_p, phi_t, f_t),
}


def _key(mode, eps):
    # the key function run() picks for a generation; it pushes at eps = inf
    return sf_key if mode == SF else lambda phi, f: eps_key(phi, f, eps)


class TestStrictlyBetter:
    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(PHI, F, PHI, F), min_size=1, max_size=20),
           eps=EPS, mode=st.sampled_from(sorted(PUBLIC_ACCEPT)))
    def test_run_acceptance_and_delta_equal_the_references(self, pairs, eps, mode):
        """Every mode: run()'s acceptance and improvement, decided on the
        mode's key, equal the case-by-case references bit for bit, the
        reference acceptance equals the public mask, and strictly-better is
        a smaller key."""
        phi_new, f_new, phi_old, f_old = (np.array(col) for col in zip(*pairs))
        if mode == PUSH:
            eps = math.inf
        key = _key(mode, eps)
        for (phi_p, f_p), (phi_t, f_t) in (((phi_old, f_old), (phi_new, f_new)),
                                           ((phi_new, f_new), (phi_old, f_old))):
            with np.errstate(invalid="ignore"):  # inf - inf, where both phi are inf
                accept, delta = _acceptance(key(phi_p, f_p), key(phi_t, f_t), phi_p, phi_t)
                expected_delta = delta_reference(mode, phi_p, f_p, phi_t, f_t, eps)
            # the reference's improvement between two infinite violations is
            # |inf - inf| = NaN under sf; the keys tie there, and a tie improves by 0
            expected_delta[np.isnan(expected_delta)] = 0.0
            expected = accept_reference(mode, phi_p, f_p, phi_t, f_t, eps)
            np.testing.assert_array_equal(accept, expected)
            np.testing.assert_array_equal(delta, expected_delta)
            np.testing.assert_array_equal(
                expected, PUBLIC_ACCEPT[mode](phi_p, f_p, phi_t, f_t, eps))
        expected = strictly_better(mode, phi_new, f_new, phi_old, f_old, eps)
        np.testing.assert_array_equal(key_less(key(phi_new, f_new), key(phi_old, f_old)),
                                      expected)
        if mode == SF:
            np.testing.assert_array_equal(
                expected, sf_better_reference(phi_new, f_new, phi_old, f_old))

    def test_equal_infeasible_violations_improve_by_zero_under_sf(self):
        # the violation decides and ties, so the objective's change is no improvement
        accept, delta = _acceptance(sf_key(0.5, 1.0), sf_key(0.5, -3.0), 0.5, 0.5)
        assert accept and delta == 0.0

    def test_an_improvement_beyond_the_largest_double_is_infinite(self):
        # objectives of opposite sign near the largest double, and a finite
        # violation replacing an infinite one; pytest turns a warning into an error
        phi, f = np.array([0.0, 0.0, math.inf]), np.array([1e308, 1e308, 1.0])
        cand_phi, cand_f = np.array([0.0, math.inf, 0.5]), np.array([-1e308, 1.0, 1.0])
        for key in (sf_key, _key(PULL, 0.0), _key(PUSH, math.inf)):
            accept, delta = _acceptance(key(phi, f), key(cand_phi, cand_f), phi, cand_phi)
            assert accept[0] and delta[0] == math.inf
            np.testing.assert_array_equal(accept[2:], True)
            assert not np.isnan(delta).any()

    @pytest.mark.parametrize("mode", [PUSH, PULL, SF])
    def test_key_order_equals_strictly_better_on_random_pairs(self, mode):
        rng = np.random.default_rng(24)
        phi_a, f_a = random_pairs(rng, 5000)
        phi_b, f_b = random_pairs(rng, 5000)
        # copy some points so that exact ties occur
        tied = rng.random(5000) < 0.2
        phi_b[tied], f_b[tied] = phi_a[tied], f_a[tied]
        eps = math.inf if mode == PUSH else 0.5
        key = _key(mode, eps)
        for a, b in (((phi_a, f_a), (phi_b, f_b)), ((phi_b, f_b), (phi_a, f_a))):
            np.testing.assert_array_equal(key_less(key(*a), key(*b)),
                                          strictly_better(mode, *a, *b, eps))


class TestTopRace:
    @settings(max_examples=300, deadline=None)
    @given(triples=st.lists(st.lists(st.tuples(PHI, F), min_size=3, max_size=3),
                            min_size=1, max_size=12),
           eps=EPS, mode=st.sampled_from([PUSH, PULL, SF]), copies=st.data())
    def test_winner_and_credit_equal_the_pairwise_reference(self, triples, eps, mode, copies):
        """On tie-rich (phi, f) triples: the winner is the earliest best trial
        and it is credited only when strictly better than both others."""
        if mode == PUSH:
            eps = math.inf
        block = np.array(triples, dtype=float).transpose(2, 1, 0)  # (phi|f, strategy, target)
        # copy trials within a target so that two- and three-way ties occur
        for col in range(block.shape[2]):
            src, dst = copies.draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
            if copies.draw(st.booleans()):
                block[:, dst, col] = block[:, src, col]
        phi, f = block
        winner, outright = _top_race(*_key(mode, eps)(phi, f))
        expected_winner, expected_outright = race_reference(mode, phi, f, eps)
        np.testing.assert_array_equal(winner, expected_winner)
        np.testing.assert_array_equal(outright, expected_outright)

    def test_ties_take_the_earliest_trial_and_credit_none(self):
        # a three-way tie with both signed zeros, and a tie of the last two
        phi, f = np.zeros((3, 2)), np.array([[0.0, 2.0], [-0.0, 1.0], [0.0, 1.0]])
        for mode, eps in ((PUSH, math.inf), (PULL, 0.0), (SF, math.nan)):
            winner, outright = _top_race(*_key(mode, eps)(phi, f))
            np.testing.assert_array_equal(winner, [0, 1])
            np.testing.assert_array_equal(outright, [False, False])


class TestBestSoFar:
    # run() keeps the feasibility-first minimum of each generation when
    # sf_better says it beats the incumbent
    def test_picks_feasibility_first_minimum(self):
        assert sf_best_index([3.0, 1.0, 2.0], [0.0, 0.2, 0.0]) == 2

    def test_tie_keeps_incumbent(self):
        f, phi = np.array([2.0, 5.0]), np.zeros(2)
        best = sf_best_index(f, phi)
        assert not sf_better(float(phi[best]), float(f[best]), 0.0, 2.0)

    def test_strictly_better_candidate_replaces(self):
        assert sf_better(0.0, 1.5, 0.0, 2.0)

    @settings(max_examples=500, deadline=None)
    @given(phi_a=PHI, f_a=F, phi_b=PHI, f_b=F, tie=st.booleans())
    def test_float_rule_equals_the_public_mask(self, phi_a, f_a, phi_b, f_b, tie):
        if tie:
            phi_b, f_b = phi_a, f_a
        expected = sf_better_reference(phi_a, f_a, phi_b, f_b)
        got = sf_better(phi_a, f_a, phi_b, f_b)
        assert type(got) is bool and got == bool(expected)
        assert got == bool(sf_better_mask(phi_a, f_a, phi_b, f_b))


class TestBudgetAccounting:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 5), algorithm=st.sampled_from(ALGORITHMS))
    def test_fes_ledger_small_run(self, data, dim, algorithm):
        """A run makes (max_fes - N) // (3T + N - T) whole generations, charges
        N + (3T + N - T)(g + 1) evaluations by generation g, and keeps one
        trace row per generation, also when it makes none."""
        n = data.draw(st.integers(4, 20), label="n_pop")
        t = data.draw(st.integers(4, n), label="top_size")
        cost = 3 * t + n - t
        max_fes = data.draw(st.integers(n, n + 6 * cost), label="max_fes")
        res = small_run(algorithm=algorithm, pid="P1", dim=dim, n_pop=n, top_size=t,
                        max_fes=max_fes)
        gens = res.generations
        assert gens == (max_fes - n) // cost
        np.testing.assert_array_equal(res.trace.generation, np.arange(gens))
        np.testing.assert_array_equal(res.trace.fes, n + cost * (np.arange(gens) + 1))
        assert res.final_fes == n + cost * gens
        assert res.final_fes <= max_fes < res.final_fes + cost
        for field in dataclasses.fields(res.trace):
            assert len(getattr(res.trace, field.name)) == gens, field.name
        for column in (res.trace.sr, res.trace.wins, res.trace.bottom_strategies):
            assert column.shape == (gens, 3)
        kinds = {field.name: getattr(res.trace, field.name).dtype.kind
                 for field in dataclasses.fields(res.trace)}
        expected = dict.fromkeys(kinds, "f")
        expected.update(generation="i", fes="i", wins="i", bottom_strategies="i", phase="U")
        assert kinds == expected

    def test_partial_generation_never_starts(self):
        res = small_run(pid="P1", dim=5, max_fes=25 + 5 * 49 - 1)
        assert res.generations == 4
        assert res.final_fes == 25 + 4 * 49

    def test_budget_below_one_generation(self):
        res = small_run(pid="P1", dim=5, max_fes=30)
        assert res.generations == 0
        assert res.final_fes == 25
        assert res.trace.fes.size == 0


class TestRunInvariants:
    def test_push_phase_population_minimum_never_rises(self):
        res = small_run(pid="P5", dim=3, max_fes=4000, seed=1)
        push = res.trace.phase == "push"
        mins = res.trace.pop_min_f[push]
        assert mins.size > 0
        assert np.all(np.diff(mins) <= 0.0)

    @settings(max_examples=40, deadline=None)
    @given(pid=st.sampled_from(["P1", "P2", "P3", "P4", "P5"]),
           algorithm=st.sampled_from(ALGORITHMS), seed=st.integers(0, 2**16),
           dim=st.integers(2, 4), max_fes=st.integers(20, 1500))
    def test_reported_best_never_degrades(self, pid, algorithm, seed, dim, max_fes):
        """No trace row is feasibility-first better than a later one, the
        incumbent is the last row, and re-evaluating it reproduces it,
        constraint values included."""
        problem = make_suite_problem(pid, dim)
        res = run(problem, RunConfig(algorithm=algorithm, seed=seed, max_fes=max_fes))
        f, phi = res.trace.best_f, res.trace.best_phi
        row_better = sf_better_mask(phi[:, None], f[:, None], phi[None, :], f[None, :])
        assert not np.triu(row_better, k=1).any()
        if res.generations:
            assert (f[-1], phi[-1]) == (res.best.f, res.best.phi)
        again = evaluate(problem, res.best.x)
        assert (again.f, again.phi) == (res.best.f, res.best.phi)
        np.testing.assert_array_equal(res.best.evaluation.g_values, again.g_values)
        np.testing.assert_array_equal(res.best.evaluation.h_values, again.h_values)

    def test_phase_column_is_push_then_pull(self):
        res = small_run(pid="P2", dim=3, max_fes=6000, seed=3)
        phases = list(res.trace.phase)
        assert set(phases) <= {"push", "pull"}
        if "pull" in phases:
            first = phases.index("pull")
            assert all(p == "push" for p in phases[:first])
            assert all(p == "pull" for p in phases[first:])
            assert res.switch_generation == first - 1
        push_rows = res.trace.phase == "push"
        assert np.all(np.isinf(res.trace.eps[push_rows]))
        pull_rows = ~push_rows
        assert np.all(np.isfinite(res.trace.eps[pull_rows]))
        assert np.all(res.trace.eps[pull_rows] >= 0.0)

    def test_a_rate_at_the_threshold_switches(self, monkeypatch):
        # the switch test is rate <= SWITCH_THRESHOLD, so a rate of exactly
        # the threshold at generation g switches there and pulls from g + 1
        g = 6
        monkeypatch.setattr(solver, "change_rate", lambda minima, period:
                            SWITCH_THRESHOLD if len(minima) == g + 1 else 1.0)
        res = small_run(pid="P2", dim=3, max_fes=1500, seed=3)
        assert res.generations > g + 1
        assert res.trace.rate[g] == SWITCH_THRESHOLD
        assert res.switch_generation == g
        assert list(res.trace.phase[g:g + 2]) == [PUSH, PULL]

    def test_win_and_pick_counts_account_for_everyone(self):
        # a top race whose best trials tie credits no strategy, so the wins
        # of a generation are at most the top size
        res = small_run(pid="P2", dim=3, max_fes=2000, seed=4)
        t = res.config.top_size
        assert np.all(res.trace.wins.sum(axis=1) <= t)
        assert res.trace.wins[0].sum() == t
        assert np.all(res.trace.bottom_strategies.sum(axis=1) == res.config.n_pop - t)
        np.testing.assert_allclose(res.trace.sr.sum(axis=1), 1.0, atol=1e-12)

    def test_rate_warmup_and_baseline_nan(self):
        res = small_run(pid="P2", dim=3, max_fes=3000, seed=5, learning_period=10)
        assert np.all(res.trace.rate[:10] == 1.0)
        base = small_run(algorithm="sf-de", pid="P2", dim=3, max_fes=1000, seed=5)
        assert np.all(np.isnan(base.trace.rate))

    def test_best_matches_final_trace_row(self):
        res = small_run(pid="P2", dim=3, max_fes=3000, seed=6)
        assert res.trace.best_f[-1] == res.best.f
        assert res.trace.best_phi[-1] == res.best.phi

    def test_determinism(self):
        """Two runs of one config are equal in every result and trace field."""
        a = small_run(pid="P3", dim=3, max_fes=3000, seed=7)
        b = small_run(pid="P3", dim=3, max_fes=3000, seed=7)
        for field in dataclasses.fields(solver.RunTrace):
            np.testing.assert_array_equal(getattr(a.trace, field.name),
                                          getattr(b.trace, field.name), err_msg=field.name)
        np.testing.assert_array_equal(a.best.x, b.best.x)
        for field in dataclasses.fields(a.best.evaluation):
            np.testing.assert_array_equal(getattr(a.best.evaluation, field.name),
                                          getattr(b.best.evaluation, field.name),
                                          err_msg=field.name)
        for field in dataclasses.fields(solver.RunResult):
            if field.name not in ("best", "trace"):
                assert getattr(a, field.name) == getattr(b, field.name), field.name

    def test_run_reads_sigma_from_the_problem(self):
        problem = make_suite_problem("P3", 3)
        loose = dataclasses.replace(problem, sigma=0.5)
        res = run(loose, RunConfig(seed=12, max_fes=1500))
        again = evaluate(loose, res.best.x)
        assert (again.f, again.phi) == (res.best.f, res.best.phi)
        assert evaluate(problem, res.best.x).phi > res.best.phi
        assert res.problem_name == problem.name

    def test_different_seeds_differ(self):
        a = small_run(pid="P3", dim=3, max_fes=2000, seed=8)
        b = small_run(pid="P3", dim=3, max_fes=2000, seed=9)
        assert not np.array_equal(a.best.x, b.best.x)

    def test_vacuous_constraint_changes_nothing(self):
        # the first suite problem's inequality can never activate inside the
        # box, so stripping it must reproduce the identical run
        prob = make_suite_problem("P1", 3)
        stripped = dataclasses.replace(prob, inequalities=())
        cfg = RunConfig(seed=10, max_fes=3000)
        a, b = run(prob, cfg), run(stripped, cfg)
        np.testing.assert_array_equal(a.trace.best_f, b.trace.best_f)
        np.testing.assert_array_equal(a.trace.pop_min_f, b.trace.pop_min_f)
        np.testing.assert_array_equal(a.best.x, b.best.x)

    def test_top_only_population(self):
        res = small_run(pid="P2", dim=3, n_pop=8, top_size=8, max_fes=500, seed=11)
        assert res.generations > 0
        assert np.all(res.trace.wins.sum(axis=1) <= 8)
        assert np.all(res.trace.bottom_strategies == 0)
        np.testing.assert_array_equal(res.trace.fes, 8 + 24 * np.arange(1, res.generations + 1))


class TestReferenceRun:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(4, 12), dim=st.integers(2, 4),
           algorithm=st.sampled_from(ALGORITHMS), pid=st.sampled_from(SUITE_IDS),
           seed=st.integers(0, 2**32 - 1), learning_period=st.integers(2, 10),
           sigma=st.none() | st.sampled_from([0.0, 1e-3, 0.5]))
    def test_run_equals_the_per_member_reference_bit_for_bit(
            self, data, n, dim, algorithm, pid, seed, learning_period, sigma):
        """Thirty generations of run() equal the plain per-member reference in
        every trace field, the best point and the switch generation, on a
        suite problem at its own sigma or at a drawn one."""
        t = data.draw(st.integers(4, n), label="top_size")
        config = RunConfig(algorithm=algorithm, seed=seed, n_pop=n, top_size=t,
                           max_fes=n + 30 * (3 * t + n - t), learning_period=learning_period)
        problem = make_suite_problem(pid, dim)
        if sigma is not None:
            problem = dataclasses.replace(problem, sigma=sigma)
        got, want = run(problem, config), reference_run(problem, config)
        for field in dataclasses.fields(solver.RunTrace):
            ours = getattr(got.trace, field.name)
            theirs = np.array(want.trace[field.name], dtype=ours.dtype)
            np.testing.assert_array_equal(ours, theirs, err_msg=field.name)
            assert ours.tobytes() == theirs.tobytes(), field.name
        x, evaluation = want.best
        assert got.best.x.tobytes() == x.tobytes()
        for field in dataclasses.fields(evaluation):
            assert (np.asarray(getattr(got.best.evaluation, field.name)).tobytes()
                    == np.asarray(getattr(evaluation, field.name)).tobytes()), field.name
        assert got.switch_generation == want.switch_generation


def _count_calls(monkeypatch, owner, name, log, rows):
    # wrap owner.name so that each call, once made, appends rows(*args, **kwargs) to log
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        log.append(rows(*args, **kwargs))
        return out

    monkeypatch.setattr(owner, name, counted)


class TestOffspringStep:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("n_pop, top_size", [(12, 6), (8, 8)])
    def test_one_sample_one_trial_block_one_evaluation_per_generation(
            self, monkeypatch, algorithm, n_pop, top_size):
        sampled, built, evaluated = [], [], []
        _count_calls(monkeypatch, ParameterMemory, "sample_parameters_many", sampled,
                     lambda memory, strategies, size, rng: size)
        _count_calls(monkeypatch, solver, "make_trials", built,
                     lambda pop, targets, *rest: len(targets))
        _count_calls(monkeypatch, solver, "evaluate_many", evaluated,
                     lambda problem, xs: len(xs))
        res = small_run(algorithm=algorithm, pid="P2", dim=3, n_pop=n_pop, top_size=top_size,
                        max_fes=1500, seed=2)
        rows = [3 * top_size + n_pop - top_size] * res.generations
        assert res.generations > 0
        assert sampled == rows
        assert built == rows
        assert evaluated == [n_pop] + rows

    def test_picks_read_the_window_of_the_generations_before(self, monkeypatch):
        """Generation G's bottom picks are drawn from the win shares of the
        races of generations G - LP ... G - 1, uniform while G < LP, as in
        SaDE, with each generation's race read from trace.wins; trace.sr
        holds those rates."""
        rates = []
        _count_calls(monkeypatch, solver, "select_strategies", rates,
                     lambda sr, size, rng: np.array(sr))
        period = 4
        res = small_run(pid="P2", dim=3, max_fes=3000, seed=3, learning_period=period)
        wins = res.trace.wins
        assert len(rates) == len(wins) == res.generations
        for generation, got in enumerate(rates):
            window = wins[generation - period:generation].sum(axis=0)
            if generation < period or window.sum() == 0:
                expected = np.full(3, 1.0 / 3)
            else:
                expected = window / window.sum()
            np.testing.assert_array_equal(got, expected, err_msg=f"generation {generation}")
        np.testing.assert_array_equal(res.trace.sr, np.array(rates))

    @pytest.mark.parametrize("force_win_strategy", [None, 1])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_one_key_evaluation_per_generation(self, monkeypatch, algorithm,
                                               force_win_strategy):
        """The phase key is evaluated once per generation, over the block of
        the N members and the 3T + N - T trials; the race reads the top
        trials' keys from it."""
        calls = []
        for name in ("eps_key", "sf_key"):
            _count_calls(monkeypatch, solver, name, calls,
                         lambda phi, f, eps=None, name=name: (name, len(phi)))
        n_pop, top_size = 12, 6
        res = run(make_suite_problem("P2", 3),
                  RunConfig(algorithm=algorithm, seed=4, n_pop=n_pop, top_size=top_size,
                            max_fes=1500, learning_period=4),
                  force_win_strategy=force_win_strategy)
        key = "sf_key" if algorithm == "sf-de" else "eps_key"
        assert res.generations > 0
        assert calls == [(key, n_pop + 3 * top_size + n_pop - top_size)] * res.generations
        if algorithm == "pps-de":
            # both phases evaluate the one key
            assert set(res.trace.phase) == {PUSH, PULL}


def _overflow_problem(magnitudes):
    # a 4-D sphere around (1, 1, 1, 1), whose two inequality constraints
    # return a finite magnitude up to the largest double where x0 > 0 and
    # where x1 > 0; where both hold, their sum overflows to an infinite
    # violation
    def constraint(j):
        return lambda xs: np.where(xs[..., j] > 0.0, magnitudes[j], xs[..., j] - 1.0)

    return Problem(dim=4, lower=-5.0, upper=5.0,
                   objective=lambda xs: ((xs - 1.0) ** 2).sum(axis=-1),
                   inequalities=(constraint(0), constraint(1)), name="overflow")


class TestOverflow:
    @settings(max_examples=12, deadline=None)
    @given(magnitudes=st.lists(st.sampled_from([1e308, np.finfo(float).max])
                               | st.floats(1.0, np.finfo(float).max), min_size=2, max_size=2),
           seed=st.integers(0, 2**16))
    def test_runs_on_overflowing_violations_stay_finite(self, magnitudes, seed):
        """Every algorithm runs without an error or a RuntimeWarning, and
        its memory cells and relaxation levels stay finite, where the
        violations reach the largest double and overflow in their sum."""
        problem = _overflow_problem(magnitudes)
        for algorithm in ALGORITHMS:
            cells = []  # the memories after each generation's fold
            with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                _count_calls(mp, ParameterMemory, "fold_successes", cells,
                             lambda memory, *successes: (memory.f_memory.copy(),
                                                         memory.cr_memory.copy()))
                res = run(problem, RunConfig(algorithm=algorithm, seed=seed, max_fes=3000,
                                             learning_period=10))
            assert res.generations > 0 and len(cells) == res.generations
            assert np.isfinite(cells).all()
            pulling = res.trace.phase == PULL
            assert np.isfinite(res.trace.eps[pulling]).all()
            if algorithm == "eps-de":
                assert pulling.all()

    @pytest.mark.parametrize("lower, upper", [
        (-BOUND_LIMIT, BOUND_LIMIT),
        (-BOUND_LIMIT, -BOUND_LIMIT / 2),
        (BOUND_LIMIT / 2, BOUND_LIMIT),
    ], ids=["whole", "negative", "positive"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_widest_boxes_run_without_overflow(self, lower, upper, algorithm):
        """Trials and repairs on a box whose bounds reach BOUND_LIMIT raise
        no RuntimeWarning; pytest turns one into an error."""
        problem = Problem(dim=2, lower=lower, upper=upper,
                          objective=lambda xs: xs.mean(axis=-1),
                          inequalities=(lambda xs: xs[..., 1] - xs[..., 0],), name="widest")
        for seed in range(3):
            res = run(problem, RunConfig(algorithm=algorithm, seed=seed, max_fes=2000))
            assert res.generations > 0 and np.isfinite(res.best.f)
            assert np.all((lower <= res.best.x) & (res.best.x <= upper))


class TestBaselines:
    def test_sf_de_trace_shape(self):
        res = small_run(algorithm="sf-de", pid="P2", dim=3, max_fes=1500, seed=12)
        assert set(res.trace.phase) == {"sf"}
        assert np.all(np.isnan(res.trace.eps))
        assert res.switch_generation is None

    def test_eps_de_trace_shape(self):
        res = small_run(algorithm="eps-de", pid="P2", dim=3, max_fes=1500, seed=12)
        assert set(res.trace.phase) == {"pull"}
        assert np.all(np.isfinite(res.trace.eps))
        assert np.all(res.trace.eps >= 0.0)
        assert res.switch_generation is None

    def test_eps_de_level_zero_past_cutoff(self):
        # D=4: 20 members, cost 40; cutoff = 0.9 * 4000 / 40 = 90 generations
        res = small_run(algorithm="eps-de", pid="P2", dim=4, max_fes=4000, seed=13)
        assert res.generations > 90
        assert np.all(res.trace.eps[90:] == 0.0)
        assert res.trace.eps[0] > 0.0

    def test_eps_cutoff_is_a_share_of_the_generations(self):
        # 8 members all in the top part cost 24 evaluations a generation, so
        # 2408 evaluations make 100 generations and the cutoff is 0.9 * 100
        res = small_run(algorithm="eps-de", pid="P2", dim=3, n_pop=8, top_size=8,
                        max_fes=2408, seed=0)
        assert res.generations == 100
        assert np.all(res.trace.eps[90:] == 0.0)
        assert np.all(res.trace.eps[:90] > 0.0)

    def test_eps_de_at_zero_level_equals_sf_de(self, monkeypatch):
        # at relaxation zero the relaxed rule differs from feasibility-first
        # comparison only between equal positive violations, which this run
        # never meets, so the runs must coincide
        monkeypatch.setattr(solver, "initial_eps", lambda violations: 0.0)
        a = small_run(algorithm="eps-de", pid="P2", dim=3, max_fes=2500, seed=14)
        assert np.all(a.trace.eps == 0.0)
        b = small_run(algorithm="sf-de", pid="P2", dim=3, max_fes=2500, seed=14)
        np.testing.assert_array_equal(a.trace.best_f, b.trace.best_f)
        np.testing.assert_array_equal(a.trace.best_phi, b.trace.best_phi)
        np.testing.assert_array_equal(a.trace.pop_min_f, b.trace.pop_min_f)
        np.testing.assert_array_equal(a.trace.sr, b.trace.sr)
        np.testing.assert_array_equal(a.trace.wins, b.trace.wins)
        np.testing.assert_array_equal(a.trace.fes, b.trace.fes)
        np.testing.assert_array_equal(a.best.x, b.best.x)


class TestForcedWins:
    def test_forced_strategy_dominates_selection(self):
        prob = make_suite_problem("P2", 3)
        res = run(prob, RunConfig(seed=15, max_fes=3000, learning_period=4),
                  force_win_strategy=1)
        t = res.config.top_size
        np.testing.assert_array_equal(res.trace.wins[:, 1], t)
        assert np.all(res.trace.wins[:, [0, 2]] == 0)
        settled = res.trace.generation >= 4
        np.testing.assert_array_equal(res.trace.sr[settled],
                                      np.tile([0.0, 1.0, 0.0], (settled.sum(), 1)))
        bottom = res.trace.bottom_strategies[settled]
        assert np.all(bottom[:, 1] == res.config.n_pop - t)

    def test_invalid_strategy_index_rejected(self):
        prob = make_suite_problem("P1", 3)
        with pytest.raises(ValueError):
            run(prob, RunConfig(max_fes=500), force_win_strategy=5)


class TestConvergenceSmoke:
    def test_easy_sphere_to_high_precision(self):
        res = small_run(pid="P1", dim=5, max_fes=100000, seed=16)
        assert res.best.phi == 0.0
        assert res.best.f <= 1e-8
        # the run spends the budget and records the switch
        assert res.switch_generation is not None
        assert res.final_fes <= 100000
