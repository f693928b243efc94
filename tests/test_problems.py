import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import minimize

from ppsde import (
    SUITE_IDS,
    EvaluationError,
    Problem,
    canonical_problem_id,
    evaluate,
    evaluate_many,
    make_suite_problem,
    overall_violation,
)


class TestOverallViolation:
    def test_inequalities_contribute_positive_part(self):
        assert overall_violation(np.array([-1.0, 0.5]), np.empty(0), 1e-4) == 0.5

    def test_satisfied_inequality_is_free(self):
        assert overall_violation(np.array([-3.0, 0.0]), np.empty(0), 1e-4) == 0.0

    def test_equality_within_tolerance_is_free(self):
        assert overall_violation(np.empty(0), np.array([5e-5]), 1e-4) == 0.0
        assert overall_violation(np.empty(0), np.array([-1e-4]), 1e-4) == 0.0

    def test_equality_beyond_tolerance_counts_excess(self):
        assert_allclose(overall_violation(np.empty(0), np.array([2e-4]), 1e-4), 1e-4)
        assert_allclose(overall_violation(np.empty(0), np.array([-0.3]), 1e-4), 0.3 - 1e-4)

    def test_zero_sigma_requires_exact_equality(self):
        assert overall_violation(np.empty(0), np.array([0.0]), 0.0) == 0.0
        assert overall_violation(np.empty(0), np.array([1e-300]), 0.0) > 0.0

    def test_no_constraints_means_zero(self):
        assert overall_violation(np.empty(0), np.empty(0), 1e-4) == 0.0

    def test_batched_last_axis(self):
        g = np.array([[0.5, -1.0], [-1.0, -1.0]])
        h = np.array([[0.1], [0.0]])
        out = overall_violation(g, h, 1e-4)
        assert_allclose(out, [0.5 + 0.1 - 1e-4, 0.0])

    def test_randomized_nonnegative_and_zero_iff_satisfied(self):
        rng = np.random.default_rng(7)
        sigma = 1e-4
        for _ in range(500):
            g = rng.normal(0, 1, rng.integers(0, 4))
            h = rng.normal(0, 1, rng.integers(0, 4))
            phi = overall_violation(g, h, sigma)
            assert phi >= 0.0
            satisfied = np.all(g <= 0) and np.all(np.abs(h) <= sigma)
            assert (phi == 0.0) == satisfied


class TestProblemConstruction:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            Problem(dim=2, lower=1.0, upper=1.0, objective=lambda x: np.sum(x, axis=-1))

    def test_sigma_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Problem(dim=2, lower=0.0, upper=1.0,
                    objective=lambda x: np.sum(x, axis=-1), sigma=-1e-9)

    def test_bounds_broadcast_and_frozen(self):
        prob = Problem(dim=3, lower=-1.0, upper=2.0, objective=lambda x: np.sum(x, axis=-1))
        assert_array_equal(prob.lower, [-1.0, -1.0, -1.0])
        assert_array_equal(prob.upper, [2.0, 2.0, 2.0])
        with pytest.raises(ValueError):
            prob.lower[0] = 5.0

    def test_with_sigma_copies(self):
        prob = make_suite_problem("P3", 4)
        loose = prob.with_sigma(0.01)
        assert loose.sigma == 0.01 and prob.sigma == 1e-4
        assert loose.name == prob.name


class TestEvaluate:
    def test_shape_checked(self):
        prob = make_suite_problem("P1", 4)
        with pytest.raises(ValueError):
            evaluate(prob, np.zeros(3))

    def test_bounds_checked(self):
        prob = make_suite_problem("P1", 4)
        with pytest.raises(ValueError):
            evaluate(prob, np.full(4, 5.5))

    def test_feasibility_is_exact_zero(self):
        prob = make_suite_problem("P2", 4)
        on = evaluate(prob, np.full(4, 0.25))
        assert on.phi == 0.0
        off = evaluate(prob, np.full(4, 0.2))
        assert off.phi > 0.0

    def test_nonfinite_objective_reports_index(self):
        prob = Problem(dim=2, lower=-1.0, upper=1.0,
                       objective=lambda x: np.full(x.shape[0], np.nan))
        with pytest.raises(EvaluationError) as err:
            evaluate_many(prob, np.zeros((3, 2)))
        assert err.value.kind == "objective"

    def test_nonfinite_constraint_reports_index(self):
        prob = Problem(
            dim=2, lower=-1.0, upper=1.0,
            objective=lambda x: np.sum(x, axis=-1),
            inequalities=(lambda x: np.sum(x, axis=-1),
                          lambda x: np.full(x.shape[0], np.inf)),
        )
        with pytest.raises(EvaluationError) as err:
            evaluate_many(prob, np.zeros((3, 2)))
        assert err.value.kind == "inequality"
        assert err.value.index == 1

    def test_scalar_callables_via_vectorized_false(self):
        vec = make_suite_problem("P2", 3)
        scal = Problem(
            dim=3, lower=-5.0, upper=5.0,
            objective=lambda x: float(np.sum(x**2)),
            inequalities=(lambda x: float(1.0 - np.sum(x)),),
            vectorized=False,
        )
        rng = np.random.default_rng(3)
        xs = rng.uniform(-5, 5, (20, 3))
        for a, b in zip(evaluate_many(vec, xs), evaluate_many(scal, xs)):
            assert_allclose(a, b)

    def test_batch_matches_single(self):
        prob = make_suite_problem("P5", 4)
        rng = np.random.default_rng(11)
        xs = rng.uniform(-5, 5, (10, 4))
        f, g, h, phi = evaluate_many(prob, xs)
        for i, x in enumerate(xs):
            ev = evaluate(prob, x)
            assert ev.f == f[i]
            assert_array_equal(ev.g_values, g[i])
            assert ev.phi == phi[i]


class TestSuite:
    @pytest.mark.parametrize("pid", SUITE_IDS)
    @pytest.mark.parametrize("dim", [2, 5, 10])
    def test_known_optimizer_attains_known_optimum(self, pid, dim):
        prob = make_suite_problem(pid, dim)
        ev = evaluate(prob, prob.known_optimizer)
        assert ev.phi == 0.0
        assert abs(ev.f - prob.known_optimum) <= 1e-12

    def test_ids_resolve(self):
        assert canonical_problem_id("P2") == "P2-active-linear"
        assert canonical_problem_id("p4") == "P4-disconnected"
        assert canonical_problem_id("P5-rosenbrock-ball") == "P5-rosenbrock-ball"
        with pytest.raises(ValueError):
            canonical_problem_id("P9")

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            make_suite_problem("P1", 1)

    def test_p1_constraint_never_active_in_bounds(self):
        prob = make_suite_problem("P1", 6)
        rng = np.random.default_rng(5)
        xs = rng.uniform(-5, 5, (200, 6))
        _, _, _, phi = evaluate_many(prob, xs)
        assert np.all(phi == 0.0)

    def test_p4_islands_and_gap(self):
        prob = make_suite_problem("P4", 6)
        assert evaluate(prob, np.zeros(6)).phi == 0.0
        assert evaluate(prob, np.full(6, 2.0)).phi == 0.0
        between = evaluate(prob, np.full(6, 1.0))
        assert between.phi == 0.5  # gap point, half a unit from either cube
        corner = evaluate(prob, np.full(6, 0.5))
        assert corner.phi == 0.0

    def test_p5_ball_boundary(self):
        dim = 6
        prob = make_suite_problem("P5", dim)
        on_boundary = np.array([2.0, 2.0, 2.0, 0.0, 0.0, 0.0])  # sum of squares = 2 * dim
        assert evaluate(prob, on_boundary).phi == 0.0
        outside = np.full(dim, 2.0)
        assert evaluate(prob, outside).phi > 0.0

    @pytest.mark.parametrize("pid,dim", [("P2", 6), ("P3", 6), ("P5", 6)])
    def test_optima_against_local_search_oracle(self, pid, dim):
        # independent check of the recorded optima: multi-start constrained
        # local search with exact equalities must land on the same value
        prob = make_suite_problem(pid, dim)

        def objective(x):
            return float(prob.objective(x[None, :])[0])

        constraints = [{"type": "ineq", "fun": (lambda x, fn=fn: -fn(x[None, :])[0])}
                       for fn in prob.inequalities]
        constraints += [{"type": "eq", "fun": (lambda x, fn=fn: fn(x[None, :])[0])}
                        for fn in prob.equalities]
        rng = np.random.default_rng(17)
        found = np.inf
        starts = [prob.known_optimizer + rng.normal(0, 0.3, dim) for _ in range(8)]
        starts += [rng.uniform(-2, 2, dim) for _ in range(8)]
        for x0 in starts:
            res = minimize(objective, np.clip(x0, -5, 5), method="SLSQP",
                           bounds=[(-5.0, 5.0)] * dim, constraints=constraints,
                           options={"maxiter": 500, "ftol": 1e-12})
            if res.success:
                found = min(found, res.fun)
        assert abs(found - prob.known_optimum) <= 1e-6
