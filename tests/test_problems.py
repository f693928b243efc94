import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
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
from ppsde.problems import BOUND_LIMIT


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

    @pytest.mark.parametrize("lower,upper", [
        (-np.inf, 1.0), (0.0, np.inf), (-np.inf, np.inf),
        # finite bounds whose width overflows: rng.uniform cannot sample them
        (-1e308, 1e308), ([0.0, -1e308], [1.0, 1e308]),
    ])
    def test_box_must_be_finite_with_a_finite_width(self, lower, upper):
        with pytest.raises(ValueError, match="must be finite"):
            Problem(dim=2, lower=lower, upper=upper, objective=lambda x: np.sum(x, axis=-1))

    @pytest.mark.parametrize("lower,upper", [
        (-8e307, 8e307), (-1.7e308, -1.6e308),
        (BOUND_LIMIT, np.nextafter(BOUND_LIMIT, np.inf)),
        (-np.nextafter(BOUND_LIMIT, np.inf), 0.0),
    ], ids=["donor-overflow", "midpoint-overflow", "upper-above", "lower-below"])
    def test_bound_beyond_the_limit_is_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="must be finite, of magnitude at most"):
            Problem(dim=2, lower=lower, upper=upper, objective=lambda x: np.sum(x, axis=-1))

    def test_sigma_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Problem(dim=2, lower=0.0, upper=1.0,
                    objective=lambda x: np.sum(x, axis=-1), sigma=-1e-9)

    def test_nan_sigma_is_rejected(self):
        # a NaN tolerance would make every equality violation NaN
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            Problem(dim=2, lower=0.0, upper=1.0,
                    objective=lambda x: np.sum(x, axis=-1), sigma=np.nan)
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            dataclasses.replace(make_suite_problem("P3", 4), sigma=np.nan)

    @pytest.mark.parametrize("dim", [2.5, np.nan, np.inf, 0])
    def test_dim_must_be_a_whole_number_of_at_least_1(self, dim):
        with pytest.raises(ValueError, match="dim must be a whole number >= 1"):
            Problem(dim=dim, lower=0.0, upper=1.0, objective=lambda x: np.sum(x, axis=-1))

    @pytest.mark.parametrize("dim", [2.0, np.float64(3.0), np.int64(4)])
    def test_a_whole_dim_is_kept_as_an_int(self, dim):
        prob = Problem(dim=dim, lower=0.0, upper=1.0, objective=lambda x: np.sum(x, axis=-1))
        assert prob.dim == dim and type(prob.dim) is int
        assert prob.lower.shape == (int(dim),)

    def test_bounds_broadcast_and_frozen(self):
        prob = Problem(dim=3, lower=-1.0, upper=2.0, objective=lambda x: np.sum(x, axis=-1))
        assert_array_equal(prob.lower, [-1.0, -1.0, -1.0])
        assert_array_equal(prob.upper, [2.0, 2.0, 2.0])
        with pytest.raises(ValueError):
            prob.lower[0] = 5.0


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

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 6), q=st.integers(0, 3), p=st.integers(0, 3),
           bad=st.lists(st.tuples(st.sampled_from(["objective", "inequality", "equality"]),
                                  st.integers(0, 5), st.integers(0, 2),
                                  st.sampled_from([np.nan, np.inf, -np.inf])),
                        max_size=3))
    @example(m=2, q=2, p=1, bad=[("inequality", 1, 1, -np.inf)])
    def test_nonfinite_report_matches_loop_reference(self, m, q, p, bad):
        rng = np.random.default_rng(0)
        table = {"objective": rng.normal(size=(m, 1)), "inequality": rng.normal(size=(m, q)),
                 "equality": rng.normal(size=(m, p))}
        for kind, row, col, value in bad:
            block = table[kind]
            if block.shape[1]:
                block[row % m, col % block.shape[1]] = value

        expected = None  # the first bad entry: objective, then inequalities, then equalities
        for kind, block in table.items():
            cells = [(i, j) for i in range(m) for j in range(block.shape[1])
                     if not np.isfinite(block[i, j])]
            if cells:
                expected = (kind, 0 if kind == "objective" else cells[0][1])
                break

        def columns(block):
            # coordinate 0 of a point is its row in the table
            return tuple(lambda x, j=j: block[x[..., 0].astype(int), j]
                         for j in range(block.shape[1]))

        (objective,) = columns(table["objective"])
        prob = Problem(dim=2, lower=-1.0, upper=float(m), objective=objective,
                       inequalities=columns(table["inequality"]),
                       equalities=columns(table["equality"]))
        xs = np.zeros((m, 2))
        xs[:, 0] = np.arange(m)
        if expected is None:
            f, g, h, phi = evaluate_many(prob, xs)
            assert_array_equal(f, table["objective"][:, 0])
            assert_array_equal(g, table["inequality"])
            assert_array_equal(h, table["equality"])
            assert_array_equal(phi, overall_violation(g, h, prob.sigma))
        else:
            with pytest.raises(EvaluationError) as err:
                evaluate_many(prob, xs)
            assert (err.value.kind, err.value.index) == expected

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
        """A whole float builds the problem its int builds; any other dim raises ValueError."""
        xs = np.random.default_rng(8).uniform(-5, 5, (16, 8))
        for pid in SUITE_IDS:
            want, got = make_suite_problem(pid, 8), make_suite_problem(pid, 8.0)
            assert got.dim == 8 and type(got.dim) is int
            assert got.known_optimizer.tobytes() == want.known_optimizer.tobytes()
            for a, b in zip(evaluate_many(got, xs), evaluate_many(want, xs)):
                assert a.tobytes() == b.tobytes()
            for dim in (1, 2.5, math.nan, math.inf, "3", None):
                with pytest.raises(ValueError, match="dim must be a whole number >= 2"):
                    make_suite_problem(pid, dim)

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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), dim=st.integers(2, 60), rows=st.integers(1, 6),
           batch=st.sampled_from([(), (1,), (3,)]))
    def test_p4_gap_is_the_two_abs_formula_byte_for_byte(self, data, dim, rows, batch):
        """max|x_i| = max(max x, -min x) and max|x_i - 2| = max(max x - 2, 2 - min x)
        under monotone, symmetric rounding, so the gap from one max and one min
        per row equals the two-abs formula bit for bit, over a leading batch
        axis too; a row with a NaN gives NaN."""
        values = st.sampled_from([5.0, -5.0, 2.0, 0.0, -0.0, np.nan]) | st.floats(-5.0, 5.0)
        x = data.draw(arrays(np.float64, (*batch, rows, dim), elements=values), label="x")
        (gap,) = make_suite_problem("P4", dim).inequalities
        want = np.minimum(np.abs(x).max(axis=-1) - 0.5, np.abs(x - 2.0).max(axis=-1) - 0.5)
        got = gap(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert_array_equal(np.isnan(got), np.isnan(x).any(axis=-1))

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
