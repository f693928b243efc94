import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsde.selection import (
    pull_accept_mask,
    push_accept_mask,
    sf_accept_mask,
    sf_best_index,
    sf_better_mask,
    sf_order,
)

from conftest import F, PHI, random_pairs


class TestFeasibilityFirst:
    def test_feasible_beats_infeasible(self):
        assert sf_better_mask(0.0, 100.0, 1e-12, 0.0)
        assert not sf_better_mask(1e-12, 0.0, 0.0, 100.0)

    def test_both_feasible_objective_decides(self):
        assert sf_better_mask(0.0, 1.0, 0.0, 2.0)
        assert not sf_better_mask(0.0, 1.0, 0.0, 1.0)

    def test_both_infeasible_violation_decides(self):
        # objective is ignored between two infeasible points
        assert sf_better_mask(0.1, 50.0, 0.2, -50.0)
        assert not sf_better_mask(0.1, 50.0, 0.1, 0.0)
        assert not sf_better_mask(0.1, 0.0, 0.1, 50.0)

    def test_antisymmetry_and_trichotomy(self):
        rng = np.random.default_rng(3)
        phi, f = random_pairs(rng, 400)
        a, b = slice(0, None, 2), slice(1, None, 2)
        ab = sf_better_mask(phi[a], f[a], phi[b], f[b])
        ba = sf_better_mask(phi[b], f[b], phi[a], f[a])
        assert not np.any(ab & ba)
        # neither better means the pair ties on the deciding criterion
        tie = ~ab & ~ba
        both_feasible = (phi[a] == 0.0) & (phi[b] == 0.0)
        np.testing.assert_array_equal(
            tie, np.where(both_feasible, f[a] == f[b], phi[a] == phi[b]))

    def test_mask_matches_scalar(self):
        rng = np.random.default_rng(4)
        phi_a, f_a = random_pairs(rng, 300)
        phi_b, f_b = random_pairs(rng, 300)
        mask = sf_better_mask(phi_a, f_a, phi_b, f_b)
        for i in range(300):
            assert bool(mask[i]) == bool(sf_better_mask(phi_a[i], f_a[i], phi_b[i], f_b[i]))


class TestPush:
    def test_accepts_on_tie_and_improvement(self):
        np.testing.assert_array_equal(push_accept_mask(1.0, [0.5, 1.0, 1.5]),
                                      [True, True, False])

    def test_ignores_violation_entirely(self):
        rng = np.random.default_rng(5)
        phi_p, f_p = random_pairs(rng, 200)
        phi_t, f_t = random_pairs(rng, 200)
        got = push_accept_mask(f_p, f_t)
        np.testing.assert_array_equal(got, f_t <= f_p)


class TestPull:
    def test_both_within_eps_objective_decides(self):
        # relaxed region: the lower violation does not help the worse objective
        assert not pull_accept_mask(0.5, 1.0, 0.3, 2.0, eps=0.6)
        # below the level the violation branch applies instead
        assert pull_accept_mask(0.5, 1.0, 0.3, 2.0, eps=0.2)

    def test_equal_violation_objective_decides(self):
        np.testing.assert_array_equal(
            pull_accept_mask(0.7, 2.0, [0.7, 0.7], [1.0, 3.0], eps=0.1), [True, False])

    def test_otherwise_lower_violation_wins(self):
        np.testing.assert_array_equal(
            pull_accept_mask(0.9, 0.0, [0.8, 1.0], [99.0, -99.0], eps=0.1), [True, False])

    def test_eps_zero_matches_feasibility_first_acceptance(self):
        # random_pairs draws continuous violations, so no two positive ones
        # are equal; the test below pins what happens when they are
        rng = np.random.default_rng(6)
        phi_p, f_p = random_pairs(rng, 5000)
        phi_t, f_t = random_pairs(rng, 5000)
        pull = pull_accept_mask(phi_p, f_p, phi_t, f_t, eps=0.0)
        sf = sf_accept_mask(phi_p, f_p, phi_t, f_t)
        np.testing.assert_array_equal(pull, sf)

    def test_eps_infinite_matches_push(self):
        rng = np.random.default_rng(7)
        phi_p, f_p = random_pairs(rng, 5000)
        phi_t, f_t = random_pairs(rng, 5000)
        pull = pull_accept_mask(phi_p, f_p, phi_t, f_t, eps=np.inf)
        np.testing.assert_array_equal(pull, push_accept_mask(f_p, f_t))

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(PHI, F, PHI, F), min_size=1, max_size=20))
    def test_eps_zero_differs_from_feasibility_first_only_on_equal_positive_violations(
            self, pairs):
        phi_p, f_p, phi_t, f_t = (np.array(col) for col in zip(*pairs))
        pull = pull_accept_mask(phi_p, f_p, phi_t, f_t, eps=0.0)
        sf = sf_accept_mask(phi_p, f_p, phi_t, f_t)
        # there pull lets the objective decide and rejects the worse trial,
        # while feasibility-first sees a violation tie and accepts
        differs = (phi_p == phi_t) & (phi_p > 0.0) & (f_t > f_p)
        np.testing.assert_array_equal(pull != sf, differs)
        assert not np.any(pull[differs])

    def test_mask_matches_scalar(self):
        rng = np.random.default_rng(8)
        phi_p, f_p = random_pairs(rng, 300)
        phi_t, f_t = random_pairs(rng, 300)
        for eps in (0.0, 0.05, 1.0):
            mask = pull_accept_mask(phi_p, f_p, phi_t, f_t, eps)
            for i in range(300):
                assert bool(mask[i]) == bool(
                    pull_accept_mask(phi_p[i], f_p[i], phi_t[i], f_t[i], eps))


class TestSorting:
    def test_worked_example(self):
        f = np.array([2.0, 0.0, 1.0])
        phi = np.array([0.0, 0.1, 0.0])
        np.testing.assert_array_equal(sf_order(f, phi), [2, 0, 1])

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(PHI, F), max_size=200))
    def test_stability_on_ties(self, pairs):
        """sf_order is the stable sort on (infeasible, violation or objective),
        so ties, including 0.0 against -0.0, keep their original order."""
        phi = [p for p, _ in pairs]
        f = [v for _, v in pairs]
        expected = sorted(range(len(pairs)),
                          key=lambda i: (phi[i] > 0, phi[i] if phi[i] > 0 else f[i], i))
        got = sf_order(np.array(f, dtype=float), np.array(phi, dtype=float))
        np.testing.assert_array_equal(got, expected)

    def test_sorted_order_is_consistent_with_comparison(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            phi, f = random_pairs(rng, 40)
            order = sf_order(f, phi)
            assert sorted(order) == list(range(40))
            for i, j in zip(order[:-1], order[1:]):
                # a later element may never be strictly better than an earlier one
                assert not sf_better_mask(phi[j], f[j], phi[i], f[i])

    def test_feasible_block_comes_first(self):
        rng = np.random.default_rng(10)
        phi, f = random_pairs(rng, 60)
        order = sf_order(f, phi)
        flags = (phi[order] > 0).astype(int)
        assert np.all(np.diff(flags) >= 0)
        feasible = order[phi[order] == 0]
        assert np.all(np.diff(f[feasible]) >= 0)
        infeasible = order[phi[order] > 0]
        assert np.all(np.diff(phi[infeasible]) >= 0)

    def test_best_index_is_undominated(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            phi, f = random_pairs(rng, 25)
            best = sf_best_index(f, phi)
            assert not np.any(sf_better_mask(phi, f, phi[best], f[best]))
