import math

import numpy as np
import pytest
import scipy.stats as ss
from hypothesis import given, settings
from hypothesis import strategies as st

from ppsde.stats import (
    Summary,
    _average_ranks,
    cell_mean,
    friedman_aligned,
    friedman_matrix,
    summarize,
)


def matrices(values):
    """n x k matrices, 2 <= n <= 8 and 2 <= k <= 5, with entries from ``values``."""
    return st.tuples(st.integers(2, 8), st.integers(2, 5)).flatmap(
        lambda shape: st.lists(st.lists(values, min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]))


# few distinct entries, so aligned values tie often, within and across rows
TIE_RICH = (matrices(st.integers(-2, 2).map(float))
            | matrices(st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0, 1e-8])))


def brute_force_aligned_ranks(m):
    """Double-loop oracle: align by row means, rank jointly with midranks."""
    n, k = len(m), len(m[0])
    aligned = [[m[i][j] - sum(m[i]) / k for j in range(k)] for i in range(n)]
    flat = [v for row in aligned for v in row]
    ranks = []
    for x in flat:
        smaller = sum(1 for y in flat if y < x)
        equal_others = sum(1 for y in flat if y == x) - 1
        ranks.append(1.0 + smaller + equal_others / 2.0)
    return np.array(ranks).reshape(n, k)


class TestSummarize:
    def test_worked_example(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s == Summary(mean=2.5, std=pytest.approx(1.2909944487358056),
                            best=1.0, worst=4.0, median=2.5)

    def test_single_value_has_zero_std(self):
        s = summarize([7.0])
        assert s.std == 0.0 and s.mean == 7.0 and s.best == s.worst == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan])
                           | st.floats(-1e3, 1e3), min_size=1, max_size=12))
    def test_median_equals_numpys_bit_for_bit(self, values):
        # few distinct values, so the middle pair often holds zeros of both signs
        assert np.float64(summarize(values).median).tobytes() == np.median(values).tobytes()


class TestCellMean:
    def test_all_feasible(self):
        assert cell_mean([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]) == (2.0, False)

    def test_infeasible_runs_excluded_when_any_feasible(self):
        value, used_violation = cell_mean([1.0, 100.0], [0.0, 5.0])
        assert value == 1.0 and not used_violation

    def test_violation_mean_when_nothing_feasible(self):
        value, used_violation = cell_mean([1.0, 2.0], [3.0, 5.0])
        assert value == 4.0 and used_violation

    def test_validation(self):
        with pytest.raises(ValueError):
            cell_mean([], [])
        with pytest.raises(ValueError):
            cell_mean([1.0], [1.0, 2.0])


class TestFriedmanMatrix:
    def test_rows_of_one_kind_keep_their_cell_means(self):
        final_f = [[[1.0, 3.0], [2.0, 2.0]], [[9.0, 9.0], [1.0, 1.0]]]
        final_phi = [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 3.0], [0.5, 0.5]]]
        matrix, ranked, _ = friedman_matrix(final_f, final_phi)
        assert matrix.tolist() == [[2.0, 2.0], [2.0, 0.5]]
        assert ranked == []

    def test_rate_then_violation_then_objective(self):
        # two runs per cell; an infeasible run's objective never counts
        final_f = [[[9, 9], [1, -50], [5, -50], [2, -50], [0, 0], [7, 7]]]
        final_phi = [[[0, 0], [0, 2], [0, 1], [0, 2], [0.1, 0.1], [0.1, 0.1]]]
        matrix, ranked, _ = friedman_matrix(final_f, final_phi)
        assert matrix.tolist() == [[1.0, 3.0, 2.0, 4.0, 5.5, 5.5]]
        assert ranked == [0]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), shape=st.tuples(st.integers(1, 3), st.integers(2, 4), st.integers(1, 3)))
    def test_matches_sorted_keys(self, data, shape):
        # few distinct values, so that rates, violations and objectives tie often
        def draw(values):
            size = int(np.prod(shape))
            return np.reshape(data.draw(st.lists(values, min_size=size, max_size=size)), shape)

        final_f = draw(st.sampled_from([0.0, 1.0, 2.0]))
        final_phi = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0]))
        matrix, ranked, ranks = friedman_matrix(final_f, final_phi)
        for p, (fs, phis) in enumerate(zip(final_f, final_phi)):
            ok = phis == 0.0
            keys = [(-np.mean(o), np.mean(phi), np.mean(f[o]) if o.any() else np.inf)
                    for f, phi, o in zip(fs, phis, ok)]
            order = sorted(keys)
            expected = [np.mean([i + 1 for i, k in enumerate(order) if k == key])
                        for key in keys]
            assert ranks[p].tolist() == expected
            if ok.all() or not ok.any():
                assert p not in ranked
                assert matrix[p].tolist() == [cell_mean(f, phi)[0] for f, phi in zip(fs, phis)]
            else:
                assert p in ranked
                assert matrix[p].tolist() == expected


class TestErrorValues:
    def test_a_row_at_the_optimum_ties(self):
        """P1, P2 and P5 at D=10, every run feasible at the optimum: the P2
        cells sit -5.55e-17, -2.78e-17 and 0 from f* = 1/D.  On the raw
        objective that rounding alone ranks the algorithms; as error values
        every cell counts 0, so the row ties and no algorithm is favoured."""
        optima = [0.0, 1.0 / 10, 0.0]
        final_f = np.zeros((3, 3, 5))
        final_f[1] = (optima[1] + np.array([-5.55e-17, -2.78e-17, 0.0]))[:, None]
        final_phi = np.zeros_like(final_f)
        raw, _, _ = friedman_matrix(final_f, final_phi)
        assert len(set(raw[1])) == 3
        assert len(set(friedman_aligned(raw).avg_ranks)) == 3
        matrix, ranked, _ = friedman_matrix(final_f, final_phi, optima)
        assert matrix.tolist() == [[0.0] * 3] * 3 and ranked == []
        np.testing.assert_array_equal(friedman_aligned(matrix).avg_ranks, [5.0, 5.0, 5.0])

    def test_errors_enter_the_objective_column_only(self):
        # errors of 2e-8 and 3e-8 stay, one of 1e-9 and a negative one count
        # 0, and the problem without an optimum keeps its objective
        final_f = [[[0.5 + 2e-8, 0.5 + 3e-8], [0.4, 0.5 + 1e-9]], [[7.0, 7.0], [9.0, 9.0]]]
        final_phi = np.zeros((2, 2, 2))
        matrix, ranked, _ = friedman_matrix(final_f, final_phi, [0.5, None])
        assert matrix.tolist() == [[np.mean(np.array(final_f[0][0]) - 0.5), 0.0], [7.0, 9.0]]
        assert ranked == []

    def test_a_mixed_row_ranks_the_errors(self):
        # the first two cells are feasible in every run at errors that count 0
        final_f = [[[1e-9, -1.0], [0.0, 0.0], [5.0, 5.0]]]
        final_phi = [[[0.0, 0.0], [0.0, 0.0], [0.0, 2.0]]]
        assert friedman_matrix(final_f, final_phi)[0].tolist() == [[1.0, 2.0, 3.0]]
        matrix, ranked, _ = friedman_matrix(final_f, final_phi, [0.0])
        assert matrix.tolist() == [[1.5, 1.5, 3.0]] and ranked == [0]

    def test_every_row_ranks_under_the_key(self):
        """Row 0 is mixed: a cell feasible in both runs at error 1, one in
        one run, and one in both at error 4, ranked 1, 3 and 2.  Row 1 is
        feasible in every run at error 0 in every cell, an all-tie row of
        ranks 2.0 each.  The mean ranks are 1.5, 2.5 and 2.0."""
        final_f = [[[1.0, 1.0], [0.0, 9.0], [4.0, 4.0]], [[0.0, 0.0], [1e-9, 0.0], [0.0, -1.0]]]
        final_phi = [[[0.0, 0.0], [0.0, 3.0], [0.0, 0.0]], [[0.0, 0.0]] * 3]
        matrix, ranked, ranks = friedman_matrix(final_f, final_phi, [0.0, 0.0])
        assert ranks.tolist() == [[1.0, 3.0, 2.0], [2.0, 2.0, 2.0]]
        assert ranks.mean(axis=0).tolist() == [1.5, 2.5, 2.0]
        assert ranked == [0] and matrix.tolist() == [[1.0, 3.0, 2.0], [0.0, 0.0, 0.0]]

    def test_validation(self):
        with pytest.raises(ValueError):
            friedman_matrix([[[1.0]]], [[[0.0, 0.0]]])
        with pytest.raises(ValueError):
            friedman_matrix(np.empty((1, 2, 0)), np.empty((1, 2, 0)))
        with pytest.raises(ValueError):
            friedman_matrix([[[1.0], [2.0]]], [[[0.0], [0.0]]], [0.0, 0.0])


class TestFriedmanAligned:
    def test_frozen_two_by_two(self):
        res = friedman_aligned([[1.0, 2.0], [3.0, 5.0]])
        np.testing.assert_array_equal(res.avg_ranks, [1.5, 3.5])
        assert res.statistic == 1.6
        assert res.p_value == float(ss.chi2.sf(1.6, 1))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            m = rng.normal(0.0, 3.0, (5, 3))
            res = friedman_aligned(m)
            oracle = brute_force_aligned_ranks(m.tolist())
            np.testing.assert_array_equal(res.avg_ranks, oracle.mean(axis=0))
            # recompute the statistic from the oracle ranks
            n, k = 5, 3
            total = n * k
            col = oracle.sum(axis=0)
            row = oracle.sum(axis=1)
            num = (k - 1) * (col @ col - (k * n**2 / 4.0) * (total + 1) ** 2)
            den = total * (total + 1) * (2 * total + 1) / 6.0 - row @ row / k
            assert res.statistic == pytest.approx(num / den, rel=1e-12)
            assert res.p_value == pytest.approx(float(ss.chi2.sf(num / den, k - 1)),
                                                rel=1e-12)

    def test_rank_sums_identity(self):
        # exact over the ranks; the averaged form reintroduces one division
        rng = np.random.default_rng(25)
        for n, k in ((2, 2), (5, 3), (7, 4)):
            res = friedman_aligned(rng.normal(size=(n, k)))
            total = n * k
            assert res.avg_ranks.sum() * n == pytest.approx(total * (total + 1) / 2,
                                                            abs=1e-9)

    def test_indistinguishable_algorithms(self):
        res = friedman_aligned([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        np.testing.assert_array_equal(res.avg_ranks, [3.5, 3.5])

    @settings(max_examples=300, deadline=None)
    @given(m=TIE_RICH | matrices(st.floats(-1e3, 1e3)))
    def test_matches_scipy_stats_on_tie_rich_matrices(self, m):
        """numpy average ranks equal scipy.stats.rankdata bit for bit, and the
        p-value equals chi2.sf, so friedman.json keeps its bytes."""
        m = np.array(m)
        aligned = (m - m.mean(axis=1, keepdims=True)).ravel()
        ranks = ss.rankdata(aligned)
        np.testing.assert_array_equal(_average_ranks(aligned), ranks)
        res = friedman_aligned(m)
        np.testing.assert_array_equal(res.avg_ranks, ranks.reshape(m.shape).mean(axis=0))
        assert res.p_value == float(ss.chi2.sf(res.statistic, m.shape[1] - 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            friedman_aligned([1.0, 2.0])
        with pytest.raises(ValueError):
            friedman_aligned([[1.0, 2.0]])
        with pytest.raises(ValueError):
            friedman_aligned([[1.0], [2.0]])
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            friedman_aligned([[1.0, np.nan], [2.0, 3.0]])
