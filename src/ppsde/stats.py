"""Benchmark reporting statistics.

Per-cell summaries over repeated runs, plus a nonparametric comparison of
several algorithms over several problems using aligned ranks: observations
are aligned by subtracting each problem's row mean, all aligned values are
ranked jointly (average ranks on ties), and a chi-squared statistic over the
column rank sums tests whether the algorithms perform equally.

A batch's matrix for that test has one row per problem and one key per
cell, in the order of the CEC 2017 constrained competition (Wu, Mallipeddi
& Suganthan 2017): feasibility rate, higher first; then mean final violation
over all runs; then mean final objective over the feasible runs, inf if
none.  Where a problem's optimum f* is known, a feasible run's objective
enters as its error value f - f*, an error below 1e-8, a negative one
included, counting as 0 as in the CEC reports (Liang, Qu & Suganthan 2013).
A row feasible in every run holds the objective column, one feasible in no
run the violation column, and any other row its cells' average ranks under
the key.  One tie rule serves every rank: positions equal in every key
share the mean of their positions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["FriedmanAligned", "Summary", "cell_mean", "friedman_aligned", "friedman_matrix",
           "summarize"]


_ERROR_FLOOR = 1e-8  # an error value below this counts as 0


class Summary(NamedTuple):
    mean: float
    std: float
    best: float
    worst: float
    median: float


class FriedmanAligned(NamedTuple):
    avg_ranks: np.ndarray
    statistic: float
    p_value: float


def summarize(values):
    """Summary statistics of a non-empty sample.

    The standard deviation uses the n-1 normalization; a single observation
    reports 0 by convention.  Best is the minimum, worst the maximum.  The
    median equals ``np.median``'s bit for bit, signed zeros and NaN included,
    without its import of ``numpy.ma``: the same partition, then ``np.mean``
    of the middle values.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("cannot summarize an empty sample")
    middle = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    part = np.partition(values.ravel(), middle + [-1])  # np.median's index list
    std = float(np.std(values, ddof=1)) if n > 1 else 0.0
    return Summary(
        mean=float(np.mean(values)),
        std=std,
        best=float(np.min(values)),
        worst=float(np.max(values)),
        median=float(part[-1] if np.isnan(part[-1]) else np.mean(part[middle])),
    )


def cell_mean(final_f, final_phi):
    """Representative value of one problem/algorithm cell over repeated runs.

    Returns (value, used_violation): the mean final objective over feasible
    runs when any exist, otherwise the mean final violation with the flag
    set.
    """
    final_f = np.asarray(final_f, dtype=float)
    final_phi = np.asarray(final_phi, dtype=float)
    if final_f.size == 0 or final_f.shape != final_phi.shape:
        raise ValueError("need matching non-empty objective and violation samples")
    feasible = final_phi == 0.0
    if feasible.any():
        return float(np.mean(final_f[feasible])), False
    return float(np.mean(final_phi)), True


def friedman_matrix(final_f, final_phi, known_optima=None):
    """The aligned-ranks matrix of a batch, built as the module docstring
    states, and the indices of its ranked rows.  ``final_f`` and ``final_phi``
    hold every run's final objective and violation, shape (problems,
    algorithms, runs).  ``known_optima`` holds each problem's optimum, or
    None where a problem has none or keeps its raw objective."""
    final_f, final_phi = (np.asarray(v, dtype=float) for v in (final_f, final_phi))
    optima = [None] * len(final_f) if known_optima is None else list(known_optima)
    if (final_f.ndim != 3 or final_f.shape != final_phi.shape or not final_f.size
            or len(optima) != len(final_f)):
        raise ValueError("need matching non-empty samples and one optimum slot per problem")
    feasible = final_phi == 0.0
    rate = feasible.mean(axis=2)
    violation = final_phi.mean(axis=2)
    errors = [f if f_star is None else np.where(f - f_star < _ERROR_FLOOR, 0.0, f - f_star)
              for f, f_star in zip(final_f, optima)]
    objective = np.array([[np.mean(e[ok]) if ok.any() else np.inf for e, ok in zip(es, oks)]
                          for es, oks in zip(errors, feasible)])
    matrix = np.where(rate > 0.0, objective, violation)
    ranked = [p for p, ok in enumerate(feasible) if ok.any() and not ok.all()]
    for p in ranked:
        matrix[p] = _average_ranks(-rate[p], violation[p], objective[p])
    return matrix, ranked


def _average_ranks(*keys):
    """1-based ranks of flat arrays' positions sorted by ``keys``, the first
    primary; positions equal in every key share the mean of their positions."""
    order = np.lexsort(keys[::-1])
    ordered = np.array(keys)[:, order]
    new = np.concatenate(([True], (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)))
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], order.size)
    ranks = np.empty(order.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def friedman_aligned(cell_means):
    """Aligned-ranks comparison of k algorithms over n problems.

    Parameters
    ----------
    cell_means : array_like, shape (n, k)
        One representative value per problem (row) and algorithm (column);
        smaller is better.  Requires n >= 2 and k >= 2 and no missing
        values.

    Returns
    -------
    FriedmanAligned
        Average aligned rank per algorithm, the chi-squared statistic with
        k - 1 degrees of freedom, and its upper-tail p-value.
    """
    from scipy.special import chdtrc  # imported here so that import ppsde loads numpy only

    m = np.asarray(cell_means, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix of cell means")
    n, k = m.shape
    if n < 2 or k < 2:
        raise ValueError("need at least 2 problems and 2 algorithms")
    bad = ~np.isfinite(m)
    if bad.any():
        cells = [tuple(int(v) for v in pos) for pos in np.argwhere(bad)]
        raise ValueError(f"missing or non-finite cells at {cells}")

    aligned = m - m.mean(axis=1, keepdims=True)
    ranks = _average_ranks(aligned.ravel()).reshape(n, k)

    col_sums = ranks.sum(axis=0)
    row_sums = ranks.sum(axis=1)
    total = k * n
    numerator = (k - 1) * (col_sums @ col_sums - (k * n**2 / 4.0) * (total + 1) ** 2)
    denominator = total * (total + 1) * (2 * total + 1) / 6.0 - row_sums @ row_sums / k
    statistic = float(numerator / denominator)
    p_value = float(chdtrc(k - 1, statistic))
    return FriedmanAligned(
        avg_ranks=ranks.mean(axis=0),
        statistic=statistic,
        p_value=p_value,
    )
