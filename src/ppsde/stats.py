"""Benchmark reporting statistics.

Per-cell summaries over repeated runs, plus a nonparametric comparison of
several algorithms over several problems using aligned ranks: observations
are aligned by subtracting each problem's row mean, all aligned values are
ranked jointly (average ranks on ties), and a chi-squared statistic over the
column rank sums tests whether the algorithms perform equally.

A batch's matrix for that test has one row per problem.  A row whose cells
are feasible in every run, or in no run, holds the cell means.  Any other
row mixes objectives with violations, so it holds its cells' average ranks
in the order of the CEC 2017 constrained competition (Wu, Mallipeddi &
Suganthan 2017): feasibility rate, higher first; then mean final violation
over all runs; then mean final objective over the feasible runs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["FriedmanAligned", "Summary", "cell_mean", "friedman_aligned", "friedman_matrix",
           "summarize"]


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
    reports 0 by convention.  Best is the minimum, worst the maximum.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot summarize an empty sample")
    std = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    return Summary(
        mean=float(np.mean(values)),
        std=std,
        best=float(np.min(values)),
        worst=float(np.max(values)),
        median=float(np.median(values)),
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


def friedman_matrix(final_f, final_phi):
    """The aligned-ranks matrix of a batch and the indices of its ranked rows.

    ``final_f`` and ``final_phi`` hold every run's final objective and
    violation, shape (problems, algorithms, runs).  A problem whose cells
    are feasible in every run, or in no run, gets its ``cell_mean`` values;
    any other problem gets its cells' average ranks, feasibility first, as
    the module docstring states, and is listed as ranked.
    """
    final_f = np.asarray(final_f, dtype=float)
    final_phi = np.asarray(final_phi, dtype=float)
    feasible = final_phi == 0.0
    matrix = np.array([[cell_mean(f, phi)[0] for f, phi in zip(fs, phis)]
                       for fs, phis in zip(final_f, final_phi)])
    ranked = [p for p, ok in enumerate(feasible) if ok.any() and not ok.all()]
    for p in ranked:
        keys = [(-ok.mean(), phi.mean(), f[ok].mean() if ok.any() else math.inf)
                for f, phi, ok in zip(final_f[p], final_phi[p], feasible[p])]
        # 1 + the cells ahead + half the cells tied: the mean of the tied positions
        matrix[p] = [1 + sum(k < key for k in keys) + (keys.count(key) - 1) / 2
                     for key in keys]
    return matrix, ranked


def _average_ranks(values):
    """1-based ranks of a flat array; tied values share the mean of their positions."""
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
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
