"""Differential-evolution engine pieces: trial generation, bound repair,
success-history parameter adaptation and strategy-selection statistics.

Three trial strategies are supported.  The first mutates a random base with
one scaled difference and applies binomial crossover.  The second moves the
target toward a random member of the current elite pool plus one scaled
difference, then applies binomial crossover.  The third blends the target
with a random member using a uniform random coefficient plus one scaled
difference and uses no crossover at all.  ``make_trials`` builds every row
of a sub-population in one pass, whatever mix of strategies its rows use:
it draws each row's distinct indices without rejection and gathers the five
operand rows of all trials with one index.

Each strategy keeps its own circular memories of successful control
parameters.  New parameters are sampled around a randomly chosen memory
cell: the scale factor from a Cauchy distribution (resampled while
non-positive, clamped to 1 from above) and the crossover rate from a normal
distribution truncated to [0, 1].  After a generation, memory cells are
rewritten from the recorded successes using an improvement-weighted Lehmer
mean for the scale factor and an improvement-weighted arithmetic mean for
the crossover rate.  Sampling and recording both take whole arrays, so a
generation needs one call of each per sub-population or strategy.  The
strategy statistics keep a running total over their window of win counts.
"""

from __future__ import annotations

import enum
from collections import deque

import numpy as np

__all__ = [
    "STRATEGIES",
    "ParameterMemory",
    "Strategy",
    "StrategyStats",
    "current_to_pbest_batch",
    "current_to_rand_batch",
    "improvement_weights",
    "make_trials",
    "pbest_pool_size",
    "rand_1_bin_batch",
    "repair_bounds",
    "select_strategies",
]


class Strategy(enum.IntEnum):
    RAND_1_BIN = 0
    CURRENT_TO_PBEST = 1
    CURRENT_TO_RAND = 2


STRATEGIES = (Strategy.RAND_1_BIN, Strategy.CURRENT_TO_PBEST, Strategy.CURRENT_TO_RAND)


# ---------------------------------------------------------------------------
# Parameter memories

def improvement_weights(deltas):
    """Normalized weights proportional to per-success improvements.

    All-zero improvements fall back to uniform weights so ties still count.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size == 0:
        raise ValueError("no improvements to weight")
    if np.any(deltas < 0):
        raise ValueError("improvements must be >= 0")
    return _weights(deltas)


def _weights(deltas):
    # the one weight rule, for a non-empty array of improvements >= 0
    total = deltas.sum()
    if total == 0.0:
        return np.full(deltas.size, 1.0 / deltas.size)
    return deltas / total


class ParameterMemory:
    """Per-strategy circular memories of successful F and CR values.

    Every cell starts at 0.5.  Each strategy has its own write pointer that
    advances (wrapping) whenever its cells are rewritten from a non-empty
    success set.
    """

    def __init__(self, length=5):
        if length < 1:
            raise ValueError("memory length must be >= 1")
        self.length = int(length)
        n = len(STRATEGIES)
        self.f_memory = np.full((n, self.length), 0.5)
        self.cr_memory = np.full((n, self.length), 0.5)
        self.pointer = np.zeros(n, dtype=int)
        self._successes = [[] for _ in range(n)]

    def sample_parameters_many(self, strategy, size, rng):
        """Sample ``size`` (F, CR) pairs, one strategy or one per row.

        ``strategy`` is a single strategy or an array of ``size`` strategies.
        Each pair uses one randomly chosen memory cell of its strategy.  F is
        Cauchy around the cell with spread 0.1, redrawn while <= 0 and
        clamped to 1 from above, so F is always in (0, 1].  CR is normal
        around the cell with spread 0.1, truncated into [0, 1].
        """
        cells = rng.integers(0, self.length, size=size)
        loc_f = self.f_memory[strategy, cells]
        loc_cr = self.cr_memory[strategy, cells]

        f = loc_f + 0.1 * rng.standard_cauchy(size)
        bad = f <= 0.0
        while bad.any():
            f[bad] = loc_f[bad] + 0.1 * rng.standard_cauchy(int(bad.sum()))
            bad = f <= 0.0
        f = np.minimum(f, 1.0)

        cr = np.clip(loc_cr + 0.1 * rng.standard_normal(size), 0.0, 1.0)
        return f, cr

    def record_success(self, strategy, f, cr, delta):
        """Record the control parameters of replacements that actually happened.

        ``f``, ``cr`` and ``delta`` are aligned arrays of one strategy's
        successes in order; scalars record a single success.  The values
        are copied, so later changes to the caller's arrays do not reach
        the memory update.
        """
        f, cr, delta = (np.array(v, dtype=float, ndmin=1) for v in (f, cr, delta))
        if not f.shape == cr.shape == delta.shape:
            raise ValueError("successes must be aligned")
        if (delta < 0).any():
            raise ValueError("improvement must be >= 0")
        if delta.size:
            self._successes[strategy].append((f, cr, delta))

    def update_memory(self, strategy):
        """Fold this generation's successes into the strategy's memories.

        A non-empty success set rewrites the cells at the strategy's
        pointer: the F cell with the weighted Lehmer mean, the CR cell with
        the weighted arithmetic mean, and the pointer advances.  The success
        set is always cleared.
        """
        records = self._successes[strategy]
        if not records:
            return
        s_f, s_cr, s_delta = (np.concatenate(c) for c in zip(*records))
        w = _weights(s_delta)
        p = self.pointer[strategy]
        self.f_memory[strategy, p] = (w * s_f**2).sum() / (w * s_f).sum()
        self.cr_memory[strategy, p] = (w * s_cr).sum()
        self.pointer[strategy] = (p + 1) % self.length
        records.clear()


# ---------------------------------------------------------------------------
# Strategy-selection statistics

class StrategyStats:
    """Sliding-window win counts and success rates for the three strategies.

    The window total is kept running: each record adds its counts and
    subtracts those of the record it evicts.
    """

    def __init__(self, window):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self._wins = deque()
        self._total = np.zeros(len(STRATEGIES), dtype=int)

    def record_generation(self, counts):
        """Append one generation's per-strategy win counts."""
        counts = np.array(counts, dtype=int)
        if counts.shape != (len(STRATEGIES),) or (counts < 0).any():
            raise ValueError("expected one non-negative count per strategy")
        if len(self._wins) == self.window:
            self._total -= self._wins.popleft()
        self._wins.append(counts)
        self._total += counts

    def windowed_wins(self):
        """Per-strategy win totals over the window."""
        return self._total.copy()

    def success_rates(self, generation):
        """Per-strategy selection probabilities at the given generation.

        Uniform while the window is still warming up (generation below the
        window length) or when no wins have been recorded; otherwise each
        strategy's share of the windowed wins.
        """
        n = len(STRATEGIES)
        if generation < self.window:
            return np.full(n, 1.0 / n)
        total = self._total.sum()
        if total == 0:
            return np.full(n, 1.0 / n)
        return self._total / total


def select_strategies(rates, size, rng):
    """Roulette-wheel draw of ``size`` strategy indices from per-strategy rates."""
    edges = np.cumsum(rates)
    picks = np.searchsorted(edges, rng.random(size), side="right")
    return np.minimum(picks, len(STRATEGIES) - 1)


# ---------------------------------------------------------------------------
# Trial generation

def pbest_pool_size(n_pop, p_fraction=0.05):
    """Size of the elite pool: round half up, never below one."""
    return max(1, int(np.floor(p_fraction * n_pop + 0.5)))


def _repair(candidate, parent, lower, upper):
    # out-of-bounds coordinates move to the midpoint of the violated bound
    # and the parent, which always lies inside the box
    out = np.where(candidate < lower, 0.5 * (lower + parent), candidate)
    return np.where(out > upper, 0.5 * (upper + parent), out)


def repair_bounds(candidate, parent, problem):
    """Midpoint repair of a candidate against the problem's box bounds."""
    return _repair(np.asarray(candidate, dtype=float), np.asarray(parent, dtype=float),
                   problem.lower, problem.upper)


def _three_distinct(targets, n_pop, u):
    """Three mutually distinct indices per row, none equal to the row's target.

    Index k takes the rank ``floor(u[:, k] * (n_pop - 1 - k))`` among the
    indices still free and steps over the taken ones in ascending order, so
    no draw is ever rejected.
    """
    r0, r1, r2 = (u * (n_pop - 1, n_pop - 2, n_pop - 3)).astype(np.intp).T
    r0 += r0 >= targets
    lo, hi = np.minimum(targets, r0), np.maximum(targets, r0)
    r1 += r1 >= lo
    r1 += r1 >= hi
    for taken in (np.minimum(lo, r1), np.maximum(lo, np.minimum(hi, r1)), np.maximum(hi, r1)):
        r2 += r2 >= taken
    return r0, r1, r2


def make_trials(pop, targets, strategies, f, cr, pool_size, lower, upper, rng):
    """Trials for a set of target rows in one pass, each row under its own strategy.

    ``targets``, ``strategies``, ``f`` and ``cr`` are aligned per-row arrays,
    and ``pop`` must be sorted best-first, since the elite pool is its head
    ``pool_size`` rows.  Each row's indices r0, r1, r2 come from
    ``_three_distinct``.  The donor is ``x_b + K (x_a - x_b) + F (x_r1 - x_r2)``:
    rand/1 has base ``x_r0`` and K = 0; current-to-pbest/1 has the target as
    base, a uniform elite member as ``x_a`` and K = F; current-to-rand/1 has
    the target as base, ``x_a = x_r0`` and a uniform K in [0, 1).  Binomial
    crossover with one guaranteed donor coordinate applies to the first two
    strategies only, and midpoint repair follows.  Integer draws are floors
    of uniform doubles, so each of k choices has probability 1/k to within
    2**-52.
    """
    targets = np.asarray(targets)
    m = len(targets)
    n, d = pop.shape
    u = rng.random((m, 5))
    r0, r1, r2 = _three_distinct(targets, n, u[:, :3])
    elite, j_rand = (u[:, 3:] * (pool_size, d)).astype(np.intp).T

    # one row mask per strategy, in Strategy order
    rand_1, pbest, cur_rand = strategies == np.arange(len(STRATEGIES))[:, None]
    base = np.where(rand_1, r0, targets)
    coef = np.where(rand_1, 0.0, np.where(pbest, f, rng.random(m)))
    rows = np.concatenate((base, np.where(pbest, elite, r0), r1, r2, targets))
    x_b, x_a, x_r1, x_r2, x = pop[rows].reshape(5, m, d)
    donor = x_b + coef[:, None] * (x_a - x_b) + f[:, None] * (x_r1 - x_r2)

    mask = rng.random((m, d)) < cr[:, None]
    mask[np.arange(m), j_rand] = True
    mask |= cur_rand[:, None]
    return _repair(np.where(mask, donor, x), x, lower, upper)


def rand_1_bin_batch(pop, targets, f, cr, lower, upper, rng):
    """Random base plus one scaled difference, binomial crossover, repair."""
    return make_trials(pop, targets, np.full_like(targets, Strategy.RAND_1_BIN), f, cr, 1,
                       lower, upper, rng)


def current_to_pbest_batch(pop, targets, pool_size, f, cr, lower, upper, rng):
    """Move toward a random elite member plus one scaled difference.

    ``pop`` must already be sorted best-first so the elite pool is its head.
    Binomial crossover and midpoint repair follow; no archive is used.
    """
    return make_trials(pop, targets, np.full_like(targets, Strategy.CURRENT_TO_PBEST), f, cr,
                       pool_size, lower, upper, rng)


def current_to_rand_batch(pop, targets, f, lower, upper, rng):
    """Blend toward a random member plus one scaled difference; no crossover."""
    return make_trials(pop, targets, np.full_like(targets, Strategy.CURRENT_TO_RAND), f,
                       np.ones(len(targets)), 1, lower, upper, rng)

