"""Differential-evolution engine pieces: trial generation, bound repair,
success-history parameter adaptation and strategy-selection statistics.

Three trial strategies are supported.  The first mutates a random base with
one scaled difference and applies binomial crossover.  The second moves the
target toward a random member of the current elite pool plus one scaled
difference, then applies binomial crossover.  The third blends the target
with a random member using a uniform random coefficient plus one scaled
difference and uses no crossover at all.  ``make_trials`` builds every row
of a sub-population in one pass, whatever mix of strategies its rows use:
it draws each row's distinct indices without rejection, gathers the five
operand rows of all trials with one ``np.take``, builds the donors in place
in that buffer and runs each bound-repair pass only when a coordinate
leaves the box on that side.  At the paper's sizes its cost is mostly
numpy's fixed cost per call, so it makes few calls and allocates little.

Each strategy keeps its own circular memories of successful control
parameters.  New parameters are sampled around a uniformly chosen memory
cell, drawn as the floor of a uniform double: the scale factor from a
Cauchy distribution (resampled while non-positive, clamped to 1 from above)
and the crossover rate from a normal distribution truncated to [0, 1].
After a generation, memory cells are rewritten from the successes using an
improvement-weighted Lehmer mean for the scale factor and an
improvement-weighted arithmetic mean for the crossover rate.  One keyed
fold does this for every strategy at once: the successes of all strategies
come as aligned arrays with a strategy key, and ``np.bincount`` over the
key gives each strategy's sums.  ``bincount`` adds each key's entries in
input order, so a strategy's new cells are sequential sums over its own
successes and do not depend on the entries of any other key.
``strategy_rates`` reads a window of per-generation win rows;
``StrategyStats`` keeps that window as one ring for callers without a trace.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ._counts import whole

__all__ = [
    "ParameterMemory",
    "Strategy",
    "StrategyStats",
    "current_to_pbest_batch",
    "current_to_rand_batch",
    "improvement_weights",
    "make_trials",
    "pbest_pool_size",
    "rand_1_bin_batch",
    "select_strategies",
    "strategy_rates",
]


class Strategy(enum.IntEnum):
    RAND_1_BIN = 0
    CURRENT_TO_PBEST = 1
    CURRENT_TO_RAND = 2


_STRATEGY_IDS = np.arange(len(Strategy))[:, None]  # compared with a row of strategies


# ---------------------------------------------------------------------------
# Parameter memories

def improvement_weights(deltas):
    """Normalized weights proportional to per-success improvements.

    All-zero improvements fall back to uniform weights so ties still count.
    These are the weights the keyed fold gives one success set.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size == 0:
        raise ValueError("no improvements to weight")
    if not (deltas >= 0).all():  # written so that NaN fails it
        raise ValueError("improvements must be >= 0")
    return _keyed_weights(np.zeros(deltas.size, dtype=np.intp), deltas, 1)[0]


def _keyed_weights(keys, deltas, n_keys):
    """Each entry's improvement weight within its key's set, and the set sizes.

    The one weight rule: ``delta / total`` over the key's set, or ``1 / size``
    where the set's total is zero.  Every division has a non-zero
    denominator, because only keys that occur are looked up.  A set whose
    total is infinite, from an infinite delta or from an overflowing sum, is
    weighted on its deltas divided by its largest one, so that its infinite
    deltas share the weight equally and its finite ones get none; every
    other set keeps its deltas as they are.
    """
    count = np.bincount(keys, minlength=n_keys)
    total = np.bincount(keys, weights=deltas, minlength=n_keys)
    if np.isinf(total).any():
        largest = np.zeros(n_keys)
        np.maximum.at(largest, keys, deltas)
        big = largest[keys]
        scaled = np.divide(deltas, big, out=np.ones_like(deltas), where=deltas != big)
        deltas = np.where(np.isinf(total)[keys], scaled, deltas)
        total = np.bincount(keys, weights=deltas, minlength=n_keys)
    uniform = total == 0.0
    w = np.where(uniform[keys], 1.0, deltas) / np.where(uniform, count, total)[keys]
    return w, count


class ParameterMemory:
    """Per-strategy circular memories of successful F and CR values.

    Every cell starts at 0.5.  Each strategy has its own write pointer that
    advances (wrapping) whenever its cells are rewritten from a non-empty
    success set.
    """

    def __init__(self, length=5):
        self.length = whole(length, "memory length", 1)
        n = len(Strategy)
        self.f_memory = np.full((n, self.length), 0.5)
        self.cr_memory = np.full((n, self.length), 0.5)
        self.pointer = np.zeros(n, dtype=int)
        self._successes = [[] for _ in range(n)]

    def sample_parameters_many(self, strategy, size, rng):
        """Sample ``size`` (F, CR) pairs, one strategy or one per row.

        ``strategy`` is a single strategy or an array of ``size`` strategies.
        Each pair uses one memory cell of its strategy, the floor of a
        uniform double times the memory length, so each cell has probability
        1/length to within 2**-52.  F is Cauchy around the cell with spread
        0.1, redrawn while <= 0 and clamped to 1 from above, so F is always
        in (0, 1].  CR is normal around the cell with spread 0.1, truncated
        into [0, 1].
        """
        cells = (rng.random(size) * self.length).astype(np.intp)
        loc_f = self.f_memory[strategy, cells]
        loc_cr = self.cr_memory[strategy, cells]

        f = loc_f + 0.1 * rng.standard_cauchy(size)
        bad = f <= 0.0
        while redraw := np.count_nonzero(bad):
            f[bad] = loc_f[bad] + 0.1 * rng.standard_cauchy(redraw)
            bad = f <= 0.0
        f = np.minimum(f, 1.0)

        cr = (loc_cr + 0.1 * rng.standard_normal(size)).clip(0.0, 1.0)
        return f, cr

    def fold_successes(self, strategies, f, cr, delta):
        """Fold one generation's successes of every strategy into the memories.

        ``strategies``, ``f``, ``cr`` and ``delta`` are aligned 1-D arrays,
        one entry per success in any interleaving of strategies.  Each
        strategy with at least one success gets its cell at its pointer
        rewritten, the F cell with the weighted Lehmer mean
        ``sum(w F F) / sum(w F)`` and the CR cell with the weighted mean
        ``sum(w CR)``, and its pointer advances.  Weights follow
        ``improvement_weights`` within each strategy's set, and every sum
        runs over that set in input order.  A strategy without a success
        keeps its cells and pointer.
        """
        if not np.shape(strategies) == np.shape(f) == np.shape(cr) == np.shape(delta):
            raise ValueError("successes must be aligned")
        if not (delta >= 0).all():  # written so that NaN fails it
            raise ValueError("improvement must be >= 0")
        n = len(Strategy)
        w, count = _keyed_weights(strategies, delta, n)
        wf = w * f
        lehmer_num = np.bincount(strategies, weights=wf * f, minlength=n)
        lehmer_den = np.bincount(strategies, weights=wf, minlength=n)
        cr_mean = np.bincount(strategies, weights=w * cr, minlength=n)
        present = np.flatnonzero(count)
        p = self.pointer[present]
        self.f_memory[present, p] = lehmer_num[present] / lehmer_den[present]
        self.cr_memory[present, p] = cr_mean[present]
        self.pointer[present] = (p + 1) % self.length

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
        if not (delta >= 0).all():  # written so that NaN fails it
            raise ValueError("improvement must be >= 0")
        if delta.size:
            self._successes[strategy].append((f, cr, delta))

    def update_memory(self, strategy):
        """Fold the strategy's recorded successes into its memories.

        The records are concatenated in order and go through
        ``fold_successes``, so a non-empty set rewrites the cells at the
        strategy's pointer and advances it.  The success set is always
        cleared.
        """
        records = self._successes[strategy]
        if not records:
            return
        s_f, s_cr, s_delta = (np.concatenate(c) for c in zip(*records))
        records.clear()
        self.fold_successes(np.full(s_f.size, strategy), s_f, s_cr, s_delta)


# ---------------------------------------------------------------------------
# Strategy-selection statistics

def strategy_rates(wins, window):
    """Per-strategy selection probabilities from win rows, one row per generation.

    Uniform while there are fewer than ``window`` rows or the last ``window``
    hold no wins, else each strategy's share of those wins.  Over the rows of
    generations 0 ... G - 1, as ``solver.run`` passes them, this is SaDE's
    rule (Qin, Huang & Suganthan 2009), one generation behind G's own race.
    """
    window = whole(window, "window", 1)
    windowed = np.asarray(wins)[-window:].sum(axis=0)
    total = windowed.sum()
    if len(wins) < window or total == 0:
        return np.full(len(Strategy), 1.0 / len(Strategy))
    return windowed / total


class StrategyStats:
    """``strategy_rates`` stepped one generation at a time, for callers without a trace.

    The window is a ``(window, 3)`` ring: record k overwrites record
    ``k - window`` in row ``k % window``, so the column sums are its totals.
    """

    def __init__(self, window):
        self.window = whole(window, "window", 1)
        self._ring = np.zeros((self.window, len(Strategy)), dtype=int)
        self._records = 0

    def record_generation(self, counts):
        """Record one generation's per-strategy win counts, whole numbers that fit an int64."""
        counts = np.asarray(counts)
        fits = counts.shape == (len(Strategy),) and ((counts >= 0) & (counts < 2.0**63)).all()
        if not (fits and (counts % 1 == 0).all()):  # NaN and inf fail before the modulo
            raise ValueError("expected one whole count in [0, 2**63) per strategy")
        self._ring[self._records % self.window] = counts
        self._records += 1

    def windowed_wins(self):
        """Per-strategy win totals over the window."""
        return self._ring.sum(axis=0)

    def success_rates(self):
        """``strategy_rates`` over the recorded window."""
        return strategy_rates(self._ring[:self._records], self.window)


def select_strategies(rates, size, rng):
    """Roulette-wheel draw of ``size`` strategy indices from per-strategy rates."""
    edges = np.add.accumulate(rates)
    picks = np.searchsorted(edges, rng.random(size), side="right")
    return np.minimum(picks, len(Strategy) - 1)


# ---------------------------------------------------------------------------
# Trial generation

PBEST_FRACTION = 0.05  # the elite pool's share of the population


def pbest_pool_size(n_pop):
    """Size of the elite pool: ``PBEST_FRACTION`` of ``n_pop``, round half up, never below one."""
    return max(1, math.floor(PBEST_FRACTION * n_pop + 0.5))


def _repair(candidate, parent, lower, upper):
    # out-of-bounds coordinates move to the midpoint of the violated bound
    # and the parent, which always lies inside the box; most trial blocks
    # lie inside it, and those come back as the same array
    low = candidate < lower
    if low.any():
        candidate = np.where(low, 0.5 * (lower + parent), candidate)
    high = candidate > upper
    if high.any():
        candidate = np.where(high, 0.5 * (upper + parent), candidate)
    return candidate


def _three_distinct(targets, r0, r1, r2):
    """Three mutually distinct indices per row, none equal to the row's target.

    ``r0``, ``r1`` and ``r2`` hold each row's ranks, rank k in
    ``[0, n_pop - 1 - k)``.  Index k takes rank k among the indices still
    free: each rank steps over the taken ones in ascending order, so no
    draw is ever rejected.  The rank arrays are updated in place and
    returned.
    """
    r0 += r0 >= targets
    lo, hi = np.minimum(targets, r0), np.maximum(targets, r0)
    r1 += r1 >= lo
    r1 += r1 >= hi
    for taken in (np.minimum(lo, r1), np.maximum(lo, np.minimum(hi, r1)), np.maximum(hi, r1)):
        r2 += r2 >= taken
    return r0, r1, r2


def make_trials(pop, targets, strategies, f, cr, lower, upper, rng):
    """Trials for a set of target rows in one pass, each row under its own strategy.

    ``targets``, ``strategies``, ``f`` and ``cr`` are aligned per-row arrays,
    and ``pop`` must be sorted best-first, since the elite pool is its head
    ``pbest_pool_size(len(pop))`` rows.  Each row's indices r0, r1, r2 come
    from ``_three_distinct``.  The donor is
    ``x_b + K (x_a - x_b) + F (x_r1 - x_r2)``: rand/1 has base ``x_r0`` and
    K = 0; current-to-pbest/1 has the target as base, a uniform elite member
    as ``x_a`` and K = F; current-to-rand/1 has the target as base,
    ``x_a = x_r0`` and a uniform K in [0, 1).  Binomial crossover with one
    guaranteed donor coordinate applies to the first two strategies only,
    and midpoint repair follows.  Integer draws are floors of uniform
    doubles, so each of k choices has probability 1/k to within 2**-52.
    For m targets in d dimensions, every uniform double of the call comes
    from one block of ``m * (6 + d)``: five index draws per row, then the
    current-to-rand coefficients, then the crossover mask.

    The operand rows are gathered with one ``np.take``, and the donor is
    built in place in its ``x_a`` rows, in the formula's order.
    """
    targets = np.asarray(targets)
    m = len(targets)
    n, d = pop.shape
    u = rng.random(m * (6 + d))
    # the number of choices of r0, r1, r2, the elite member and the forced
    # crossover coordinate
    scales = np.array((n - 1, n - 2, n - 3, pbest_pool_size(n), d), dtype=float)
    r0, r1, r2, elite, j_rand = (u[:5 * m].reshape(m, 5) * scales).astype(np.intp).T
    _three_distinct(targets, r0, r1, r2)

    rand_1, pbest, cur_rand = strategies == _STRATEGY_IDS
    base = np.where(rand_1, r0, targets)
    coef = np.where(rand_1, 0.0, np.where(pbest, f, u[5 * m:6 * m]))
    rows = np.concatenate((base, np.where(pbest, elite, r0), r1, r2, targets))
    x_b, x_a, x_r1, x_r2, x = np.take(pop, rows, axis=0).reshape(5, m, d)
    x_a -= x_b
    x_a *= coef[:, None]
    x_a += x_b
    x_r1 -= x_r2
    x_r1 *= f[:, None]
    x_a += x_r1

    mask = u[6 * m:].reshape(m, d) < cr[:, None]
    mask[np.arange(m), j_rand] = True
    mask |= cur_rand[:, None]
    return _repair(np.where(mask, x_a, x), x, lower, upper)


def rand_1_bin_batch(pop, targets, f, cr, lower, upper, rng):
    """Random base plus one scaled difference, binomial crossover, repair."""
    return make_trials(pop, targets, np.full_like(targets, Strategy.RAND_1_BIN), f, cr,
                       lower, upper, rng)


def current_to_pbest_batch(pop, targets, f, cr, lower, upper, rng):
    """Move toward a random elite member plus one scaled difference.

    ``pop`` must already be sorted best-first, since the elite pool is its
    head ``pbest_pool_size(len(pop))`` rows.  Binomial crossover and
    midpoint repair follow; no archive is used.
    """
    return make_trials(pop, targets, np.full_like(targets, Strategy.CURRENT_TO_PBEST), f, cr,
                       lower, upper, rng)


def current_to_rand_batch(pop, targets, f, lower, upper, rng):
    """Blend toward a random member plus one scaled difference; no crossover."""
    return make_trials(pop, targets, np.full_like(targets, Strategy.CURRENT_TO_RAND), f,
                       np.ones(len(targets)), lower, upper, rng)

