"""Plain references for the solver: its comparison rules, its memory fold and
a whole run, one member at a time.

The rules are written case by case, as the papers state them, independently
of ``ppsde.selection``'s keys.  ``reference_run`` combines them the way the
method does, in plain Python loops over members, trials and coordinates.
It shares with ``ppsde.solver.run`` only the layout of the random draws,
which fixes the stream: the initial population, then per generation the
bottom picks, the memory cells, the F draws and their redraws, the CR
draws, and one block of uniform doubles for the trials, laid out as the
``make_trials`` docstring states.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from types import SimpleNamespace

import numpy as np

from ppsde.de import PBEST_FRACTION, Strategy
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
)
from ppsde.problems import evaluate
from ppsde.solver import RunTrace

MEMORY_LENGTH = 5  # the default of ParameterMemory(length=)


def objective_decided(mode, phi_a, phi_b, eps):
    # true where the mode's rule compares two points by objective, and the
    # violation decides everywhere else
    if mode == PUSH:
        return np.ones(np.shape(phi_b), dtype=bool)
    if mode == PULL:
        return ((phi_b <= eps) & (phi_a <= eps)) | (phi_b == phi_a)
    return (phi_a == 0.0) & (phi_b == 0.0)


def accept_reference(mode, phi_p, f_p, phi_t, f_t, eps):
    return np.where(objective_decided(mode, phi_p, phi_t, eps), f_t <= f_p, phi_t <= phi_p)


def delta_reference(mode, phi_p, f_p, phi_t, f_t, eps):
    # the improvement on the criterion that decided the replacement
    return np.where(objective_decided(mode, phi_p, phi_t, eps),
                    np.abs(f_p - f_t), np.abs(phi_p - phi_t))


def strictly_better(mode, phi_new, f_new, phi_old, f_old, eps):
    # acceptance old -> new and not new -> old
    return (accept_reference(mode, phi_old, f_old, phi_new, f_new, eps)
            & ~accept_reference(mode, phi_new, f_new, phi_old, f_old, eps))


def race_reference(mode, phi, f, eps):
    # per target: the earliest trial that no other trial beats, credited
    # when it beats both others
    winners, outright = [], []
    for col in range(phi.shape[1]):
        def better(j, k):
            return bool(strictly_better(mode, phi[j, col], f[j, col], phi[k, col], f[k, col],
                                        eps))
        best = next(j for j in range(3) if not any(better(k, j) for k in range(3) if k != j))
        winners.append(best)
        outright.append(all(better(best, k) for k in range(3) if k != best))
    return np.array(winners), np.array(outright)


def fold_reference(memory, strategies, f, cr, delta):
    """Plain-Python fold: per strategy, sequential sums in input order."""
    for s in range(len(Strategy)):
        rows = [i for i in range(len(strategies)) if strategies[i] == s]
        if not rows:
            continue
        total = 0.0
        for i in rows:
            total += delta[i]
        w = {i: (1.0 / len(rows) if total == 0.0 else delta[i] / total) for i in rows}
        num = den = mean_cr = 0.0
        for i in rows:
            num += w[i] * f[i] * f[i]
            den += w[i] * f[i]
            mean_cr += w[i] * cr[i]
        p = memory.pointer[s]
        memory.f_memory[s][p] = num / den
        memory.cr_memory[s][p] = mean_cr
        memory.pointer[s] = (p + 1) % memory.length


def _sf_compare(a, b):
    # a sort comparison of two evaluated points: feasibility-first
    if strictly_better(SF, a.phi, a.f, b.phi, b.f, math.nan):
        return -1
    return 1 if strictly_better(SF, b.phi, b.f, a.phi, a.f, math.nan) else 0


def _sf_sorted(members):
    # Python's sort is stable, so tied members keep their order
    return sorted(members, key=functools.cmp_to_key(_sf_compare))


def _three_distinct(n, target, ranks):
    # index k is the member of rank k among those not yet taken, in ascending order
    free = [j for j in range(n) if j != target]
    return [free.pop(rank) for rank in ranks]


def trials_reference(pop, targets, strategies, f, cr, u, lower, upper):
    """The trials ``make_trials`` builds from its uniform block ``u``, one
    coordinate at a time.

    ``pop`` holds the decision vectors, best first, and its head
    ``max(1, floor(PBEST_FRACTION * len(pop) + 1/2))`` rows are the elite pool.
    """
    n, d, m = len(pop), len(lower), len(targets)
    pool = max(1, math.floor(PBEST_FRACTION * n + 0.5))
    trials = []
    for i, (target, strategy) in enumerate(zip(targets, strategies)):
        draws = u[5 * i:5 * i + 5]
        r0, r1, r2 = _three_distinct(n, target, [int(v * c) for v, c in
                                                 zip(draws[:3], (n - 1, n - 2, n - 3))])
        elite, j_rand = int(draws[3] * pool), int(draws[4] * d)
        if strategy == Strategy.RAND_1_BIN:
            base, toward, k = r0, r0, 0.0
        elif strategy == Strategy.CURRENT_TO_PBEST:
            base, toward, k = target, elite, f[i]
        else:
            base, toward, k = target, r0, u[5 * m + i]
        x, x_b, x_a, x_r1, x_r2 = (pop[r] for r in (target, base, toward, r1, r2))
        trial = []
        for j in range(d):
            # the donor x_b + K (x_a - x_b) + F (x_r1 - x_r2), in that operation order
            donor = (x_a[j] - x_b[j]) * k + x_b[j] + (x_r1[j] - x_r2[j]) * f[i]
            crossed = (strategy == Strategy.CURRENT_TO_RAND or j == j_rand
                       or u[6 * m + i * d + j] < cr[i])
            c = donor if crossed else x[j]
            if c < lower[j]:
                c = 0.5 * (lower[j] + x[j])
            if c > upper[j]:
                c = 0.5 * (upper[j] + x[j])
            trial.append(c)
        trials.append(trial)
    return np.array(trials, dtype=float).reshape(m, d)


def reference_run(problem, config):
    """The run ``ppsde.solver.run(problem, config)`` makes, one member at a time.

    ``config`` must give ``n_pop``, ``top_size`` and ``max_fes``.  Returns a
    namespace with ``best`` (the best ``Point``),
    ``switch_generation`` and ``trace``, a dict of one list per ``RunTrace``
    field.
    """
    rng = np.random.default_rng(config.seed)
    n, t, d = config.n_pop, config.top_size, problem.dim
    period, algorithm = config.learning_period, config.algorithm
    m = 3 * t + n - t  # trials per generation
    n_gen = (config.max_fes - n) // m
    cutoff = EPS_CUTOFF_FRACTION * n_gen
    lower, upper = problem.lower.tolist(), problem.upper.tolist()
    # trial row i targets member targets[i] under strategy strategies[i]:
    # three top trials per top member, strategy-major, then one per bottom member
    targets = list(range(t)) * 3 + list(range(t, n))
    top_strategies = [s for s in range(3) for _ in range(t)]

    pop = _sf_sorted([evaluate(problem, x)
                      for x in rng.uniform(problem.lower, problem.upper, size=(n, d))])
    best = pop[0]
    memory = SimpleNamespace(length=MEMORY_LENGTH, pointer=[0] * 3,
                             f_memory=[[0.5] * MEMORY_LENGTH for _ in range(3)],
                             cr_memory=[[0.5] * MEMORY_LENGTH for _ in range(3)])
    win_history, min_history = [], []
    pull_start = 0 if algorithm == "eps-de" else None
    switch_generation = None
    trace = {field.name: [] for field in dataclasses.fields(RunTrace)}

    for generation in range(n_gen):
        feasible_ratio = sum(p.phi == 0.0 for p in pop) / n
        if generation == pull_start:
            eps_initial = float(np.quantile([p.phi for p in pop], EPS_QUANTILE))
            level = eps_initial
        if algorithm == "sf-de":
            mode, eps = SF, math.nan
        elif pull_start is not None:
            k = generation - pull_start
            if k >= cutoff:
                level = 0.0
            elif k == 0:
                level = eps_initial
            elif feasible_ratio < FEASIBLE_TRIGGER:
                level = (1.0 - EPS_SHRINK) * level
            else:
                level = eps_initial * (1.0 - k / cutoff) ** DECAY_POWER
            mode, eps = PULL, level
        else:
            mode, eps = PUSH, math.inf

        # strategy rates from the wins of the last `period` generations
        window = win_history[-period:]
        totals = [sum(wins[s] for wins in window) for s in range(3)]
        if len(window) < period or sum(totals) == 0:
            sr = [1.0 / 3] * 3
        else:
            sr = [c / sum(totals) for c in totals]
        edges = [sr[0], sr[0] + sr[1], sr[0] + sr[1] + sr[2]]
        picks = [min(sum(e <= u for e in edges), 2) for u in rng.random(n - t)]
        strategies = top_strategies + picks

        cells = [int(u * MEMORY_LENGTH) for u in rng.random(m)]
        loc_f = [memory.f_memory[s][c] for s, c in zip(strategies, cells)]
        loc_cr = [memory.cr_memory[s][c] for s, c in zip(strategies, cells)]
        f = [loc + 0.1 * z for loc, z in zip(loc_f, rng.standard_cauchy(m))]
        while bad := [i for i in range(m) if f[i] <= 0.0]:
            for i, z in zip(bad, rng.standard_cauchy(len(bad))):
                f[i] = loc_f[i] + 0.1 * z
        f = [min(v, 1.0) for v in f]
        cr = [min(max(loc + 0.1 * z, 0.0), 1.0)
              for loc, z in zip(loc_cr, rng.standard_normal(m))]

        xs = trials_reference([p.x for p in pop], targets, strategies, f, cr,
                              rng.random(m * (6 + d)), lower, upper)
        trials = [evaluate(problem, x) for x in xs]

        top = [[trials[s * t + i] for i in range(t)] for s in range(3)]
        winner, outright = race_reference(mode, np.array([[p.phi for p in row] for row in top]),
                                          np.array([[p.f for p in row] for row in top]), eps)
        wins = [0, 0, 0]
        for s, credited in zip(winner, outright):
            wins[s] += bool(credited)
        win_history.append(wins)

        # each member's candidate is its winning top trial or its bottom trial
        kept, successes = [], ([], [], [], [])  # strategy, F, CR and improvement
        for i in range(n):
            row = winner[i] * t + i if i < t else 3 * t + i - t
            parent, cand = pop[i], trials[row]
            if accept_reference(mode, parent.phi, parent.f, cand.phi, cand.f, eps):
                kept.append(trials[row])
                delta = float(delta_reference(mode, parent.phi, parent.f, cand.phi, cand.f,
                                              eps))
                for column, value in zip(successes, (strategies[row], f[row], cr[row], delta)):
                    column.append(value)
            else:
                kept.append(pop[i])
        fold_reference(memory, *successes)
        pop = _sf_sorted(kept)

        pop_min_f = min(p.f for p in pop)
        if strictly_better(SF, pop[0].phi, pop[0].f, best.phi, best.f, math.nan):
            best = pop[0]

        rate = math.nan
        if algorithm == "pps-de":
            min_history.append(pop_min_f)
            rate = 1.0
            if generation >= period:
                old = min_history[generation - period]
                rate = (old - pop_min_f) / max(abs(old), RATE_FLOOR)
            if switch_generation is None and rate <= SWITCH_THRESHOLD:
                switch_generation, pull_start = generation, generation + 1

        record = dict(generation=generation, fes=n + m * (generation + 1), best_f=best.f,
                      best_phi=best.phi, phase=mode, eps=eps, sr=sr, pop_min_f=pop_min_f,
                      feasible_ratio=feasible_ratio, wins=wins,
                      bottom_strategies=[picks.count(s) for s in range(3)], rate=rate)
        for name, value in record.items():
            trace[name].append(value)

    return SimpleNamespace(best=best, switch_generation=switch_generation, trace=trace)
