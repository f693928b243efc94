"""Constrained differential evolution with a push-pull phase switch.

One generation proceeds as follows.  The population is sorted
feasibility-first and split into a top and a bottom part.  Every top member
generates three trials, one per strategy with independently sampled control
parameters; the best of the three under the current phase's comparison rule
is kept and its strategy credited with a win.  Every bottom member generates
a single trial with a strategy drawn from the windowed win rates.  All
replacements are one-to-one under the phase rule: constraint-blind while
pushing, violation-relaxed while pulling.  Successful control parameters,
weighted by how much they improved the deciding criterion, are folded into
the per-strategy memories at the end of the generation.

A run makes exactly ``(max_fes - N) // (3T + N - T)`` generations for a
population of N with a top part of T; a partial generation never starts.

The phase state is one number, the generation at which pulling starts: 0
for ``eps-de``; for ``pps-de`` it is set once, to the generation after the
population's minimum objective stagnates over a learning period.  At the
top of that generation the relaxation schedule is seeded from the
population's violations; it then decays to zero.  ``sf-de`` never pulls
and compares feasibility-first for the whole run.  All three share the
identical loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .de import (  # noqa: F401 - the *_batch names stay bound for perfbench/tracing.py
    STRATEGIES,
    ParameterMemory,
    StrategyStats,
    current_to_pbest_batch,
    current_to_rand_batch,
    make_trials,
    pbest_pool_size,
    rand_1_bin_batch,
    select_strategies,
)
from .phases import PULL, PUSH, EpsilonSchedule, PhaseTracker
from .problems import Evaluation, Individual, evaluate_many
from .selection import (  # noqa: F401 - the *_accept_mask names stay bound for perfbench/tracing.py
    pull_accept_mask,
    push_accept_mask,
    sf_accept_mask,
    sf_best_index,
    sf_better_mask,
    sf_order,
)

__all__ = [
    "ALGORITHMS",
    "RunConfig",
    "RunResult",
    "RunTrace",
    "run",
]

ALGORITHMS = ("pps-de", "sf-de", "eps-de")

_SF_MODE = "sf"


@dataclass(frozen=True)
class RunConfig:
    """Algorithm selection and every tunable of a single run.

    ``n_pop``, ``top_size`` and ``max_fes`` default to five times the
    dimension, half the population and 20000 evaluations per dimension when
    left as None.  ``sigma`` overrides the problem's equality tolerance when
    set.  ``eps_initial`` overrides the violation-quantile start level of
    the pull schedule when set.
    """

    algorithm: str = "pps-de"
    seed: int = 0
    n_pop: int | None = None
    top_size: int | None = None
    max_fes: int | None = None
    learning_period: int = 25
    p_fraction: float = 0.05
    memory_length: int = 5
    sigma: float | None = None
    switch_threshold: float = 1e-3
    switch_delta: float = 1e-6
    eps_initial: float | None = None
    eps_quantile: float = 0.95
    eps_shrink: float = 0.1
    eps_feasible_trigger: float = 0.95
    eps_decay_power: float = 2.0
    eps_cutoff_fraction: float = 0.9


@dataclass(frozen=True)
class RunTrace:
    """Per-generation record of one run.

    ``best_f``/``best_phi`` follow the retained feasibility-first best;
    ``pop_min_f`` is the population's raw objective minimum, the quantity
    the phase switch watches.  ``sr`` holds the strategy rates used for the
    bottom picks, ``wins`` the top win counts, ``bottom_strategies`` the
    bottom pick counts, each with one column per strategy.
    """

    generation: np.ndarray
    fes: np.ndarray
    best_f: np.ndarray
    best_phi: np.ndarray
    phase: np.ndarray
    eps: np.ndarray
    sr: np.ndarray
    pop_min_f: np.ndarray
    feasible_ratio: np.ndarray
    wins: np.ndarray
    bottom_strategies: np.ndarray
    rate: np.ndarray


@dataclass(frozen=True)
class RunResult:
    best: Individual
    trace: RunTrace
    final_fes: int
    generations: int
    switch_generation: int | None
    wall_time: float
    config: RunConfig
    problem_name: str


def _resolve(problem, config):
    if config.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {config.algorithm!r}; choose from {ALGORITHMS}")
    n = config.n_pop if config.n_pop is not None else 5 * problem.dim
    t = config.top_size if config.top_size is not None else n // 2
    fes = config.max_fes if config.max_fes is not None else 20000 * problem.dim
    if n < 4:
        raise ValueError("population size must be >= 4")
    if not 4 <= t <= n:
        raise ValueError("top size must satisfy 4 <= top <= population size")
    if fes < n:
        raise ValueError("evaluation budget must cover the initial population")
    if config.learning_period < 1 or config.memory_length < 1:
        raise ValueError("learning period and memory length must be >= 1")
    if not 0 < config.p_fraction <= 1:
        raise ValueError("p_fraction must lie in (0, 1]")
    # every remaining check is written so that NaN fails it
    checks = (
        (config.sigma is None or config.sigma >= 0, "sigma must be >= 0"),
        (not math.isnan(config.switch_threshold), "switch_threshold must be a number"),
        (0 < config.switch_delta < math.inf, "switch_delta must be positive and finite"),
        (config.eps_initial is None or config.eps_initial >= 0, "eps_initial must be >= 0"),
        (0 <= config.eps_quantile <= 1, "eps_quantile must lie in [0, 1]"),
        (0 <= config.eps_shrink < 1, "eps_shrink must lie in [0, 1)"),
        (0 <= config.eps_feasible_trigger <= 1, "eps_feasible_trigger must lie in [0, 1]"),
        (0 < config.eps_decay_power < math.inf, "eps_decay_power must be positive and finite"),
        (0 < config.eps_cutoff_fraction <= 1, "eps_cutoff_fraction must lie in (0, 1]"),
    )
    for ok, message in checks:
        if not ok:
            raise ValueError(message)
    return replace(config, n_pop=int(n), top_size=int(t), max_fes=int(fes))


def _objective_decided(mode, phi_a, phi_b, eps):
    """Mask D, true where the mode's rule compares two points by objective.

    Every rule is lexicographic: the objective decides where D holds and the
    violation decides everywhere else, so a trial replaces a parent where
    ``where(D, f_trial <= f_parent, phi_trial <= phi_parent)``.  D is
    symmetric in the two points.
    """
    if mode == PUSH:
        return np.ones(np.shape(phi_b), dtype=bool)
    if mode == PULL:
        return ((phi_b <= eps) & (phi_a <= eps)) | (phi_b == phi_a)
    return (phi_a == 0.0) & (phi_b == 0.0)


def _strictly_better(mode, phi_new, f_new, phi_old, f_old, eps):
    # acceptance old -> new and not new -> old
    return np.where(_objective_decided(mode, phi_old, phi_new, eps),
                    f_new < f_old, phi_new < phi_old)


def _member(pop, f, g, h, phi, i):
    """Member ``i`` of the evaluated population as an Individual of copies."""
    evaluation = Evaluation(f=float(f[i]), g_values=g[i].copy(), h_values=h[i].copy(),
                            phi=float(phi[i]))
    return Individual(x=pop[i].copy(), evaluation=evaluation)


def run(problem, config, *, force_win_strategy=None):
    """Run the configured algorithm on a problem and return a RunResult.

    ``force_win_strategy`` is a diagnostics hook: when set to a strategy
    index, every top target's winning trial is taken from that strategy so
    the adaptation machinery can be observed under a known signal.
    """
    cfg = _resolve(problem, config)
    if cfg.sigma is not None:
        problem = problem.with_sigma(cfg.sigma)
    if force_win_strategy is not None and force_win_strategy not in (0, 1, 2):
        raise ValueError("force_win_strategy must be 0, 1 or 2")

    started = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    n, t, d = cfg.n_pop, cfg.top_size, problem.dim
    n_bottom = n - t
    gen_cost = 3 * t + n_bottom
    n_gen = (cfg.max_fes - n) // gen_cost
    lower, upper = problem.lower, problem.upper
    cutoff = cfg.eps_cutoff_fraction * (cfg.max_fes / (2.0 * n))

    pop = rng.uniform(lower, upper, size=(n, d))
    f, g, h, phi = evaluate_many(problem, pop)
    best = _member(pop, f, g, h, phi, sf_best_index(f, phi))

    memory = ParameterMemory(cfg.memory_length)
    stats = StrategyStats(window=cfg.learning_period)
    tracker = PhaseTracker(cfg.learning_period, cfg.switch_threshold, cfg.switch_delta)
    pull_start = 0 if cfg.algorithm == "eps-de" else None

    pool = pbest_pool_size(n, cfg.p_fraction)
    top_idx = np.arange(t)
    top_targets = np.tile(top_idx, 3)
    top_strategies = np.repeat(np.arange(len(STRATEGIES)), t)  # strategy-major
    bottom_idx = np.arange(t, n)

    rows = []
    for generation in range(n_gen):
        feasible_ratio = float(np.mean(phi == 0.0))
        if generation == pull_start:
            schedule = EpsilonSchedule.from_violations(
                phi, cutoff=cutoff, quantile=cfg.eps_quantile, eps_initial=cfg.eps_initial,
                shrink=cfg.eps_shrink, feasible_trigger=cfg.eps_feasible_trigger,
                decay_power=cfg.eps_decay_power,
            )
        if cfg.algorithm == "sf-de":
            comparator, eps = _SF_MODE, math.nan
        elif pull_start is not None:
            comparator, eps = PULL, schedule.level(generation - pull_start, feasible_ratio)
        else:
            comparator, eps = PUSH, math.inf

        order = sf_order(f, phi)
        pop, f, phi, g, h = pop[order], f[order], phi[order], g[order], h[order]
        top_f, top_cr = memory.sample_parameters_many(top_strategies, 3 * t, rng)
        tx = make_trials(pop, top_targets, top_strategies, top_f, top_cr, pool,
                         lower, upper, rng)
        tf, tg, th, tphi = evaluate_many(problem, tx)

        tf3, tphi3 = tf.reshape(3, t), tphi.reshape(3, t)
        if force_win_strategy is not None:
            winner = np.full(t, int(force_win_strategy))
        else:
            winner = np.zeros(t, dtype=int)
            for c in (1, 2):
                better = _strictly_better(comparator, tphi3[c], tf3[c],
                                          tphi3[winner, top_idx], tf3[winner, top_idx], eps)
                winner = np.where(better, c, winner)
        won = winner * t + top_idx  # flat rows of the winning top trials

        wins = np.bincount(winner, minlength=3)
        stats.record_generation(wins)
        sr = stats.success_rates(generation)

        picks = select_strategies(sr, n_bottom, rng)
        b_f_param, b_cr_param = memory.sample_parameters_many(picks, n_bottom, rng)
        bx = make_trials(pop, bottom_idx, picks, b_f_param, b_cr_param, pool,
                         lower, upper, rng)
        b_f, b_g, b_h, b_phi = evaluate_many(problem, bx)

        # one candidate per member: its best top trial, or its bottom trial
        c_x = np.concatenate((tx[won], bx))
        c_f = np.concatenate((tf[won], b_f))
        c_phi = np.concatenate((tphi[won], b_phi))
        decided = _objective_decided(comparator, phi, c_phi, eps)
        accept = np.where(decided, c_f <= f, c_phi <= phi)

        # improvements are measured against the criterion that decided the
        # replacement, before any replacement is applied
        delta = np.where(decided, np.abs(f - c_f), np.abs(phi - c_phi))
        c_strategy = np.concatenate((winner, picks))
        c_fp = np.concatenate((top_f[won], b_f_param))
        c_crp = np.concatenate((top_cr[won], b_cr_param))
        for s in STRATEGIES:
            chosen = accept & (c_strategy == s)
            memory.record_success(s, c_fp[chosen], c_crp[chosen], delta[chosen])
            memory.update_memory(s)

        pop[accept] = c_x[accept]
        f[accept] = c_f[accept]
        phi[accept] = c_phi[accept]
        g[accept] = np.concatenate((tg[won], b_g))[accept]
        h[accept] = np.concatenate((th[won], b_h))[accept]

        pop_min_f = float(f.min())
        idx = sf_best_index(f, phi)
        if bool(sf_better_mask(phi[idx], f[idx], best.phi, best.f)):
            best = _member(pop, f, g, h, phi, idx)

        rate = math.nan
        if cfg.algorithm == "pps-de":
            rate = tracker.update_rate(generation, pop_min_f)
            if tracker.should_switch():
                pull_start = generation + 1

        rows.append((best.f, best.phi, comparator, eps, sr, pop_min_f, feasible_ratio,
                     wins, np.bincount(picks, minlength=3), rate))

    return RunResult(
        best=best,
        trace=_pack_trace(rows, n + gen_cost * np.arange(1, n_gen + 1)),
        final_fes=n + gen_cost * n_gen,
        generations=n_gen,
        switch_generation=tracker.switch_generation,
        wall_time=time.perf_counter() - started,
        config=cfg,
        problem_name=problem.name or "problem",
    )


def _pack_trace(rows, fes):
    """Stack one row per generation into a RunTrace; no rows give empty columns."""
    best_f, best_phi, phase, eps, sr, pop_min_f, feasible_ratio, wins, bottom, rate = (
        [row[j] for row in rows] for j in range(10))
    return RunTrace(
        generation=np.arange(len(fes)),
        fes=fes,
        best_f=np.array(best_f, dtype=float),
        best_phi=np.array(best_phi, dtype=float),
        phase=np.array(phase, dtype=str),
        eps=np.array(eps, dtype=float),
        sr=np.array(sr, dtype=float).reshape(-1, 3),
        pop_min_f=np.array(pop_min_f, dtype=float),
        feasible_ratio=np.array(feasible_ratio, dtype=float),
        wins=np.array(wins, dtype=int).reshape(-1, 3),
        bottom_strategies=np.array(bottom, dtype=int).reshape(-1, 3),
        rate=np.array(rate, dtype=float),
    )
