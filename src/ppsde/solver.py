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

The phase switch is one-way: once the best objective stagnates over a
learning period, the search leaves the push phase and pulls the population
back to feasibility under a relaxation level that decays to zero.

Two ablation baselines share the identical loop: ``sf-de`` applies
feasibility-first comparison everywhere for the whole run, and ``eps-de``
applies the relaxed rule from generation 0 with its schedule seeded from the
initial population.
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

    mode = cfg.algorithm
    started = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    n, t, d = cfg.n_pop, cfg.top_size, problem.dim
    n_bottom = n - t
    gen_cost = 3 * t + n_bottom
    lower, upper = problem.lower, problem.upper
    cutoff = cfg.eps_cutoff_fraction * (cfg.max_fes / (2.0 * n))

    pop = rng.uniform(lower, upper, size=(n, d))
    f, g, h, phi = evaluate_many(problem, pop)
    fes = n

    memory = ParameterMemory(cfg.memory_length)
    stats = StrategyStats(window=cfg.learning_period)
    tracker = PhaseTracker(cfg.learning_period, cfg.switch_threshold, cfg.switch_delta)
    schedule = None
    pull_start = None
    if mode == "eps-de":
        schedule = EpsilonSchedule.from_violations(
            phi, cutoff=cutoff, quantile=cfg.eps_quantile, eps_initial=cfg.eps_initial,
            shrink=cfg.eps_shrink, feasible_trigger=cfg.eps_feasible_trigger,
            decay_power=cfg.eps_decay_power,
        )
        pull_start = 0

    idx = sf_best_index(f, phi)
    best_x = pop[idx].copy()
    best_f = float(f[idx])
    best_phi = float(phi[idx])
    best_g = g[idx].copy()
    best_h = h[idx].copy()

    pool = pbest_pool_size(n, cfg.p_fraction)
    top_idx = np.arange(t)
    top_targets = np.tile(top_idx, 3)
    top_strategies = np.repeat(np.arange(len(STRATEGIES)), t)  # strategy-major
    bottom_idx = np.arange(t, n)

    rows = []
    generation = 0
    while fes + gen_cost <= cfg.max_fes:
        feasible_ratio = float(np.mean(phi == 0.0))
        if mode == "sf-de":
            comparator, eps = _SF_MODE, math.nan
        elif mode == "eps-de":
            comparator, eps = PULL, schedule.level(generation, feasible_ratio)
        elif tracker.phase == PULL:
            comparator, eps = PULL, schedule.level(generation - pull_start, feasible_ratio)
        else:
            comparator, eps = PUSH, math.inf

        order = sf_order(f, phi)
        pop, f, phi, g, h = pop[order], f[order], phi[order], g[order], h[order]
        top_f, top_cr = memory.sample_parameters_many(top_strategies, 3 * t, rng)
        tx = make_trials(pop, top_targets, top_strategies, top_f, top_cr, pool,
                         lower, upper, rng)
        tf, tg, th, tphi = evaluate_many(problem, tx)
        fes += 3 * t

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
        fes += n_bottom

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
            if chosen.any():
                memory.record_success(s, c_fp[chosen], c_crp[chosen], delta[chosen])
            memory.update_memory(s)

        pop[accept] = c_x[accept]
        f[accept] = c_f[accept]
        phi[accept] = c_phi[accept]
        g[accept] = np.concatenate((tg[won], b_g))[accept]
        h[accept] = np.concatenate((th[won], b_h))[accept]

        pop_min_f = float(f.min())
        idx = sf_best_index(f, phi)
        if bool(sf_better_mask(phi[idx], f[idx], best_phi, best_f)):
            best_x = pop[idx].copy()
            best_f = float(f[idx])
            best_phi = float(phi[idx])
            best_g = g[idx].copy()
            best_h = h[idx].copy()

        rate = math.nan
        if mode == "pps-de":
            rate = tracker.update_rate(generation, pop_min_f)
            if tracker.should_switch():
                pull_start = generation + 1
                schedule = EpsilonSchedule.from_violations(
                    phi, cutoff=cutoff, quantile=cfg.eps_quantile,
                    eps_initial=cfg.eps_initial, shrink=cfg.eps_shrink,
                    feasible_trigger=cfg.eps_feasible_trigger,
                    decay_power=cfg.eps_decay_power,
                )

        rows.append((generation, fes, best_f, best_phi, comparator, eps, sr,
                     pop_min_f, feasible_ratio, wins,
                     np.bincount(picks, minlength=3), rate))
        generation += 1

    trace = _pack_trace(rows)
    best = Individual(
        x=best_x,
        evaluation=Evaluation(f=best_f, g_values=best_g, h_values=best_h, phi=best_phi),
    )
    return RunResult(
        best=best,
        trace=trace,
        final_fes=int(fes),
        generations=generation,
        switch_generation=tracker.switch_generation if mode == "pps-de" else None,
        wall_time=time.perf_counter() - started,
        config=cfg,
        problem_name=problem.name or "problem",
    )


def _pack_trace(rows):
    if not rows:
        empty = np.array([])
        return RunTrace(
            generation=np.array([], dtype=int), fes=np.array([], dtype=int),
            best_f=empty, best_phi=empty.copy(), phase=np.array([], dtype=str),
            eps=empty.copy(), sr=np.empty((0, 3)), pop_min_f=empty.copy(),
            feasible_ratio=empty.copy(), wins=np.empty((0, 3), dtype=int),
            bottom_strategies=np.empty((0, 3), dtype=int), rate=empty.copy(),
        )
    cols = list(zip(*rows))
    return RunTrace(
        generation=np.array(cols[0], dtype=int),
        fes=np.array(cols[1], dtype=int),
        best_f=np.array(cols[2]),
        best_phi=np.array(cols[3]),
        phase=np.array(cols[4]),
        eps=np.array(cols[5]),
        sr=np.array(cols[6]),
        pop_min_f=np.array(cols[7]),
        feasible_ratio=np.array(cols[8]),
        wins=np.array(cols[9], dtype=int),
        bottom_strategies=np.array(cols[10], dtype=int),
        rate=np.array(cols[11]),
    )

