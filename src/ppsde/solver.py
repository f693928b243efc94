"""Constrained differential evolution with a push-pull phase switch.

One generation proceeds as follows.  The population, kept sorted
feasibility-first, is split into a top and a bottom part.  Every top member
generates three trials, one per strategy with independently sampled control
parameters; the best of the three under the current phase's comparison rule
is kept and its strategy credited with a win.  Every bottom member generates
a single trial with a strategy drawn from the windowed win rates.  One
offspring step serves both parts: it samples the control parameters, builds
the trials and evaluates them, first for the top targets and then for the
bottom ones, and the two results form one trial block per generation.  All
replacements are one-to-one under the phase rule: constraint-blind while
pushing, violation-relaxed while pulling.  Successful control parameters,
weighted by how much they improved the deciding criterion, are folded into
the per-strategy memories at the end of the generation.  The population is
then sorted once, and its first row is the only candidate for the
incumbent.

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
from .selection import (  # noqa: F401 - sf_best_index, *_accept_mask kept for perfbench/tracing.py
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
_EPS_CUTOFF_FRACTION = 0.9  # eps is 0 from this share of max_fes / (2N) generations on


@dataclass(frozen=True)
class RunConfig:
    """Algorithm selection and the settings a caller varies between runs.

    ``n_pop``, ``top_size`` and ``max_fes`` default to five times the
    dimension, half the population and 20000 evaluations per dimension when
    left as None.  ``sigma`` overrides the problem's equality tolerance when
    set.  ``eps_initial`` overrides the violation-quantile start level of
    the pull schedule when set.  The method's fixed constants are the
    defaults of ``PhaseTracker``, ``EpsilonSchedule``, ``ParameterMemory``
    and ``pbest_pool_size``, and ``_EPS_CUTOFF_FRACTION``.
    """

    algorithm: str = "pps-de"
    seed: int = 0
    n_pop: int | None = None
    top_size: int | None = None
    max_fes: int | None = None
    learning_period: int = 25
    sigma: float | None = None
    eps_initial: float | None = None


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
    period = config.learning_period
    # every check is written so that NaN fails it; a float such as 1e5 passes the first
    checks = (
        (all(v % 1 == 0 for v in (n, t, fes, period)),
         "population, top size, budget and learning period must be whole numbers"),
        (n >= 4, "population size must be >= 4"),
        (4 <= t <= n, "top size must satisfy 4 <= top <= population size"),
        (fes >= n, "evaluation budget must cover the initial population"),
        (period >= 1, "learning period must be >= 1"),
        (config.sigma is None or config.sigma >= 0, "sigma must be >= 0"),
        (config.eps_initial is None or config.eps_initial >= 0, "eps_initial must be >= 0"),
    )
    for ok, message in checks:
        if not ok:
            raise ValueError(message)
    return replace(config, n_pop=int(n), top_size=int(t), max_fes=int(fes),
                   learning_period=int(period))


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


def _member(x, f, phi, g, h):
    """One evaluated point as an Individual of copies."""
    return Individual(x.copy(), Evaluation(float(f), g.copy(), h.copy(), float(phi)))


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
    cutoff = _EPS_CUTOFF_FRACTION * (cfg.max_fes / (2.0 * n))

    pop = rng.uniform(lower, upper, size=(n, d))
    f, g, h, phi = evaluate_many(problem, pop)
    # the population stays sorted feasibility-first between generations,
    # so row 0 is its best member
    order = sf_order(f, phi)
    pop, f, phi = pop[order], f[order], phi[order]
    best = _member(pop[0], f[0], phi[0], g[order[0]], h[order[0]])

    memory = ParameterMemory()
    stats = StrategyStats(window=cfg.learning_period)
    tracker = PhaseTracker(cfg.learning_period)
    pull_start = 0 if cfg.algorithm == "eps-de" else None

    pool = pbest_pool_size(n)
    top_idx = np.arange(t)
    top_targets = np.tile(top_idx, 3)
    strategy_ids = np.arange(len(STRATEGIES))[:, None]
    top_strategies = np.repeat(strategy_ids, t)  # strategy-major
    bottom_idx = np.arange(t, n)
    member_rows = np.arange(n)
    bottom_rows = np.arange(3 * t, gen_cost)  # the bottom trials' rows of the trial block

    def offspring(pop, targets, strategies):
        """One trial per target with freshly sampled F/CR: x, f, g, h, phi, F, CR."""
        f_param, cr_param = memory.sample_parameters_many(strategies, len(targets), rng)
        x = make_trials(pop, targets, strategies, f_param, cr_param, pool, lower, upper, rng)
        return (x, *evaluate_many(problem, x), f_param, cr_param)

    trace = RunTrace(
        generation=np.arange(n_gen), fes=n + gen_cost * np.arange(1, n_gen + 1),
        best_f=np.empty(n_gen), best_phi=np.empty(n_gen), eps=np.empty(n_gen),
        phase=np.empty(n_gen, dtype="U4"),  # wide enough for every mode name
        pop_min_f=np.empty(n_gen), feasible_ratio=np.empty(n_gen),
        rate=np.full(n_gen, math.nan),  # only pps-de writes it
        sr=np.empty((n_gen, 3)), wins=np.empty((n_gen, 3), dtype=int),
        bottom_strategies=np.empty((n_gen, 3), dtype=int),
    )
    for generation in range(n_gen):
        feasible_ratio = np.count_nonzero(phi == 0.0) / n
        if generation == pull_start:
            schedule = EpsilonSchedule.from_violations(phi, cutoff=cutoff,
                                                       eps_initial=cfg.eps_initial)
        if cfg.algorithm == "sf-de":
            comparator, eps = _SF_MODE, math.nan
        elif pull_start is not None:
            comparator, eps = PULL, schedule.level(generation - pull_start, feasible_ratio)
        else:
            comparator, eps = PUSH, math.inf

        top = offspring(pop, top_targets, top_strategies)
        tf3, tphi3 = top[1].reshape(3, t), top[4].reshape(3, t)
        if force_win_strategy is not None:
            winner = np.full(t, int(force_win_strategy))
        else:
            winner = np.zeros(t, dtype=int)
            for c in (1, 2):
                better = _strictly_better(comparator, tphi3[c], tf3[c],
                                          tphi3[winner, top_idx], tf3[winner, top_idx], eps)
                winner = np.where(better, c, winner)

        wins = np.bincount(winner, minlength=3)
        stats.record_generation(wins)
        sr = stats.success_rates(generation)

        picks = select_strategies(sr, n_bottom, rng)
        bottom = offspring(pop, bottom_idx, picks)

        # the trial block: the top trials, strategy-major, then the bottom
        # trials; a member's candidate is its best top trial or its bottom trial
        trial_x, trial_f, trial_g, trial_h, trial_phi, trial_fp, trial_crp = (
            np.concatenate(pair) for pair in zip(top, bottom))
        cand = np.concatenate((winner * t + top_idx, bottom_rows))
        c_f, c_phi = trial_f[cand], trial_phi[cand]
        decided = _objective_decided(comparator, phi, c_phi, eps)
        accept = np.where(decided, c_f <= f, c_phi <= phi)

        # improvements are measured against the criterion that decided the
        # replacement, before any replacement is applied
        delta = np.where(decided, np.abs(f - c_f), np.abs(phi - c_phi))
        c_strategy = np.concatenate((winner, picks))
        for s, chosen in enumerate(accept & (c_strategy == strategy_ids)):
            rows = cand[chosen]
            memory.record_success(s, trial_fp[rows], trial_crp[rows], delta[chosen])
            memory.update_memory(s)

        # each member keeps its row or takes its candidate's, sorted
        # feasibility-first; rows below n are the members
        all_f, all_phi = np.concatenate((f, trial_f)), np.concatenate((phi, trial_phi))
        kept = np.where(accept, cand + n, member_rows)
        kept = kept[sf_order(all_f[kept], all_phi[kept])]
        f, phi = all_f[kept], all_phi[kept]
        pop = np.concatenate((pop, trial_x))[kept]

        pop_min_f = float(f.min())
        if sf_better_mask(phi[0], f[0], best.phi, best.f):
            # every kept member is no better than last generation's row 0,
            # hence than the incumbent, so a new incumbent is a trial
            r = kept[0] - n
            best = _member(pop[0], f[0], phi[0], trial_g[r], trial_h[r])

        if cfg.algorithm == "pps-de":
            trace.rate[generation] = tracker.update_rate(generation, pop_min_f)
            if tracker.should_switch():
                pull_start = generation + 1
        trace.best_f[generation], trace.best_phi[generation] = best.f, best.phi
        trace.phase[generation], trace.eps[generation] = comparator, eps
        trace.sr[generation], trace.pop_min_f[generation] = sr, pop_min_f
        trace.feasible_ratio[generation] = feasible_ratio
        trace.wins[generation] = wins
        trace.bottom_strategies[generation] = np.bincount(picks, minlength=3)

    return RunResult(
        best=best,
        trace=trace,
        final_fes=n + gen_cost * n_gen,
        generations=n_gen,
        switch_generation=tracker.switch_generation,
        wall_time=time.perf_counter() - started,
        config=cfg,
        problem_name=problem.name or "problem",
    )
