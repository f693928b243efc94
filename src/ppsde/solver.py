"""Constrained differential evolution with a push-pull phase switch.

One generation proceeds as follows.  The population, kept sorted
feasibility-first, is split into a top and a bottom part.  Every top member
generates three trials, one per strategy with independently sampled control
parameters; the best of the three under the current phase's comparison rule
is kept, the earliest strategy on a tie, and its strategy is credited with a
win only when that trial is strictly better than both others.  Every bottom
member generates a single trial with a strategy drawn from the windowed win
rates.  One offspring step serves both parts: it samples the control
parameters, builds the trials and evaluates them, first for the top targets
and then for the bottom ones.  The members and the two trial sets then form
one block of rows per generation, from which the replacement gathers.  All
replacements are one-to-one under the phase rule: constraint-blind while
pushing, violation-relaxed while pulling.  Successful control parameters,
weighted by how much they improved the deciding criterion, are folded into
the per-strategy memories at the end of the generation, all strategies in
one keyed fold; a strategy without a success that generation keeps its
memory untouched.  The population is then sorted once, and its first row is
the only candidate for the incumbent, decided on Python floats.

Every phase rule is a lexicographic order on a key of (violation, objective):
``(where(phi <= eps, 0, phi), f)`` while pushing (eps is infinite) and
pulling, and ``(phi, where(phi == 0, f, 0))`` feasibility-first.  One
stable sort of each top target's three trial keys gives the race's winner
and tells whether it is the unique best.

The tie rule follows the strategy adaptation the paper takes from CoDE: a
strategy's rate is its share of the top races it won, a measure of which
strategy currently makes the better trials.  When the best trials tie, as
they often do once the population has converged and trials coincide in
objective and violation, no strategy made the better trial.  Crediting one
of them anyway (the first, by position) would be a signal from the order
of the strategies alone, and over a converged run it drives the rates to
(1, 0, 0).  So a race whose best trials tie credits no strategy; the
replacement still takes the earliest tied trial.

At the paper's sizes a generation costs mostly numpy's fixed cost per
call, so the loop keeps the calls per generation few.

A run makes exactly ``(max_fes - N) // (3T + N - T)`` generations for a
population of N with a top part of T; a partial generation never starts.

The phase state is one number, the generation at which pulling starts: 0
for ``eps-de``; for ``pps-de`` it is set once, to the generation after the
population's minimum objective stagnates over a learning period.  At the
top of that generation the relaxation schedule is seeded from the
population's violations; it then decays, and it is zero from
``_EPS_CUTOFF_FRACTION`` of the run's generation count after pulling starts.
``sf-de`` never pulls and compares feasibility-first for the whole run.  All
three share the identical loop.
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
from .selection import (  # noqa: F401 - the names perfbench/tracing.py wraps stay bound
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
_EPS_CUTOFF_FRACTION = 0.9  # eps is 0 from this share of the run's generations on


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
    seed = config.seed
    # every check is written so that NaN fails it; a float such as 1e5 passes the first
    checks = (
        (seed is not None and seed >= 0 and seed % 1 == 0,
         "seed must be a non-negative whole number"),
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
    return replace(config, seed=int(seed), n_pop=int(n), top_size=int(t), max_fes=int(fes),
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


def _race_keys(mode, phi, f, eps):
    """(major, minor) keys whose lexicographic order is the mode's rule.

    A point is strictly better than another exactly where its key is
    lexicographically smaller, and the two tie where the keys are equal.
    Push mode compares at ``eps = inf``, as ``run`` sets it.
    """
    if mode == _SF_MODE:
        return phi, np.where(phi == 0.0, f, 0.0)
    return np.where(phi <= eps, 0.0, phi), f


def _top_race(mode, phi, f, eps):
    """Each top target's winning strategy and whether it won outright.

    ``phi`` and ``f`` are (3, T) blocks with one row per strategy.  The
    winner is the best trial under the mode's rule, the earliest strategy
    on a tie, since the sort is stable.  It won outright where its key is
    below the runner-up's, that is, where it is strictly better than both
    other trials.
    """
    major, minor = _race_keys(mode, phi, f, eps)
    ranked = np.lexsort((minor, major), axis=0)
    first_two = ranked[:2] * phi.shape[1] + np.arange(phi.shape[1])
    lead_major, lead_minor = major.take(first_two), minor.take(first_two)
    return ranked[0], (lead_major[0] != lead_major[1]) | (lead_minor[0] != lead_minor[1])


def _sf_better(phi_a, f_a, phi_b, f_b):
    # sf_better_mask for two points given as Python floats
    a_feasible, b_feasible = phi_a == 0.0, phi_b == 0.0
    if a_feasible and b_feasible:
        return f_a < f_b
    if a_feasible != b_feasible:
        return a_feasible
    return phi_a < phi_b


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
    cutoff = _EPS_CUTOFF_FRACTION * n_gen

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
    top_strategies = np.repeat(np.arange(len(STRATEGIES)), t)  # strategy-major
    bottom_idx = np.arange(t, n)
    member_rows = np.arange(n)
    # rows of the generation's block: the n members, the 3t top trials
    # (strategy-major), then the bottom trials
    top_rows = top_idx + n
    bottom_rows = np.arange(n + 3 * t, n + gen_cost)

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

        top_x, top_f, top_g, top_h, top_phi, top_fp, top_crp = offspring(
            pop, top_targets, top_strategies)
        if force_win_strategy is not None:
            winner = np.full(t, int(force_win_strategy))
            wins = np.bincount(winner, minlength=3)
        else:
            # a race whose best trials tie credits no strategy
            winner, outright = _top_race(comparator, top_phi.reshape(3, t),
                                         top_f.reshape(3, t), eps)
            wins = np.bincount(winner[outright], minlength=3)
        stats.record_generation(wins)
        sr = stats.success_rates(generation)

        picks = select_strategies(sr, n_bottom, rng)
        bot_x, bot_f, bot_g, bot_h, bot_phi, bot_fp, bot_crp = offspring(pop, bottom_idx, picks)

        # a member's candidate is its best top trial or its bottom trial
        block_x = np.concatenate((pop, top_x, bot_x))
        block_f = np.concatenate((f, top_f, bot_f))
        block_phi = np.concatenate((phi, top_phi, bot_phi))
        trial_fp, trial_crp = np.concatenate((top_fp, bot_fp)), np.concatenate((top_crp, bot_crp))
        cand = np.concatenate((winner * t + top_rows, bottom_rows))
        c_f, c_phi = block_f[cand], block_phi[cand]
        decided = _objective_decided(comparator, phi, c_phi, eps)
        accept = np.where(decided, c_f <= f, c_phi <= phi)

        # improvements are measured against the criterion that decided the
        # replacement, before any replacement is applied
        delta = np.where(decided, np.abs(f - c_f), np.abs(phi - c_phi))
        rows = cand[accept] - n
        memory.fold_successes(np.concatenate((winner, picks))[accept], trial_fp[rows],
                              trial_crp[rows], delta[accept])

        # each member keeps its row or takes its candidate's, sorted feasibility-first
        kept = np.where(accept, cand, member_rows)
        kept = kept[sf_order(block_f[kept], block_phi[kept])]
        f, phi, pop = block_f[kept], block_phi[kept], block_x[kept]

        pop_min_f = float(f.min())
        if _sf_better(float(phi[0]), float(f[0]), best.phi, best.f):
            # every kept member is no better than last generation's row 0,
            # hence than the incumbent, so a new incumbent is a trial
            r = kept[0] - n
            best = _member(pop[0], f[0], phi[0], np.concatenate((top_g, bot_g))[r],
                           np.concatenate((top_h, bot_h))[r])

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
