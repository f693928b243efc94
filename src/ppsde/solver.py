"""Constrained differential evolution with a push-pull phase switch.

One generation proceeds as follows.  The population, kept sorted
feasibility-first, is split into a top and a bottom part.  Every top member
generates three trials, one per strategy with independently sampled control
parameters; the best of the three under the current phase's comparison rule
is kept, the earliest strategy on a tie, and its strategy is credited with a
win only when that trial is strictly better than both others.  Every bottom
member generates a single trial with a strategy drawn from the win rates of
the generations before this one.  This is the lag rule of SaDE (Qin, Huang
& Suganthan 2009): generation G's strategy probabilities come from the
races of generations G - LP ... G - 1, and are uniform while G < LP.  So
the bottom picks never wait for this generation's race, and one offspring
step serves both parts: it samples the control parameters, builds the
trials and evaluates them, all 3T + N - T rows at once, the top trials
first.  A generation draws the bottom picks, then one F/CR sample, then
one trial block.  The race reads its 3T trials from the head of the step's
rows, and its wins enter the window for the generations after it.  The
members and the trials form one block of rows per generation, from which
the replacement gathers.  All replacements are one-to-one under the phase
rule: constraint-blind while pushing, violation-relaxed while pulling.
Successful control parameters, weighted by how much they improved the
deciding criterion, are folded into the per-strategy memories at the end of
the generation, all strategies in one keyed fold; a strategy without a
success that generation keeps its memory untouched.  The population is then
sorted once, and its first row is the only candidate for the incumbent,
decided on Python floats.

Every phase rule is a lexicographic order on a (violation, objective) key,
and ``selection`` states both keys: ``eps_key`` while pushing (at an
infinite eps) and pulling, ``sf_key`` feasibility-first.  Each generation
picks one key function and evaluates it once, over its block of rows.  One
stable sort of each top target's three trial keys gives the race's winner
and tells whether it is the unique best.  A candidate replaces its member
where its key is at most the member's, and the improvement is measured on
the minor keys where the major keys tie and on the violations otherwise.

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
``phases.EPS_CUTOFF_FRACTION`` of the run's generation count after pulling
starts.  ``sf-de`` never pulls and compares feasibility-first for the whole
run.  All three share the identical loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .de import (  # noqa: F401 - the names perfbench/tracing.py wraps stay bound
    ParameterMemory,
    StrategyStats,
    current_to_pbest_batch,
    current_to_rand_batch,
    make_trials,
    pbest_pool_size,
    rand_1_bin_batch,
    select_strategies,
)
from .phases import EPS_CUTOFF_FRACTION, PULL, PUSH, SF, EpsilonSchedule, PhaseTracker
from .problems import Evaluation, Individual, evaluate_many
from .selection import (  # noqa: F401 - the names perfbench/tracing.py wraps stay bound
    eps_key,
    key_less_equal,
    pull_accept_mask,
    push_accept_mask,
    sf_accept_mask,
    sf_best_index,
    sf_better,
    sf_better_mask,
    sf_key,
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


@dataclass(frozen=True)
class RunConfig:
    """Algorithm selection and the settings a caller varies between runs.

    ``n_pop``, ``top_size`` and ``max_fes`` default to five times the
    dimension but at least 8, half the population and 20000 evaluations per
    dimension when left as None; a population of 8 or more has a top part of
    at least 4 at any dimension.  ``sigma`` overrides the problem's equality
    tolerance when set.  ``eps_initial`` overrides the violation-quantile
    start level of the pull schedule when set.  The method's fixed constants are
    ``SWITCH_THRESHOLD``, ``RATE_FLOOR``, ``EPS_QUANTILE``, ``EPS_SHRINK``,
    ``FEASIBLE_TRIGGER``, ``DECAY_POWER`` and ``EPS_CUTOFF_FRACTION`` in
    ``phases``, ``PBEST_FRACTION`` in ``de``, and the default memory length.
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
    the phase switch watches.  ``sr`` holds the strategy rates the bottom
    picks were drawn from, taken from the window of generations before this
    one; ``wins`` holds the win counts of this generation's top race and
    ``bottom_strategies`` the bottom pick counts, each with one column per
    strategy.
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
    """One run's best point, trace, counts, switch generation and resolved config.

    It holds no timing, so two runs of one config and problem are equal in
    every field.
    """

    best: Individual
    trace: RunTrace
    final_fes: int
    generations: int
    switch_generation: int | None
    config: RunConfig
    problem_name: str


def _resolve(problem, config):
    if config.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {config.algorithm!r}; choose from {ALGORITHMS}")
    n = config.n_pop if config.n_pop is not None else max(5 * problem.dim, 8)
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


def _top_race(major, minor):
    """Each top target's winning strategy and whether it won outright.

    ``major`` and ``minor`` are the (3, T) keys of the top trials, one row
    per strategy.  The winner is the trial with the smallest key, the
    earliest strategy on a tie, since the sort is stable.  It won outright
    where its key is below the runner-up's, that is, where it is strictly
    better than both other trials.
    """
    ranked = np.lexsort((minor, major), axis=0)
    first_two = ranked[:2] * major.shape[1] + np.arange(major.shape[1])
    lead_major, lead_minor = major.take(first_two), minor.take(first_two)
    return ranked[0], (lead_major[0] != lead_major[1]) | (lead_minor[0] != lead_minor[1])


def _acceptance(parent_key, cand_key, parent_phi, cand_phi):
    """Where each candidate replaces its parent, and its improvement δ.

    A candidate replaces where its key is at most the parent's.  δ is
    measured against the criterion that decided the replacement: the minor
    keys where the major keys tie, the violations otherwise.  A difference
    beyond the largest double is an infinite δ, which the memory fold
    weighs.  Two infinite violations always tie on the major key, so their
    NaN difference is never taken.
    """
    (p_major, p_minor), (c_major, c_minor) = parent_key, cand_key
    with np.errstate(over="ignore", invalid="ignore"):
        delta = np.where(p_major == c_major, np.abs(p_minor - c_minor),
                         np.abs(parent_phi - cand_phi))
    return key_less_equal(cand_key, parent_key), delta


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
        problem = replace(problem, sigma=cfg.sigma)
    if force_win_strategy is not None and force_win_strategy not in (0, 1, 2):
        raise ValueError("force_win_strategy must be 0, 1 or 2")

    rng = np.random.default_rng(cfg.seed)
    n, t, d = cfg.n_pop, cfg.top_size, problem.dim
    n_bottom = n - t
    gen_cost = 3 * t + n_bottom
    n_gen = (cfg.max_fes - n) // gen_cost
    lower, upper = problem.lower, problem.upper
    cutoff = EPS_CUTOFF_FRACTION * n_gen

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

    # the trial rows: the 3t top trials (strategy-major), then the bottom ones
    targets = np.concatenate((np.tile(np.arange(t), 3), np.arange(t, n)))
    top_strategies = np.repeat(np.arange(3), t)
    member_rows = np.arange(n)
    # rows of the generation's block: the n members, then the trials
    top_rows = np.arange(n, n + t)
    bottom_rows = np.arange(n + 3 * t, n + gen_cost)

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
            mode, eps = SF, math.nan
        elif pull_start is not None:
            mode, eps = PULL, schedule.level(generation - pull_start, feasible_ratio)
        else:
            mode, eps = PUSH, math.inf
        key = sf_key if mode == SF else partial(eps_key, eps=eps)

        # the bottom picks read the win window of the generations before this one
        sr = stats.success_rates()
        picks = select_strategies(sr, n_bottom, rng)
        strategies = np.concatenate((top_strategies, picks))
        f_param, cr_param = memory.sample_parameters_many(strategies, gen_cost, rng)
        x = make_trials(pop, targets, strategies, f_param, cr_param, lower, upper, rng)
        trial_f, trial_g, trial_h, trial_phi = evaluate_many(problem, x)

        block_f = np.concatenate((f, trial_f))
        block_phi = np.concatenate((phi, trial_phi))
        major, minor = key(block_phi, block_f)  # the race and the replacement both read it
        if force_win_strategy is not None:
            winner = np.full(t, int(force_win_strategy))
            wins = np.bincount(winner, minlength=3)
        else:
            # a race whose best trials tie credits no strategy
            winner, outright = _top_race(major[n:n + 3 * t].reshape(3, t),
                                         minor[n:n + 3 * t].reshape(3, t))
            wins = np.bincount(winner[outright], minlength=3)
        stats.record_generation(wins)

        # a member's candidate is its best top trial or its bottom trial
        block_x = np.concatenate((pop, x))
        cand = np.concatenate((winner * t + top_rows, bottom_rows))
        accept, delta = _acceptance((major[:n], minor[:n]), (major[cand], minor[cand]),
                                    phi, block_phi[cand])
        rows = cand[accept] - n
        memory.fold_successes(strategies[rows], f_param[rows], cr_param[rows], delta[accept])

        # each member keeps its row or takes its candidate's, sorted feasibility-first
        kept = np.where(accept, cand, member_rows)
        kept = kept[sf_order(block_f[kept], block_phi[kept])]
        f, phi, pop = block_f[kept], block_phi[kept], block_x[kept]

        pop_min_f = float(f.min())
        if sf_better(float(phi[0]), float(f[0]), best.phi, best.f):
            # every kept member is no better than last generation's row 0,
            # hence than the incumbent, so a new incumbent is a trial
            r = kept[0] - n
            best = _member(pop[0], f[0], phi[0], trial_g[r], trial_h[r])

        if cfg.algorithm == "pps-de":
            trace.rate[generation] = tracker.update_rate(generation, pop_min_f)
            if tracker.should_switch():
                pull_start = generation + 1
        trace.best_f[generation], trace.best_phi[generation] = best.f, best.phi
        trace.phase[generation], trace.eps[generation] = mode, eps
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
        config=cfg,
        problem_name=problem.name,
    )
