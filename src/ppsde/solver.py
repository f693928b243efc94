"""Constrained differential evolution with a push-pull phase switch.

One generation proceeds as follows.  The population, kept sorted
feasibility-first, is split into a top and a bottom part.  Every top member
generates three trials, one per strategy with independently sampled control
parameters; the best of the three under the current phase's comparison rule
is kept, the earliest strategy on a tie, and its strategy is credited with a
win only when that trial is strictly better than both others.  Every bottom
member generates a single trial with a strategy drawn from
``de.strategy_rates`` over the trace's ``wins`` rows of the generations
before this one, the lag rule of SaDE (Qin, Huang & Suganthan 2009).  So
the bottom picks never wait for this generation's race, and one offspring
step serves both parts: it samples the control parameters, builds the
trials and evaluates them, all 3T + N - T rows at once, the top trials
first.  A generation draws the bottom picks, then one F/CR sample, then
one trial block.  The race reads its 3T trials from the head of the step's
rows, and its wins enter the trace's ``wins`` for later generations.  The
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

The phase state is one number, ``pull_start``, the generation at which
pulling starts: 0 for ``eps-de``; for ``pps-de`` it is set once, to the
generation after ``phases.change_rate`` over the trace's ``pop_min_f`` falls
to the switch threshold.  At the top of that generation
``phases.initial_eps`` seeds the relaxation level from the population's
violations; each later level is one ``phases.eps_level`` step from the
trace's ``eps``, and it is zero from ``phases.EPS_CUTOFF_FRACTION`` of the
run's generation count after pulling starts.  ``sf-de`` never pulls and
compares feasibility-first for the whole run.  All three share one loop.

The equality tolerance is the problem's ``sigma``; ``run`` never copies the
problem, so all runs of one problem share one definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from ._counts import whole
from .de import (  # noqa: F401 - the names perfbench/tracing.py wraps stay bound
    ParameterMemory,
    current_to_pbest_batch,
    current_to_rand_batch,
    make_trials,
    pbest_pool_size,
    rand_1_bin_batch,
    select_strategies,
    strategy_rates,
)
from .phases import (EPS_CUTOFF_FRACTION, PULL, PUSH, SF, SWITCH_THRESHOLD, change_rate,
                     eps_level, initial_eps)
from .problems import Point, evaluate_many
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
    at least 4 at any dimension.  The equality tolerance is the problem's
    ``sigma``, and pulling starts at ``phases.initial_eps`` of the
    population's violations.  The method's fixed constants are
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

    best: Point
    trace: RunTrace
    final_fes: int
    generations: int
    switch_generation: int | None
    config: RunConfig
    problem_name: str


def _resolve(problem, config):
    if config.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {config.algorithm!r}; choose from {ALGORITHMS}")
    seed = whole(config.seed, "seed", 0)
    n = whole(config.n_pop if config.n_pop is not None else max(5 * problem.dim, 8),
              "population size", 4)
    t = whole(config.top_size if config.top_size is not None else n // 2, "top size", 4)
    if t > n:
        raise ValueError("top size must be at most the population size")
    fes = whole(config.max_fes if config.max_fes is not None else 20000 * problem.dim,
                "evaluation budget", n)
    period = whole(config.learning_period, "learning period", 1)
    return replace(config, seed=seed, n_pop=n, top_size=t, max_fes=fes, learning_period=period)


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
    """One evaluated point as a Point of copies."""
    return Point(x.copy(), float(f), float(phi), g.copy(), h.copy())


def run(problem, config, *, force_win_strategy=None):
    """Run the configured algorithm on a problem and return a RunResult.

    ``force_win_strategy`` is a diagnostics hook: when set to a strategy
    index, every top target's winning trial is taken from that strategy so
    the adaptation machinery can be observed under a known signal.
    """
    cfg = _resolve(problem, config)
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
        if cfg.algorithm == "sf-de":
            mode, eps = SF, math.nan
        elif pull_start is not None:
            # the trace holds the last level and the start level, written at k = 0
            k = generation - pull_start
            eps0 = trace.eps[pull_start] if k else initial_eps(phi)
            mode, eps = PULL, eps_level(trace.eps[generation - 1], k, feasible_ratio, eps0, cutoff)
        else:
            mode, eps = PUSH, math.inf
        key = sf_key if mode == SF else partial(eps_key, eps=eps)

        # the bottom picks read the win rows of the generations before this one
        sr = strategy_rates(trace.wins[:generation], cfg.learning_period)
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

        trace.pop_min_f[generation] = f.min()
        if sf_better(float(phi[0]), float(f[0]), best.phi, best.f):
            # every kept member is no better than last generation's row 0,
            # hence than the incumbent, so a new incumbent is a trial
            r = kept[0] - n
            best = _member(pop[0], f[0], phi[0], trial_g[r], trial_h[r])

        if cfg.algorithm == "pps-de":
            rate = trace.rate[generation] = change_rate(trace.pop_min_f[:generation + 1],
                                                        cfg.learning_period)
            if pull_start is None and rate <= SWITCH_THRESHOLD:
                pull_start = generation + 1
        trace.best_f[generation], trace.best_phi[generation] = best.f, best.phi
        trace.phase[generation], trace.eps[generation] = mode, eps
        trace.sr[generation] = sr
        trace.feasible_ratio[generation] = feasible_ratio
        trace.wins[generation] = wins
        trace.bottom_strategies[generation] = np.bincount(picks, minlength=3)

    return RunResult(
        best=best,
        trace=trace,
        final_fes=n + gen_cost * n_gen,
        generations=n_gen,
        switch_generation=pull_start - 1 if pull_start else None,  # eps-de never switches
        config=cfg,
        problem_name=problem.name,
    )
