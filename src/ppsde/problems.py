"""Constrained single-objective problems and a small analytic suite.

A problem couples a box-bounded decision space with one objective function,
a tuple of inequality constraints (satisfied when the value is <= 0) and a
tuple of equality constraints (satisfied when the magnitude is within a
tolerance ``sigma``).  Violations aggregate into a single non-negative
scalar: the sum of inequality excesses plus equality deviations beyond the
tolerance.  A point is feasible exactly when that scalar is zero.

Objective and constraint callables take a batch of points with shape
``(m, dim)`` and return ``m`` values, reducing over the last axis, so a whole
batch is evaluated in one call per callable.  ``evaluate_many`` writes each
constraint into its column of a preallocated block and tests the objective
and each block for finiteness once; only a batch that fails that test is
searched for its first non-finite entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._counts import whole

__all__ = [
    "BOUND_LIMIT",
    "EvaluationError",
    "Point",
    "Problem",
    "SUITE_IDS",
    "canonical_problem_id",
    "evaluate",
    "evaluate_many",
    "make_suite_problem",
    "overall_violation",
]

# the largest magnitude of a box bound, a quarter of the largest double
BOUND_LIMIT = float(np.finfo(float).max) / 4


class EvaluationError(ValueError):
    """A callable produced a non-finite value.

    ``kind`` is one of ``"objective"``, ``"inequality"`` or ``"equality"``;
    ``index`` is the offending constraint index (0 for the objective).
    """

    def __init__(self, kind, index):
        self.kind = kind
        self.index = index
        super().__init__(f"non-finite {kind} value at index {index}")


@dataclass(frozen=True)
class Point:
    """One evaluated point: its vector, objective, total violation and raw
    constraint values."""

    x: np.ndarray
    f: float
    phi: float
    g_values: np.ndarray
    h_values: np.ndarray

    @property
    def evaluation(self):
        # only perfbench/workloads.run_digest reads this; no ppsde module does
        return self


@dataclass(frozen=True)
class Problem:
    """Box-bounded minimization problem with optional constraints.

    Parameters
    ----------
    dim : int
        Number of decision variables, a whole number kept as an int.
    lower, upper : float or array_like
        Box bounds, broadcast to shape ``(dim,)``.  Must satisfy
        ``lower < upper`` in every coordinate, with every bound finite and
        of magnitude at most ``BOUND_LIMIT`` (M), a quarter of the largest
        double.  A trial's donor then stays within 3M and the sum in a
        repair midpoint within 2M, so neither overflows.
    objective : callable
        Maps a batch of points of shape ``(m, dim)`` to ``m`` objective
        values, reducing over the last axis.
    inequalities : tuple of callables
        Batch callables like ``objective``; each is satisfied when its
        value is <= 0.
    equalities : tuple of callables
        Batch callables like ``objective``; each is satisfied when its
        magnitude is <= ``sigma``.
    sigma : float
        Equality tolerance, >= 0.
    known_optimum : float, optional
        Reference objective value for benchmark reporting.
    known_optimizer : array_like, optional
        A point attaining ``known_optimum``, for diagnostics.
    """

    dim: int
    lower: np.ndarray
    upper: np.ndarray
    objective: Callable
    inequalities: tuple = ()
    equalities: tuple = ()
    sigma: float = 1e-4
    known_optimum: float | None = None
    known_optimizer: np.ndarray | None = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dim", whole(self.dim, "dim", 1))
        if not self.sigma >= 0:
            raise ValueError("sigma must be >= 0")
        lo = np.broadcast_to(np.asarray(self.lower, dtype=float), (self.dim,)).copy()
        hi = np.broadcast_to(np.asarray(self.upper, dtype=float), (self.dim,)).copy()
        if not np.all(lo < hi):
            raise ValueError("every lower bound must be strictly below its upper bound")
        if not (np.maximum(np.abs(lo), np.abs(hi)) <= BOUND_LIMIT).all():
            raise ValueError(f"every bound must be finite, of magnitude at most {BOUND_LIMIT:g}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if self.known_optimizer is not None:
            opt = np.asarray(self.known_optimizer, dtype=float).reshape(self.dim)
            opt.setflags(write=False)
            object.__setattr__(self, "known_optimizer", opt)


def overall_violation(g_values, h_values, sigma):
    """Aggregate raw constraint values into one non-negative scalar.

    Inequalities contribute their positive part, equalities the amount by
    which their magnitude exceeds ``sigma``.  Accepts stacked arrays whose
    last axis indexes constraints; an empty last axis contributes zero.
    Finite values whose sum overflows give an infinite violation.
    """
    g_values = np.asarray(g_values, dtype=float)
    h_values = np.asarray(h_values, dtype=float)
    with np.errstate(over="ignore"):
        total = np.add.reduce(np.maximum(g_values, 0.0), axis=-1)
        if h_values.shape[-1]:
            total = total + np.add.reduce(np.maximum(np.abs(h_values) - sigma, 0.0), axis=-1)
    return total


def _raise_nonfinite(f, g, h):
    # the objective first, then the inequalities, then the equalities; a
    # constraint block reports the column of its first bad entry in row order
    if not np.isfinite(f).all():
        raise EvaluationError("objective", 0)
    for kind, values in (("inequality", g), ("equality", h)):
        cols = np.nonzero(~np.isfinite(values))[1]
        if cols.size:
            raise EvaluationError(kind, int(cols[0]))


def evaluate_many(problem, xs):
    """Evaluate a batch of points.

    Parameters
    ----------
    problem : Problem
    xs : ndarray, shape (m, dim)
        Points assumed to lie inside the box bounds.

    Returns
    -------
    f : ndarray, shape (m,)
    g : ndarray, shape (m, q)
    h : ndarray, shape (m, p)
    phi : ndarray, shape (m,)
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != problem.dim:
        raise ValueError(f"expected points of shape (m, {problem.dim})")
    m = xs.shape[0]

    def column(fn):
        return np.asarray(fn(xs), dtype=float).reshape(m)

    f = column(problem.objective)
    g = np.empty((m, len(problem.inequalities)))
    h = np.empty((m, len(problem.equalities)))
    for block, fns in ((g, problem.inequalities), (h, problem.equalities)):
        for j, fn in enumerate(fns):
            block[:, j] = column(fn)

    # an empty constraint block is finite without a test
    if not (np.isfinite(f).all() and (not g.size or np.isfinite(g).all())
            and (not h.size or np.isfinite(h).all())):
        _raise_nonfinite(f, g, h)
    return f, g, h, overall_violation(g, h, problem.sigma)


def evaluate(problem, x):
    """Evaluate a single point lying inside the bounds, returning a Point
    that holds a copy of it."""
    x = np.array(x, dtype=float)
    if x.shape != (problem.dim,):
        raise ValueError(f"expected a point of shape ({problem.dim},)")
    if np.any(x < problem.lower) or np.any(x > problem.upper):
        raise ValueError("point lies outside the box bounds")
    f, g, h, phi = evaluate_many(problem, x[None, :])
    return Point(x, float(f[0]), float(phi[0]), g[0], h[0])


# ---------------------------------------------------------------------------
# Analytic suite.  Every problem lives on the box [-5, 5]^dim at any whole
# dim >= 2; ``_SUITE`` holds what differs between them.

def _sphere_shifted(x):
    return ((x - 0.5) ** 2).sum(axis=-1)


def _first_coordinate_slack(x):
    # never active inside the bounds
    return x[..., 0] - 100.0


def _sphere(x):
    return (x ** 2).sum(axis=-1)


def _simplex_face(x):
    return 1.0 - x.sum(axis=-1)


def _two_coordinate_sum(x):
    return x[..., 0] + x[..., 1] - 1.0


def _sphere_at_two(x):
    return ((x - 2.0) ** 2).sum(axis=-1)


def _island_gap(x):
    # cubes around 0 and 2*ones: max|x_i| = max(hi, -lo), max|x_i - 2| = max(hi - 2, 2 - lo),
    # from one max and one min per row, reduced over a contiguous transposed copy
    cols = np.ascontiguousarray(np.moveaxis(x, -1, 0))
    hi, lo = cols.max(axis=0), cols.min(axis=0)
    return np.minimum(np.maximum(hi, -lo), np.maximum(hi - 2.0, 2.0 - lo)) - 0.5


def _rosenbrock(x):
    head = x[..., :-1]
    tail = x[..., 1:]
    return (100.0 * (tail - head ** 2) ** 2 + (1.0 - head) ** 2).sum(axis=-1)


def _ball_excess(x):
    # outside the ball of squared radius 2 * dim about the origin
    return (x ** 2).sum(axis=-1) - 2.0 * x.shape[-1]


# one row per problem: the objective, the inequalities, the equalities, and
# the optimum and an optimizer at dimension d
_SUITE = {
    "P1-sphere-shifted": (_sphere_shifted, (_first_coordinate_slack,), (),
                          lambda d: (0.0, np.full(d, 0.5))),
    "P2-active-linear": (_sphere, (_simplex_face,), (), lambda d: (1.0 / d, np.full(d, 1.0 / d))),
    "P3-equality": (_sphere, (), (_two_coordinate_sum,),
                    lambda d: (0.5, 0.5 * (np.arange(d) < 2))),
    "P4-disconnected": (_sphere_at_two, (_island_gap,), (), lambda d: (0.0, np.full(d, 2.0))),
    "P5-rosenbrock-ball": (_rosenbrock, (_ball_excess,), (), lambda d: (0.0, np.ones(d))),
}

SUITE_IDS = tuple(_SUITE)

_SHORT_IDS = {full.split("-")[0]: full for full in SUITE_IDS}


def canonical_problem_id(name):
    """Resolve a short id like ``P2`` or a full id to the canonical suite id."""
    if name in _SUITE:
        return name
    short = name.upper()
    if short in _SHORT_IDS:
        return _SHORT_IDS[short]
    raise ValueError(f"unknown problem id {name!r}; choose from {', '.join(SUITE_IDS)}")


def make_suite_problem(name, dim):
    """Build a suite problem by id on [-5, 5]^dim, at any whole dim >= 2."""
    dim = whole(dim, "dim", 2)
    pid = canonical_problem_id(name)
    objective, inequalities, equalities, optimum_at = _SUITE[pid]
    optimum, optimizer = optimum_at(dim)
    return Problem(dim=dim, lower=-5.0, upper=5.0, objective=objective,
                   inequalities=inequalities, equalities=equalities,
                   known_optimum=optimum, known_optimizer=optimizer, name=pid)
