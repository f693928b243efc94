"""Pairwise selection rules for constrained minimization.

Three acceptance regimes are provided.  Feasibility-first comparison ranks
feasible points by objective, infeasible points by total violation, and
always prefers feasible to infeasible.  Push acceptance ignores constraints
entirely and replaces on objective ties or improvements.  Pull acceptance
relaxes violations up to a level ``eps``: within the relaxed region the
objective decides, at exactly equal violation the objective decides, and
otherwise the lower violation wins.

Every function takes aligned arrays (or scalars) of objective and violation
values and decides a whole batch at once.  All three rules share one
lexicographic shape: the objective decides where a rule-specific condition
holds, and the violation decides everywhere else.

At ``eps = 0`` pull acceptance is not feasibility-first acceptance.  The two
differ exactly where both violations are equal and positive and the trial's
objective is worse: pull rejects such a trial, feasibility-first accepts it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pull_accept_mask",
    "push_accept_mask",
    "sf_accept_mask",
    "sf_better_mask",
    "sf_best_index",
    "sf_order",
]


def sf_better_mask(phi_a, f_a, phi_b, f_b):
    """True where (phi_a, f_a) is strictly better than (phi_b, f_b).

    Feasible beats infeasible; two feasible points compare on objective, two
    infeasible points on violation.
    """
    a_feasible = np.asarray(phi_a) == 0.0
    b_feasible = np.asarray(phi_b) == 0.0
    both = np.asarray(f_a) < np.asarray(f_b)
    neither = np.asarray(phi_a) < np.asarray(phi_b)
    return np.where(
        a_feasible & b_feasible, both,
        np.where(a_feasible != b_feasible, a_feasible, neither),
    )


def push_accept_mask(parent_f, trial_f):
    """Constraint-blind acceptance: the trial replaces on objective <=."""
    return np.asarray(trial_f) <= np.asarray(parent_f)


def pull_accept_mask(parent_phi, parent_f, trial_phi, trial_f, eps):
    """Relaxed-violation acceptance at level ``eps``.

    Checked in order: both violations within eps -> objective decides;
    exactly equal violations -> objective decides; otherwise the strictly
    smaller violation wins.
    """
    parent_phi = np.asarray(parent_phi)
    trial_phi = np.asarray(trial_phi)
    f_ok = np.asarray(trial_f) <= np.asarray(parent_f)
    both_within = (trial_phi <= eps) & (parent_phi <= eps)
    return np.where(
        both_within, f_ok,
        np.where(trial_phi == parent_phi, f_ok, trial_phi < parent_phi),
    )


def sf_accept_mask(parent_phi, parent_f, trial_phi, trial_f):
    """Feasibility-first acceptance: replace unless the parent is strictly better."""
    return ~sf_better_mask(parent_phi, parent_f, trial_phi, trial_f)


def sf_order(f, phi):
    """Stable feasibility-first sort permutation over aligned value arrays.

    Feasible entries come first ordered by objective, infeasible entries
    follow ordered by violation; original order breaks ties.
    """
    f = np.asarray(f)
    phi = np.asarray(phi)
    infeasible = phi > 0.0
    key = np.where(infeasible, phi, f)
    # least-significant key first; lexsort is stable, so ties keep their original order
    return np.lexsort((key, infeasible))


def sf_best_index(f, phi):
    """Index of the feasibility-first minimum of aligned value arrays."""
    return int(sf_order(f, phi)[0])
