"""Pairwise selection rules for constrained minimization.

Every rule is a lexicographic order on a key of (violation, objective), and
this module is the only one that states the keys:

- ``sf_key(phi, f) = (phi, where(phi == 0, f, 0))`` is the superiority of
  feasible solutions (Deb 2000): feasible points compare on objective,
  infeasible points on violation, and feasible always comes first.
- ``eps_key(phi, f, eps) = (where(phi <= eps, 0, phi), f)`` is the ε-level
  comparison of the pull phase (Takahama & Sakai): a violation up to ``eps``
  counts as none, and the objective decides between equal violations.
  Push comparison ignores constraints; it is ``eps_key`` at ``eps = inf``.

A point is strictly better than another where its key is ``key_less`` than
the other's, and a trial replaces a parent where its key is
``key_less_equal`` to the parent's.  The masks below are these comparisons
over aligned arrays (or scalars) of violation and objective values, and
``sf_better`` is ``sf_better_mask`` for two points given as Python floats.

At ``eps = 0`` pull acceptance is not feasibility-first acceptance.  The two
differ exactly where both violations are equal and positive and the trial's
objective is worse: pull rejects such a trial, feasibility-first accepts it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "eps_key",
    "key_less",
    "key_less_equal",
    "pull_accept_mask",
    "push_accept_mask",
    "sf_accept_mask",
    "sf_best_index",
    "sf_better",
    "sf_better_mask",
    "sf_key",
    "sf_order",
]


def sf_key(phi, f):
    """Feasibility-first (major, minor) key."""
    phi = np.asarray(phi)
    return phi, np.where(phi == 0.0, f, 0.0)


def eps_key(phi, f, eps):
    """ε-level (major, minor) key; ``eps = inf`` gives push comparison."""
    phi = np.asarray(phi)
    return np.where(phi <= eps, 0.0, phi), np.asarray(f)


def key_less(a, b):
    """True where key ``a`` is lexicographically below key ``b``."""
    (major_a, minor_a), (major_b, minor_b) = a, b
    return (major_a < major_b) | ((major_a == major_b) & (minor_a < minor_b))


def key_less_equal(a, b):
    """True where key ``a`` is lexicographically at most key ``b``."""
    (major_a, minor_a), (major_b, minor_b) = a, b
    return (major_a < major_b) | ((major_a == major_b) & (minor_a <= minor_b))


def sf_better_mask(phi_a, f_a, phi_b, f_b):
    """True where (phi_a, f_a) is feasibility-first strictly better than (phi_b, f_b)."""
    return key_less(sf_key(phi_a, f_a), sf_key(phi_b, f_b))


def sf_better(phi_a, f_a, phi_b, f_b):
    """``sf_better_mask`` for two points given as Python floats.

    The tuple comparison of the two ``sf_key``s, which costs a fraction of
    a microsecond where the mask costs over ten.
    """
    return (phi_a, f_a if phi_a == 0.0 else 0.0) < (phi_b, f_b if phi_b == 0.0 else 0.0)


def push_accept_mask(parent_f, trial_f):
    """Constraint-blind acceptance: the trial replaces on objective <=."""
    return np.asarray(trial_f) <= np.asarray(parent_f)


def pull_accept_mask(parent_phi, parent_f, trial_phi, trial_f, eps):
    """ε-level acceptance: the trial replaces where its ``eps_key`` is at most the parent's."""
    return key_less_equal(eps_key(trial_phi, trial_f, eps), eps_key(parent_phi, parent_f, eps))


def sf_accept_mask(parent_phi, parent_f, trial_phi, trial_f):
    """Feasibility-first acceptance: replace unless the parent is strictly better."""
    return key_less_equal(sf_key(trial_phi, trial_f), sf_key(parent_phi, parent_f))


def sf_order(f, phi):
    """Stable feasibility-first sort permutation over aligned value arrays.

    Feasible entries come first ordered by objective, infeasible entries
    follow ordered by violation; original order breaks ties.
    """
    major, minor = sf_key(phi, f)
    # least-significant key first; lexsort is stable, so ties keep their original order
    return np.lexsort((minor, major))


def sf_best_index(f, phi):
    """Index of the feasibility-first minimum of aligned value arrays."""
    return int(sf_order(f, phi)[0])
