import math

import numpy as np
from hypothesis import strategies as st

# (phi, f) values rich in ties, with both signed zeros
PHI = st.sampled_from([0.0, -0.0, 0.5, 1.0, math.inf]) | st.floats(0.0, 10.0)
F = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3)
# relaxation levels, with the push level inf and the pull floor 0
EPS = st.sampled_from([0.0, math.inf, 0.5, 1.0]) | st.floats(0.0, 10.0)


def random_pairs(rng, count, feasible_share=0.5):
    """(phi, f) samples mixing exact zeros with continuous positive violations."""
    phi = np.where(rng.random(count) < feasible_share, 0.0, rng.exponential(1.0, count))
    f = rng.normal(0.0, 10.0, count)
    return phi, f


# Reference forms of the comparison rules, written case by case as the
# papers state them, independently of ppsde.selection's keys.

def sf_better_reference(phi_a, f_a, phi_b, f_b):
    """Feasibility-first strictly-better: feasible beats infeasible, two
    feasible points compare on objective, two infeasible points on violation."""
    phi_a, f_a, phi_b, f_b = (np.asarray(v) for v in (phi_a, f_a, phi_b, f_b))
    a_feasible, b_feasible = phi_a == 0.0, phi_b == 0.0
    return np.where(a_feasible & b_feasible, f_a < f_b,
                    np.where(a_feasible != b_feasible, a_feasible, phi_a < phi_b))


def pull_accept_reference(parent_phi, parent_f, trial_phi, trial_f, eps):
    """ε-level acceptance, checked in order: both violations within eps ->
    objective decides; exactly equal violations -> objective decides;
    otherwise the strictly smaller violation wins."""
    parent_phi, trial_phi = np.asarray(parent_phi), np.asarray(trial_phi)
    f_ok = np.asarray(trial_f) <= np.asarray(parent_f)
    both_within = (trial_phi <= eps) & (parent_phi <= eps)
    return np.where(both_within, f_ok,
                    np.where(trial_phi == parent_phi, f_ok, trial_phi < parent_phi))
