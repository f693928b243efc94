"""The three acceptance rules, side by side on hand-picked pairs.

Push ignores constraints and chases the objective.  Feasibility-first
always prefers feasible points and compares infeasible ones by violation.
Pull interpolates: violations up to a relaxation level eps are treated as
equal so the objective can decide.  At eps = 0 pull comes close to
feasibility-first but is not the same rule: when both violations are equal
and positive, pull lets the objective decide, while feasibility-first sees
a tie and accepts the trial.

Each rule decides the whole table in one call on aligned arrays.
"""

import numpy as np

from ppsde.selection import pull_accept_mask, push_accept_mask, sf_accept_mask

# label, parent (f, phi), trial (f, phi)
PAIRS = [
    ("feasible, better f",        (2.0, 0.0), (1.0, 0.0)),
    ("feasible, worse f",         (1.0, 0.0), (2.0, 0.0)),
    ("leaves feasibility for f",  (5.0, 0.0), (1.0, 0.4)),
    ("both violated, better f",   (5.0, 0.3), (1.0, 0.5)),
    ("both violated, less phi",   (1.0, 0.5), (5.0, 0.3)),
    ("equal phi, worse f",        (1.0, 0.5), (5.0, 0.5)),
]

labels = [label for label, _, _ in PAIRS]
f_p, phi_p = np.array([parent for _, parent, _ in PAIRS]).T
f_t, phi_t = np.array([trial for _, _, trial in PAIRS]).T

columns = {
    "push": push_accept_mask(f_p, f_t),
    "sf": sf_accept_mask(phi_p, f_p, phi_t, f_t),
    "pull(0.6)": pull_accept_mask(phi_p, f_p, phi_t, f_t, eps=0.6),
    "pull(0)": pull_accept_mask(phi_p, f_p, phi_t, f_t, eps=0.0),
}

print(f"{'parent -> trial':<28}" + "".join(f"{name:>10}" for name in columns))
for i, label in enumerate(labels):
    print(f"{label:<28}" + "".join(f"{str(bool(col[i])):>10}" for col in columns.values()))

print()
print("reading the table: every column says whether the trial replaces the")
print("parent.  The relaxed pull accepts the third and fourth trials because")
print("their violations sit inside the eps band.  At eps = 0 the pull column")
print("matches the sf column on every row but the last: with equal positive")
print("violations pull lets the objective decide and rejects the worse trial,")
print("while feasibility-first sees a violation tie and accepts it.")
