"""Push/pull phase control.

The search starts in a push phase that ignores constraints.  Once the
``change_rate`` of the population's minimum objective over a learning period
drops to the switch threshold, it pulls for good, under a relaxation level
that starts at ``initial_eps``, a high quantile of the population's
violations (Takahama and Sakai's rule, with no override), and decays to
zero in ``eps_level`` steps.  These functions keep no state; ``solver.run``
keeps it in ``pull_start`` and in its trace's ``pop_min_f`` and ``eps``
columns, and the two classes in their fields.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EpsilonSchedule", "PhaseTracker", "PULL", "PUSH", "SF", "change_rate", "eps_level",
           "initial_eps"]

PUSH = "push"
PULL = "pull"
SF = "sf"  # the mode of a run that compares feasibility-first throughout

# the method's fixed constants
SWITCH_THRESHOLD = 1e-3  # the change rate at or below which pushing stops
RATE_FLOOR = 1e-6  # floor of the change rate's denominator
EPS_QUANTILE = 0.95  # the violation quantile that starts eps
EPS_SHRINK = 0.1  # eps shrinks by this share while few members are feasible
FEASIBLE_TRIGGER = 0.95  # the feasible share that ends the shrinking
DECAY_POWER = 2.0  # power of eps's decay toward the cutoff
EPS_CUTOFF_FRACTION = 0.9  # eps is 0 from this share of the run's generations on


def change_rate(minima, period):
    """The change rate of the newest of a run's population minima.

    It is ``(old - new) / max(|old|, RATE_FLOOR)`` for the newest minimum and
    the one a learning period before it, and 1 while ``len(minima) <= period``.
    """
    if len(minima) <= period:
        return 1.0
    old, new = float(minima[-period - 1]), float(minima[-1])
    return (old - new) / max(abs(old), RATE_FLOOR)


def initial_eps(violations):
    """The level pulling starts at: the violations' ``EPS_QUANTILE`` quantile.

    It counts an infinite violation as the largest double, so that it never
    interpolates ``inf - inf`` and is always finite.
    """
    capped = np.minimum(np.asarray(violations, dtype=float), np.finfo(float).max)
    return float(np.quantile(capped, EPS_QUANTILE))


def eps_level(previous, k, feasible_ratio, eps_initial, cutoff):
    """The relaxation level at pull generation ``k``, given ``previous`` at k - 1.

    It is zero from k = cutoff on, else ``eps_initial`` at k = 0, else
    ``(1 - EPS_SHRINK) * previous`` while the feasible fraction is below
    ``FEASIBLE_TRIGGER``, else ``eps_initial * (1 - k / cutoff) ** DECAY_POWER``.
    """
    if k >= cutoff:
        return 0.0
    if k == 0:
        return eps_initial
    if feasible_ratio < FEASIBLE_TRIGGER:
        return (1.0 - EPS_SHRINK) * previous
    return eps_initial * (1.0 - k / cutoff) ** DECAY_POWER


class PhaseTracker:
    """The one-way phase switch over ``change_rate``, fed one minimum per generation.

    The phase is ``switch_generation``: None until the switch, then the first
    generation whose rate was at most ``SWITCH_THRESHOLD``.
    """

    def __init__(self, learning_period):
        if not (learning_period % 1 == 0 and learning_period >= 1):  # NaN fails both checks
            raise ValueError("learning period must be a whole number >= 1")
        self.learning_period = int(learning_period)
        self.rate = 1.0
        self.switch_generation = None
        self._minima = []  # the last learning period + 1 of them
        self._generation = None

    def update_rate(self, generation, best_f_now):
        """Record this generation's best objective and return the change rate."""
        self._generation = int(generation)
        self._minima = self._minima[-self.learning_period:] + [float(best_f_now)]
        self.rate = change_rate(self._minima, self.learning_period)
        return self.rate

    def should_switch(self):
        """Flip push -> pull when the rate has fallen to ``SWITCH_THRESHOLD``.

        Returns True only on the single generation the switch happens; once
        in the pull phase this never fires again.
        """
        if self.switch_generation is None and self.rate <= SWITCH_THRESHOLD:
            self.switch_generation = self._generation
            return True
        return False


class EpsilonSchedule:
    """The pull phase's levels from ``eps_initial`` on, one ``eps_level`` step per call.

    ``k`` counts generations since the schedule started.  Each level depends
    on the one before it, so ``k`` starts from 0 or above and strictly increases.
    """

    def __init__(self, eps_initial, cutoff):
        if not eps_initial >= 0:  # NaN fails too
            raise ValueError("eps_initial must be >= 0")
        if not cutoff >= 0:
            raise ValueError("cutoff must be >= 0")
        self.eps_initial = float(eps_initial)
        self.cutoff = float(cutoff)
        self._level = self.eps_initial
        self._last_k = -1

    @classmethod
    def from_violations(cls, violations, cutoff):
        """Start the schedule at ``initial_eps(violations)``."""
        return cls(initial_eps(violations), cutoff)

    def level(self, k, feasible_ratio):
        """Relaxation level at pull-generation ``k``."""
        if k <= self._last_k:
            raise ValueError(f"k must be >= 0 and above the last k, {self._last_k}")
        self._level = eps_level(self._level, k, feasible_ratio, self.eps_initial, self.cutoff)
        self._last_k = k
        return self._level
