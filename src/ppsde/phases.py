"""Push/pull phase control.

The search starts in a push phase that ignores constraints.  A tracker
watches the population's best objective value; when its relative change over
a learning period drops to the switch threshold, the search flips once and
permanently into a pull phase.  During pull, a schedule supplies a
violation-relaxation level that starts from a high quantile of the
population's violations and decays to zero.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["EpsilonSchedule", "PhaseTracker", "PULL", "PUSH", "SF"]

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


class PhaseTracker:
    """Detects objective stagnation and performs the one-way phase switch.

    The change rate at generation G is ``(old - new) / max(|old|, RATE_FLOOR)``
    for the best objective ``new`` at G and ``old`` one learning period
    earlier, and 1 until a full learning period of values exists.  The
    phase is ``switch_generation``: None until the switch, then its generation.
    """

    def __init__(self, learning_period):
        if learning_period < 1:
            raise ValueError("learning period must be >= 1")
        self.learning_period = int(learning_period)
        self.rate = 1.0
        self.switch_generation = None
        self._history = deque(maxlen=self.learning_period + 1)
        self._generation = None

    def update_rate(self, generation, best_f_now):
        """Record this generation's best objective and return the change rate."""
        self._generation = int(generation)
        self._history.append(float(best_f_now))
        if len(self._history) <= self.learning_period:
            self.rate = 1.0
        else:
            old = self._history[0]
            new = self._history[-1]
            self.rate = (old - new) / max(abs(old), RATE_FLOOR)
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
    """Violation-relaxation level for the pull phase.

    ``k`` counts generations since the schedule started.  The level is
    ``eps_initial`` at k = 0 and zero from k = cutoff on.  In between it is
    ``(1 - EPS_SHRINK)`` times the last level while the feasible fraction is
    below ``FEASIBLE_TRIGGER``, else ``eps_initial * (1 - k / cutoff) ** DECAY_POWER``.
    Each level depends on the one before it, so ``k`` starts from 0 or above
    and strictly increases between calls.
    """

    def __init__(self, eps_initial, cutoff):
        if not eps_initial >= 0:  # NaN fails too
            raise ValueError("eps_initial must be >= 0")
        self.eps_initial = float(eps_initial)
        self.cutoff = float(cutoff)
        self._level = self.eps_initial
        self._last_k = -1

    @classmethod
    def from_violations(cls, violations, cutoff, eps_initial=None):
        """Start the schedule from a population's ``EPS_QUANTILE`` violation quantile.

        An explicit ``eps_initial`` overrides the quantile rule.  The quantile
        is taken with infinite violations counted as the largest double, so
        that it never interpolates ``inf - inf`` and always starts finite.
        """
        if eps_initial is None:
            capped = np.minimum(np.asarray(violations, dtype=float), np.finfo(float).max)
            eps_initial = float(np.quantile(capped, EPS_QUANTILE))
        return cls(eps_initial, cutoff)

    def level(self, k, feasible_ratio):
        """Relaxation level at pull-generation ``k``."""
        if k <= self._last_k:
            raise ValueError(f"k must be >= 0 and above the last k, {self._last_k}")
        if k >= self.cutoff:
            level = 0.0
        elif k == 0:
            level = self.eps_initial
        elif feasible_ratio < FEASIBLE_TRIGGER:
            level = (1.0 - EPS_SHRINK) * self._level
        else:
            level = self.eps_initial * (1.0 - k / self.cutoff) ** DECAY_POWER
        self._last_k = k
        self._level = level
        return level
