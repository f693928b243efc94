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


class PhaseTracker:
    """Detects objective stagnation and performs the one-way phase switch.

    The change rate at generation G compares the best objective now against
    its value one learning period earlier, normalized by the earlier
    magnitude (floored at ``delta`` to keep the ratio finite).  Until a full
    learning period of values exists the rate is pinned at 1.
    """

    def __init__(self, learning_period, threshold=1e-3, delta=1e-6):
        if learning_period < 1:
            raise ValueError("learning period must be >= 1")
        self.learning_period = int(learning_period)
        self.threshold = float(threshold)
        self.delta = float(delta)
        self.rate = 1.0
        self.phase = PUSH
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
            self.rate = (old - new) / max(abs(old), self.delta)
        return self.rate

    def should_switch(self):
        """Flip push -> pull when the rate has fallen to the threshold.

        Returns True only on the single generation the switch happens; once
        in the pull phase this never fires again.
        """
        if self.phase == PUSH and self.rate <= self.threshold:
            self.phase = PULL
            self.switch_generation = self._generation
            return True
        return False


class EpsilonSchedule:
    """Violation-relaxation level for the pull phase.

    ``k`` counts generations since the schedule started.  The level begins
    at ``eps_initial``, is forced to zero from the cutoff generation on, and
    in between either shrinks geometrically (while the population's feasible
    fraction is below the trigger) or follows a polynomial decay toward the
    cutoff.  Levels are memoized per ``k`` so repeated queries are stable,
    and ``k`` must never decrease between calls.
    """

    def __init__(self, eps_initial, cutoff, shrink=0.1, feasible_trigger=0.95,
                 decay_power=2.0):
        if eps_initial < 0:
            raise ValueError("eps_initial must be >= 0")
        if not 0 <= shrink < 1:
            raise ValueError("shrink must lie in [0, 1)")
        self.eps_initial = float(eps_initial)
        self.cutoff = float(cutoff)
        self.shrink = float(shrink)
        self.feasible_trigger = float(feasible_trigger)
        self.decay_power = float(decay_power)
        self._level = self.eps_initial
        self._last_k = None

    @classmethod
    def from_violations(cls, violations, cutoff, quantile=0.95, eps_initial=None,
                        **kwargs):
        """Start the schedule from a population's violation quantile.

        An explicit ``eps_initial`` overrides the quantile rule.  The quantile
        is taken with infinite violations counted as the largest double, so
        that it never interpolates ``inf - inf`` and always starts finite.
        """
        if eps_initial is None:
            eps_initial = float(np.quantile(
                np.minimum(np.asarray(violations, dtype=float), np.finfo(float).max), quantile))
        return cls(eps_initial, cutoff, **kwargs)

    def level(self, k, feasible_ratio):
        """Relaxation level at pull-generation ``k``."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if self._last_k is not None:
            if k < self._last_k:
                raise ValueError("k must not decrease between calls")
            if k == self._last_k:
                return self._level
        if k >= self.cutoff:
            level = 0.0
        elif k == 0:
            level = self.eps_initial
        elif feasible_ratio < self.feasible_trigger:
            level = (1.0 - self.shrink) * self._level
        else:
            level = self.eps_initial * (1.0 - k / self.cutoff) ** self.decay_power
        self._last_k = k
        self._level = level
        return level
