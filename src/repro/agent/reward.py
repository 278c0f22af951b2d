"""RL reward (paper Sec. 4.1.3).

"The reward is the additive inverse of the square root of the
per-iteration execution time of the DNN graph, R = -sqrt(T), if there is
no out of memory (OOM) error; otherwise, we multiply the computed reward
by 10, to lower the chance of producing the respective strategy."
"""

from __future__ import annotations

import math

from ..plan import EvalOutcome

OOM_PENALTY_FACTOR = 10.0
# reward assigned when the strategy cannot even be compiled/simulated
INFEASIBLE_TIME = 1e4


def compute_reward(outcome: EvalOutcome) -> float:
    """R = -sqrt(T); x10 on OOM; large fixed penalty when uncompilable.

    A pruned outcome (evaluation aborted because the candidate provably
    exceeds a best-so-far) carries ``time=inf`` and takes the same fixed
    penalty — the true time is unknown but certainly worse than anything
    already found.  Only the trainer's seed sweep produces one, and a
    seed takes no gradient; the sampled candidates that do are evaluated
    without a best-so-far, so no loss term carries this penalty.
    """
    if outcome.infeasible or outcome.pruned:
        return -OOM_PENALTY_FACTOR * math.sqrt(INFEASIBLE_TIME)
    reward = -math.sqrt(max(outcome.time, 0.0))
    if outcome.oom:
        reward *= OOM_PENALTY_FACTOR
    return reward


class MovingAverageBaseline:
    """The R_g moving average in the policy-gradient update."""

    def __init__(self, decay: float = 0.9):
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        self.decay = decay
        self._value: float | None = None

    def start(self, reward: float) -> None:
        """Start the average at ``reward`` unless it has started."""
        if self._value is None:
            self._value = reward

    def update(self, reward: float) -> float:
        """Fold in a reward; returns the baseline *before* this reward."""
        if self._value is None:
            self._value = reward
            return reward
        previous = self._value
        self._value = self.decay * self._value + (1 - self.decay) * reward
        return previous

    @property
    def value(self) -> float:
        return self._value if self._value is not None else 0.0
