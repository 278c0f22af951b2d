"""BestSoFar: the shared prune threshold for branch-and-bound search.

Candidate evaluation prunes in two places — a static admissible lower
bound before any simulation, and a cooperative mid-simulation abort —
and both need one answer: *above what makespan is this candidate
provably useless?*  A :class:`BestSoFar` owns that answer for one
search.  It is:

- **monotonic**: the threshold only ever tightens as exact feasible
  makespans are observed, so serving a cached pruned outcome recorded
  at a looser threshold stays sound within the same search;
- **thread-safe**: observations and threshold reads take a lock, so
  one tracker may be shared across threads;
- **k-aware**: an elite-selection search (the CEM baseline keeps the
  ``num_elite`` best of each round) prunes at the *k-th best* observed,
  not the best — a candidate only becomes useless once it can neither
  enter the elite set nor improve the global best.  ``keep=1`` (the
  default) is plain argmin.  A ``floor`` tracker chains a per-round
  tracker to a global one: observations forward to the floor and the
  effective threshold is ``max(own kth-best, floor threshold)``, i.e. a
  candidate must be useless for *both* purposes to be pruned.

Only **exact** makespans may be observed — never a pruned outcome's
partial time — and pruning compares strictly (``time > threshold``), so
ties survive to the exact comparison and the surviving winner is
bit-identical to an unpruned search.
"""

from __future__ import annotations

import heapq
import threading
from typing import Optional


class BestSoFar:
    """Monotonic, thread-safe best-makespan tracker for one search."""

    def __init__(self, limit: float = float("inf"), *,
                 keep: int = 1, floor: Optional["BestSoFar"] = None):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.keep = keep
        self.floor = floor
        self._lock = threading.Lock()
        self._limit = float(limit)
        # max-heap (negated) of the ``keep`` smallest observations
        self._worst_of_best: list = []

    def observe(self, time: float) -> None:
        """Record one exact feasible makespan (never a pruned partial)."""
        if time != time or time == float("inf"):  # NaN / inf guard
            return
        with self._lock:
            heap = self._worst_of_best
            if len(heap) < self.keep:
                heapq.heappush(heap, -time)
            elif time < -heap[0]:
                heapq.heapreplace(heap, -time)
        if self.floor is not None:
            self.floor.observe(time)

    def threshold(self) -> float:
        """Current prune limit: candidates strictly above it are useless.

        ``inf`` until ``keep`` exact makespans have been observed (or a
        finite initial ``limit`` was given); chained trackers return the
        max of their own k-th best and the floor's threshold.
        """
        with self._lock:
            if len(self._worst_of_best) < self.keep:
                own = self._limit
            else:
                own = min(self._limit, -self._worst_of_best[0])
        if self.floor is not None:
            # a candidate must be useless for both trackers before it
            # can be pruned, so the chained threshold is the looser one
            own = max(own, self.floor.threshold())
        return own

    @property
    def best(self) -> float:
        """Smallest exact makespan observed so far (``inf`` if none)."""
        with self._lock:
            if not self._worst_of_best:
                return float("inf")
            return -max(self._worst_of_best)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BestSoFar(threshold={self.threshold():.6g}, "
                f"keep={self.keep})")
