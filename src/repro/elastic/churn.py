"""Poisson churn: seeded capacity-event timelines for elastic fleets.

A :class:`ChurnSchedule` turns per-iteration arrival/preemption *rates*
into a concrete, fully deterministic :class:`~repro.resilience.faults.
FaultSchedule` of capacity events over a given cluster — the
capacity counterpart of :meth:`FaultSchedule.random`, which draws only
degradation faults.  Arrivals are
``join`` / ``server_join`` events (a spot market granting capacity),
preemptions are ``preempt`` notices with a fixed advance window, and a
preempted device may later ``reclaim`` (the market giving it back).

Everything is a pure function of the seed: the same
``(schedule, cluster, seed)`` triple always produces a byte-identical
spec string, and zero rates produce the empty schedule — so paired
churn-on/churn-off experiments inherit the injector's bit-identity
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from ..cluster.topology import Cluster
from ..errors import ReproError
from ..resilience.faults import FaultEvent, FaultKind, FaultSchedule

#: share of arrivals that bring a whole new server rather than extra
#: GPUs on an existing one
SERVER_FRACTION = 0.5

#: GPU model of an arriving server
ARRIVAL_GPU = "v100"


@dataclass(frozen=True)
class ChurnSchedule:
    """Rates describing how a fleet churns, plus the seeded generator.

    ``arrival_rate`` and ``preempt_rate`` are expected events per
    training iteration (Poisson); ``notice`` is the spot advance-notice
    window in iterations; ``reclaim_probability`` is the chance a
    preempted device comes back later.  A share :data:`SERVER_FRACTION`
    of arrivals bring a whole new server of :data:`ARRIVAL_GPU` GPUs,
    the rest extra GPUs on an existing server.
    """

    arrival_rate: float = 0.0
    preempt_rate: float = 0.0
    notice: int = 2
    reclaim_probability: float = 0.0
    horizon: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival_rate < 0 or self.preempt_rate < 0:
            raise ReproError(
                f"churn rates must be >= 0: arrival={self.arrival_rate}, "
                f"preempt={self.preempt_rate}")
        if self.notice < 1:
            raise ReproError(
                f"preempt notice must be >= 1 iteration, got {self.notice}")
        if not 0.0 <= self.reclaim_probability <= 1.0:
            raise ReproError(
                f"reclaim_probability must be in [0, 1], got "
                f"{self.reclaim_probability}")
        if self.horizon < 2:
            raise ReproError(f"horizon must be >= 2, got {self.horizon}")

    @property
    def is_empty(self) -> bool:
        return self.arrival_rate == 0.0 and self.preempt_rate == 0.0

    def schedule(self, cluster: Cluster) -> FaultSchedule:
        """The concrete capacity-event timeline for ``cluster``.

        Deterministic in ``self.seed``; preemptions never take the base
        fleet below two live devices, so a drain-replan always has
        somewhere to go.
        """
        if self.is_empty:
            return FaultSchedule.empty()
        rng = np.random.default_rng(self.seed)
        servers = cluster.server_names()
        preemptable = list(cluster.device_ids)
        events: List[FaultEvent] = []
        taken: Set[Tuple[str, int]] = set()

        def emit(iteration: int, kind: FaultKind, target: str,
                 factor: float = 1.0) -> bool:
            if (target, iteration) in taken:
                return False          # drop colliding draws, stay valid
            taken.add((target, iteration))
            events.append(FaultEvent(iteration, kind, target, factor))
            return True

        for it in range(1, self.horizon):
            for _ in range(int(rng.poisson(self.arrival_rate))):
                if float(rng.random()) < SERVER_FRACTION:
                    emit(it, FaultKind.SERVER_JOIN, ARRIVAL_GPU,
                         float(rng.integers(1, 3)))
                else:
                    target = servers[int(rng.integers(len(servers)))]
                    emit(it, FaultKind.DEVICE_JOIN, target,
                         float(rng.integers(1, 3)))
            for _ in range(int(rng.poisson(self.preempt_rate))):
                if len(preemptable) <= 2:
                    break             # keep the base fleet replannable
                target = preemptable[int(rng.integers(len(preemptable)))]
                if not emit(it, FaultKind.PREEMPT, target,
                            float(self.notice)):
                    continue
                preemptable.remove(target)
                if float(rng.random()) < self.reclaim_probability:
                    # comes back strictly after it went dark; a reclaimed
                    # device is never preempted again (its second notice
                    # could otherwise land while it is still down)
                    back = it + self.notice + 1 + int(rng.integers(1, 4))
                    emit(back, FaultKind.RECLAIM, target)
        return FaultSchedule(tuple(events))
