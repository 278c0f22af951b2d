"""Per-priority-class latency SLOs with error-budget accounting.

Requests are bucketed into three priority classes (:func:`priority_class`
maps the service's integer priorities), each with a latency objective
and a compliance target.  The tracker counts, per class, how many
requests finished within the objective; the *error budget* is the
fraction of requests the target allows to miss, and the *burn* is how
much of that budget has been consumed — burn > 1.0 means the SLO is
blown.  ``repro status`` renders the snapshot.

The tracker counts each request once, from the event that seals its
flight record (:meth:`~repro.telemetry.flight.FlightRecorder.fold`):
the live service accounts the outcomes its own emits sealed, and
:func:`replay_tracker` runs a saved journal through the same fold, so
the two snapshots agree.  A wait-stage timeout is one breach; the
computation's late completion is not counted again.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional

from ..errors import ReproError
from .flight import FlightRecorder
from .journal import JournalEvent

#: priority >= CRITICAL_PRIORITY is "critical"; >= 1 "interactive".
CRITICAL_PRIORITY = 10

#: default latency objectives (seconds) and compliance targets per class.
DEFAULT_TARGETS: Dict[str, "SLOTarget"] = {}


def priority_class(priority: int) -> str:
    """Map a request priority to its SLO class."""
    if priority >= CRITICAL_PRIORITY:
        return "critical"
    if priority >= 1:
        return "interactive"
    return "batch"


@dataclass(frozen=True)
class SLOTarget:
    """One class's objective: latency bound + required compliance."""

    objective_seconds: float
    target: float = 0.95          # required fraction within objective

    def __post_init__(self) -> None:
        if self.objective_seconds <= 0:
            raise ReproError(
                f"SLO objective must be positive, "
                f"got {self.objective_seconds}")
        if not 0.0 < self.target <= 1.0:
            raise ReproError(
                f"SLO target must be in (0, 1], got {self.target}")


DEFAULT_TARGETS.update({
    "critical": SLOTarget(objective_seconds=10.0, target=0.99),
    "interactive": SLOTarget(objective_seconds=30.0, target=0.95),
    "batch": SLOTarget(objective_seconds=120.0, target=0.90),
})


@dataclass
class _ClassState:
    requests: int = 0
    good: int = 0                 # finished ok within the objective
    breaches: int = 0             # failed, timed out, or too slow
    latency_sum: float = 0.0
    worst: float = 0.0


class SLOTracker:
    """Error-budget accounting over per-request latency observations."""

    def __init__(self,
                 targets: Optional[Mapping[str, SLOTarget]] = None):
        self.targets: Dict[str, SLOTarget] = dict(
            targets if targets is not None else DEFAULT_TARGETS)
        self._lock = threading.Lock()
        self._classes: Dict[str, _ClassState] = {}

    # ------------------------------------------------------------------ #
    def observe(self, slo_class: str, latency_seconds: float,
                ok: bool = True) -> None:
        """Account one finished request (``ok=False`` always breaches)."""
        target = self.targets.get(slo_class)
        within = (ok and target is not None
                  and latency_seconds <= target.objective_seconds)
        with self._lock:
            state = self._classes.setdefault(slo_class, _ClassState())
            state.requests += 1
            state.latency_sum += latency_seconds
            if latency_seconds > state.worst:
                state.worst = latency_seconds
            if within:
                state.good += 1
            else:
                state.breaches += 1

    def account(self, event: str, attrs: Mapping[str, Any]) -> None:
        """Account one request's sealing outcome event, if it carries an
        ``slo_class``: ``completed`` is ok, the latency its ``seconds``."""
        slo_class = attrs.get("slo_class")
        if slo_class is not None:
            self.observe(slo_class, float(attrs.get("seconds", 0.0)),
                         ok=event == "completed")

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-class SLO state: compliance, budget, and burn."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            classes = {cls: _ClassState(**vars(state))
                       for cls, state in self._classes.items()}
        for cls, state in sorted(classes.items()):
            target = self.targets.get(cls)
            allowed = ((1.0 - target.target) * state.requests
                       if target is not None else 0.0)
            burn = (state.breaches / allowed if allowed > 0
                    else (math.inf if state.breaches else 0.0))
            out[cls] = {
                "requests": state.requests,
                "good": state.good,
                "breaches": state.breaches,
                "compliance": (state.good / state.requests
                               if state.requests else 1.0),
                "objective_seconds": (target.objective_seconds
                                      if target is not None else None),
                "target": target.target if target is not None else None,
                "error_budget": allowed,
                "budget_burn": burn,
                "mean_latency": (state.latency_sum / state.requests
                                 if state.requests else 0.0),
                "worst_latency": state.worst,
            }
        return out


def replay_tracker(events: Iterable[JournalEvent],
                   targets: Optional[Mapping[str, SLOTarget]] = None,
                   ) -> SLOTracker:
    """Rebuild an :class:`SLOTracker` from a journal stream — what
    ``repro status --journal`` uses in a fresh process."""
    tracker = SLOTracker(targets)
    recorder = FlightRecorder.from_events(())
    for entry in events:
        if recorder.fold(entry):
            tracker.account(entry.event, entry.attrs)
    return tracker
