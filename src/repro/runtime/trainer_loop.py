"""End-to-end training-time model (paper Sec. 6.4 / Table 5) and the
failure-detection layer of the resilience subsystem.

HeteroG's graph rewriting is semantics-preserving (synchronous SGD, same
global batch size), so "the total number of training iterations needed
for model convergence is not changed" across strategies.  End-to-end
time therefore equals iterations-to-target x per-iteration time.

``SAMPLES_TO_TARGET`` holds the number of training samples each CNN
needs to reach its target top-5 accuracy, back-derived from the paper's
Table 5 (end-to-end minutes / per-iteration seconds x global batch);
iterations = samples / global_batch, which also reproduces the paper's
12-GPU rows (same samples, larger batch, fewer iterations).

:class:`FailureDetector` watches iteration results the way a real
trainer loop watches health probes: hard failures (a lost device, OOM)
surface as exceptions from the engine and are classified immediately;
soft failures (a persistent straggler, a degraded NIC) show up as a
per-device busy-time or per-link transfer-time blow-up against a warmed
baseline — the same signal :func:`repro.telemetry.critical_path`
attributes blame with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from .. import telemetry
from ..errors import DeviceLostError, OutOfMemoryError, ReproError
from ..simulation.metrics import SimulationResult
from ..telemetry.context import record_event

# samples to converge to target top-5 accuracy, per model family
SAMPLES_TO_TARGET: Dict[str, float] = {
    "vgg19": 12.8e6,
    "resnet200": 10.5e6,
    "inception_v3": 18.2e6,
    "mobilenet_v2": 11.0e6,
    "nasnet": 15.9e6,
    # NLP models: pre-training sample budgets (not in Table 5 but useful
    # for the examples)
    "transformer": 30.0e6,
    "bert_large": 8.0e6,
    "xlnet_large": 8.0e6,
}


@dataclass(frozen=True)
class ConvergenceModel:
    """Iterations/minutes needed to reach the target accuracy."""

    model_name: str
    global_batch: int

    @property
    def samples(self) -> float:
        try:
            return SAMPLES_TO_TARGET[self.model_name]
        except KeyError:
            raise ReproError(
                f"no convergence budget known for {self.model_name!r}; "
                f"known: {sorted(SAMPLES_TO_TARGET)}"
            ) from None

    @property
    def iterations(self) -> int:
        return int(round(self.samples / self.global_batch))

    def end_to_end_minutes(self, per_iteration_seconds: float) -> float:
        minutes = self.iterations * per_iteration_seconds / 60.0
        labels = {"model": self.model_name}
        telemetry.emit_gauge(
            "trainer_iterations_to_target", self.iterations, labels=labels,
            help="iterations needed to reach the target accuracy")
        telemetry.emit_gauge(
            "trainer_end_to_end_minutes", minutes, labels=labels,
            help="projected end-to-end training minutes")
        return minutes


def end_to_end_minutes(model_name: str, global_batch: int,
                       per_iteration_seconds: float) -> float:
    """Convenience wrapper for the Table 5 harness."""
    model = ConvergenceModel(model_name, global_batch)
    return model.end_to_end_minutes(per_iteration_seconds)


# --------------------------------------------------------------------- #
# failure detection (resilience subsystem)
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class DetectionEvent:
    """One detected fault: what, where, and how bad.

    ``kind`` is one of ``device_lost``, ``oom``, ``straggler`` or
    ``link_degraded``; ``resource`` names the device or ``link:a->b``;
    ``severity`` is the blow-up ratio against the healthy baseline
    (0.0 for hard failures, which have no meaningful ratio).
    """

    iteration: int
    kind: str
    resource: str
    severity: float = 0.0

    @property
    def is_hard(self) -> bool:
        return self.kind in ("device_lost", "oom")


#: a device's busy time, or a link's transfer time, above this multiple
#: of its baseline is a soft failure; well above the engine's run-to-run
#: jitter (sigma ~= 0.04), so healthy noise never trips it
BLOWUP_THRESHOLD = 1.4
#: healthy iterations that seed the baselines before any check
WARMUP_ITERATIONS = 2
#: weight of the newest sample in the baselines' moving average
BASELINE_EMA = 0.5


class FailureDetector:
    """Notices failed/degraded resources from iteration results.

    Hard failures arrive as exceptions (:meth:`observe_error`); soft
    degradations are inferred from :class:`SimulationResult` busy-time
    tables (:meth:`observe`): after ``WARMUP_ITERATIONS`` healthy
    iterations seed an exponential-moving-average baseline, any device
    whose busy time exceeds ``BLOWUP_THRESHOLD`` x its baseline is
    flagged a straggler, and any link whose busy time does is flagged
    degraded.

    Each resource is flagged at most once; after the controller replans
    (the execution profile legitimately changes), call :meth:`reset` to
    re-warm the baselines against the new deployment.
    """

    def __init__(self) -> None:
        self._device_baseline: Dict[str, float] = {}
        self._link_baseline: Dict[str, float] = {}
        self._healthy = 0
        self._flagged: Set[str] = set()

    def reset(self) -> None:
        """Forget baselines and flags (after a replan changed the plan)."""
        self._device_baseline.clear()
        self._link_baseline.clear()
        self._healthy = 0
        self._flagged.clear()

    # ---------------------------------------------------------------- #
    def observe_error(self, iteration: int,
                      exc: Exception) -> DetectionEvent:
        """Classify a hard failure the engine raised."""
        if isinstance(exc, DeviceLostError):
            event = DetectionEvent(iteration, "device_lost", exc.device)
        elif isinstance(exc, OutOfMemoryError):
            event = DetectionEvent(iteration, "oom", exc.device)
        else:
            raise ReproError(
                f"cannot classify {type(exc).__name__}: {exc}") from exc
        self._flagged.add(event.resource)
        self._count(event)
        return event

    def observe(self, iteration: int, result: SimulationResult,
                ) -> List[DetectionEvent]:
        """Update baselines with one healthy-looking iteration; return
        any soft degradations it reveals."""
        events: List[DetectionEvent] = []
        if self._healthy < WARMUP_ITERATIONS:
            self._absorb(result)
            self._healthy += 1
            return events
        events.extend(self._scan(
            iteration, result.device_busy, self._device_baseline,
            "straggler"))
        events.extend(self._scan(
            iteration, result.link_busy, self._link_baseline,
            "link_degraded"))
        for event in events:
            self._count(event)
        return events

    # ---------------------------------------------------------------- #
    def _absorb(self, result: SimulationResult) -> None:
        for table, baseline in (
                (result.device_busy, self._device_baseline),
                (result.link_busy, self._link_baseline)):
            for resource, busy in table.items():
                prev = baseline.get(resource)
                baseline[resource] = busy if prev is None \
                    else (1 - BASELINE_EMA) * prev + BASELINE_EMA * busy

    def _scan(self, iteration: int, table: Dict[str, float],
              baseline: Dict[str, float], kind: str) -> List[DetectionEvent]:
        events: List[DetectionEvent] = []
        for resource, busy in table.items():
            if resource in self._flagged:
                continue
            prev = baseline.get(resource)
            if prev is None or prev <= 0:
                baseline[resource] = busy
                continue
            ratio = busy / prev
            if ratio > BLOWUP_THRESHOLD:
                self._flagged.add(resource)
                events.append(DetectionEvent(iteration, kind, resource,
                                             severity=ratio))
            else:
                # healthy sample: keep tracking drift
                baseline[resource] = ((1 - BASELINE_EMA) * prev
                                      + BASELINE_EMA * busy)
        return events

    @staticmethod
    def _count(event: DetectionEvent) -> None:
        record_event("fault_detected", kind=event.kind,
                     resource=event.resource, iteration=event.iteration,
                     severity=event.severity)
        telemetry.emit_count(
            "resilience_detections_total", labels={"kind": event.kind},
            help="faults noticed by the failure detector")
