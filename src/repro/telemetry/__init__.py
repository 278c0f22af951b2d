"""``repro.telemetry`` — metrics, span tracing, critical-path attribution.

The package has two faces:

1. **Explicit objects** — :class:`MetricsRegistry`, :class:`Tracer` and
   :func:`critical_path` can be constructed and used directly.
2. **Ambient session** — instrumented modules (simulation engine,
   execution engine, REINFORCE trainer, scheduler, the HeteroG facade)
   call :func:`active` each run; it returns ``None`` unless a
   :func:`session` is open, so the disabled-path cost is a single
   attribute read and simulation results are bit-identical with
   telemetry off.

Typical use::

    from repro import telemetry

    with telemetry.session() as tel:
        result = engine.run_iteration(dist, schedule, resident)
        print(tel.registry.to_prometheus())
        tel.tracer.save_jsonl("spans.jsonl")
        report = telemetry.critical_path(dist, result)
        print(report.summary())
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator, Optional

from .context import (
    current_request,
    record_event,
    request_scope,
)
from .critical_path import (
    IDLE_KEY,
    CriticalPathReport,
    PathSegment,
    critical_path,
)
from .flight import (
    FlightRecord,
    FlightRecorder,
    default_recorder,
    postmortem_report,
)
from .journal import (
    EVENT_SCHEMAS,
    PHASE_OF,
    SCHEMA_VERSION,
    TERMINAL_STATUS,
    Journal,
    JournalEvent,
    filter_events,
    new_request_id,
    validate_event,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .slo import (
    DEFAULT_TARGETS,
    SLOTarget,
    SLOTracker,
    priority_class,
    replay_tracker,
)
from .tracer import _NULL_SPAN, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "CriticalPathReport",
    "PathSegment",
    "critical_path",
    "IDLE_KEY",
    "Telemetry",
    "active",
    "session",
    "span",
    "emit_count",
    "emit_gauge",
    "emit_observe",
    # request-scoped observability
    "current_request",
    "record_event",
    "request_scope",
    "Journal",
    "JournalEvent",
    "SCHEMA_VERSION",
    "EVENT_SCHEMAS",
    "PHASE_OF",
    "TERMINAL_STATUS",
    "filter_events",
    "new_request_id",
    "validate_event",
    "FlightRecord",
    "FlightRecorder",
    "default_recorder",
    "postmortem_report",
    "SLOTarget",
    "SLOTracker",
    "DEFAULT_TARGETS",
    "priority_class",
    "replay_tracker",
]


@dataclass
class Telemetry:
    """One telemetry session: a registry plus a tracer."""

    registry: MetricsRegistry
    tracer: Tracer


_ACTIVE: Optional[Telemetry] = None


def active() -> Optional[Telemetry]:
    """The ambient session, or ``None`` when telemetry is disabled."""
    return _ACTIVE


def span(name: str, **attrs):
    """Span on the ambient tracer; a shared no-op when disabled."""
    tel = _ACTIVE
    if tel is None:
        return _NULL_SPAN
    return tel.tracer.span(name, **attrs)


def emit_count(metric: str, labels=None, help: str = "") -> None:
    """Increment a counter by one on the ambient registry (no-op when
    disabled).

    The one shared implementation of the ``_count`` shim the planning
    service, the plan cache and the execution backends all need: a
    single ``active()`` check, so the disabled path stays one attribute
    read and instrumented modules never copy the boilerplate again.
    """
    tel = _ACTIVE
    if tel is not None:
        tel.registry.counter(metric, labels=labels, help=help).inc()


def emit_gauge(metric: str, value: float, labels=None,
               help: str = "") -> None:
    """Set a gauge on the ambient registry (no-op when disabled)."""
    tel = _ACTIVE
    if tel is not None:
        tel.registry.gauge(metric, labels=labels, help=help).set(value)


def emit_observe(metric: str, value: float, labels=None,
                 help: str = "") -> None:
    """Observe into a histogram on the ambient registry (no-op when
    disabled)."""
    tel = _ACTIVE
    if tel is not None:
        tel.registry.histogram(metric, labels=labels,
                               help=help).observe(value)


@contextlib.contextmanager
def session(registry: Optional[MetricsRegistry] = None
            ) -> Iterator[Telemetry]:
    """Scoped telemetry: a fresh session on entry (recording into
    ``registry`` when given), and on exit the session it replaced, so
    sessions nest."""
    global _ACTIVE
    outer = _ACTIVE
    tel = Telemetry(
        registry=registry if registry is not None else MetricsRegistry(),
        tracer=Tracer())
    _ACTIVE = tel
    try:
        yield tel
    finally:
        _ACTIVE = outer
