"""``repro.telemetry`` — metrics, span tracing, critical-path attribution.

The package has two faces:

1. **Explicit objects** — :class:`MetricsRegistry`, :class:`Tracer` and
   :func:`critical_path` can be constructed and used directly.
2. **Ambient session** — instrumented modules (simulation engine,
   execution engine, REINFORCE trainer, scheduler, the HeteroG facade)
   call :func:`active` each run; it returns ``None`` unless a session
   was opened with :func:`enable` or the :func:`session` context
   manager, so the disabled-path cost is a single attribute read and
   simulation results are bit-identical with telemetry off.

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
from typing import Iterator, List, Optional

from .context import (
    current_recorder,
    current_request,
    record_event,
    request_scope,
)
from .critical_path import (
    IDLE_KEY,
    CriticalPathReport,
    PathSegment,
    blame_resource,
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
    "blame_resource",
    "IDLE_KEY",
    "Telemetry",
    "active",
    "enable",
    "disable",
    "session",
    "span",
    "emit_count",
    "emit_gauge",
    "emit_observe",
    # request-scoped observability
    "current_request",
    "current_recorder",
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

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)


_ACTIVE: Optional[Telemetry] = None
_SESSIONS: List[Telemetry] = []  # nesting stack; _ACTIVE mirrors its top


def active() -> Optional[Telemetry]:
    """The ambient session, or ``None`` when telemetry is disabled."""
    return _ACTIVE


def enable(registry: Optional[MetricsRegistry] = None,
           tracer: Optional[Tracer] = None) -> Telemetry:
    """Open a new ambient telemetry session (stacking over any current
    one).  Sessions compose: a matching :func:`disable` restores the
    enclosing session instead of turning telemetry off outright, so
    per-request recording can coexist with a user-enabled global
    session."""
    global _ACTIVE
    tel = Telemetry(
        registry=registry if registry is not None else MetricsRegistry(),
        tracer=tracer if tracer is not None else Tracer(),
    )
    _SESSIONS.append(tel)
    _ACTIVE = tel
    return tel


def disable() -> None:
    """Close the innermost session, restoring the enclosing one (a
    no-op when no session is open)."""
    global _ACTIVE
    if _SESSIONS:
        _SESSIONS.pop()
    _ACTIVE = _SESSIONS[-1] if _SESSIONS else None


def span(name: str, **attrs):
    """Span on the ambient tracer; a shared no-op when disabled."""
    tel = _ACTIVE
    if tel is None:
        return _NULL_SPAN
    return tel.tracer.span(name, **attrs)


def emit_count(metric: str, labels=None, value: float = 1.0,
               help: str = "") -> None:
    """Increment a counter on the ambient registry (no-op when disabled).

    The one shared implementation of the ``_count`` shim the planning
    service, the plan cache and the execution backends all need: a
    single ``active()`` check, so the disabled path stays one attribute
    read and instrumented modules never copy the boilerplate again.
    """
    tel = _ACTIVE
    if tel is not None:
        tel.registry.counter(metric, labels=labels, help=help).inc(value)


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
def session(registry: Optional[MetricsRegistry] = None,
            tracer: Optional[Tracer] = None) -> Iterator[Telemetry]:
    """Scoped telemetry: enable on entry, restore the prior state on exit.

    Exit unwinds to the state *before* this session was opened — any
    sessions pushed inside the block (via :func:`enable` without a
    matching :func:`disable`) are unwound with it.
    """
    global _ACTIVE
    depth = len(_SESSIONS)
    tel = enable(registry, tracer)
    try:
        yield tel
    finally:
        del _SESSIONS[depth:]
        _ACTIVE = _SESSIONS[-1] if _SESSIONS else None
