"""Ambient request scope: the correlation-id channel of the stack.

A *request scope* binds the current thread to one ``request_id`` (and,
optionally, the :class:`~repro.telemetry.flight.FlightRecorder` that is
collecting that request's timeline).  The planning service opens a
scope around every request it serves, and the resilience controller
opens one around a whole fault->detect->replan->resume episode, so
instrumentation deep in the stack — the plan builder, the scheduler,
the simulator, the failure detector — can attach the id to spans and
journal events without any of those layers taking a ``request_id``
parameter.

Scopes nest (a replan request served inside a resilience episode pushes
its own scope and pops back to the episode's), are per-thread, and cost
one thread-local read when consulted.  Nothing here depends on the
ambient telemetry session: request-scoped recording works with tracing
completely disabled, which is what makes post-hoc ``repro postmortem``
possible.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Iterator, Optional, Tuple

_LOCAL = threading.local()


def _stack() -> "list[Tuple[str, Any]]":
    stack = getattr(_LOCAL, "scopes", None)
    if stack is None:
        stack = _LOCAL.scopes = []
    return stack


def current_request() -> Optional[str]:
    """The request id the current thread is working for, if any."""
    stack = getattr(_LOCAL, "scopes", None)
    return stack[-1][0] if stack else None


@contextlib.contextmanager
def request_scope(request_id: str,
                  recorder: Optional[Any] = None) -> Iterator[str]:
    """Bind this thread to ``request_id`` (and ``recorder``) for a block."""
    stack = _stack()
    stack.append((request_id, recorder))
    try:
        yield request_id
    finally:
        stack.pop()


def record_event(event: str, **attrs: Any) -> None:
    """Emit a journal event for the current request scope, if one exists.

    This is the hook instrumented layers call: one thread-local read
    plus a ``None`` check when no scope is active, so code outside a
    served request (direct library use, baselines, benchmarks) pays
    nothing and emits nothing.
    """
    stack = getattr(_LOCAL, "scopes", None)
    if not stack:
        return
    request_id, recorder = stack[-1]
    if recorder is None:
        return
    recorder.emit(request_id, event, **attrs)
