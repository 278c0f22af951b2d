"""Typed messages between the fleet manager and its workers.

Every object crossing the manager/worker process boundary is one of
the frozen dataclasses below, put on a ``multiprocessing`` queue as it
is (see :mod:`repro.service.backends.fleet`); the queue pickles it.
The manager and its workers are always the same build, so there is no
version or type tag to check: a receiver dispatches on the class, and
the manager drops any frame that is not one of its messages.

Manager -> worker:

- :class:`PlanRequestMessage` — serve one admitted plan request on a
  warm worker-side context;
- :class:`ShutdownMessage` — drain and exit.

Worker -> manager:

- :class:`WorkerReadyMessage` — the process is up (carries its pid);
- :class:`ProgressMessage` — a request started serving (the manager
  uses it for dispatch attribution and tests use it as a deterministic
  "mid-request" hook);
- :class:`CompletedMessage` / :class:`FailedMessage` — one request's
  outcome;
- :class:`HeartbeatMessage` — periodic liveness beacon from a
  worker-side daemon thread (missed beats trigger failure detection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


# --------------------------------------------------------------------- #
# manager -> worker
@dataclass(frozen=True)
class PlanRequestMessage:
    """Serve one plan request; ``ticket`` is the request fingerprint."""

    ticket: str = ""
    request: Any = None              # the PlanRequest itself
    stall_seconds: float = 0.0       # fault-injection: sleep before serving


@dataclass(frozen=True)
class ShutdownMessage:
    """Drain and exit the worker main loop."""


# --------------------------------------------------------------------- #
# worker -> manager
@dataclass(frozen=True)
class WorkerReadyMessage:
    worker: str = ""
    pid: int = 0


@dataclass(frozen=True)
class ProgressMessage:
    """A job started serving on ``worker`` (dispatch attribution)."""

    ticket: str = ""
    worker: str = ""


@dataclass(frozen=True)
class CompletedMessage:
    ticket: str = ""
    worker: str = ""
    result: Any = None               # the PlanResult


@dataclass(frozen=True)
class FailedMessage:
    """A job raised on the worker.

    The original exception is flattened to ``(error_type, message)`` —
    exception subclasses with structured constructors don't all
    survive pickling, and the manager rebuilds a structured
    :class:`~repro.errors.ReproError` from the pair instead.
    """

    ticket: str = ""
    worker: str = ""
    error_type: str = ""
    message: str = ""


@dataclass(frozen=True)
class HeartbeatMessage:
    worker: str = ""


def rebuild_error(error_type: str, message: str) -> Exception:
    """Reconstruct a structured error from a :class:`FailedMessage`.

    Known single-argument :class:`~repro.errors.ReproError` subclasses
    are rebuilt by name; anything else (unknown type, structured
    constructor) degrades to :class:`~repro.errors.ServiceError` with
    the type name prefixed, so no failure detail is lost even when the
    class can't be revived.
    """
    from .. import errors as errors_mod
    cls = getattr(errors_mod, error_type, None)
    if isinstance(cls, type) and issubclass(cls, errors_mod.ReproError):
        try:
            return cls(message)
        except TypeError:
            pass
    return errors_mod.ServiceError(f"{error_type}: {message}")
