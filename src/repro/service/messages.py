"""Typed wire protocol between the fleet manager and its workers.

Every object crossing the manager/worker process boundary is one of
the message dataclasses below, round-tripped through a **versioned
wire dict** (``to_wire`` / :func:`message_from_wire`).  The split
mirrors optuna-distributed's ``messages/`` + ``ipc/`` layering: the
transport (a pair of ``multiprocessing`` queues, see
:mod:`repro.service.backends.fleet`) only ever carries these dicts, so
a protocol mismatch fails loudly with
:class:`~repro.errors.FleetProtocolError` instead of silently
mis-dispatching, and the message surface can evolve behind the version
field.

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

Payload fields (``request``, ``result``) stay live objects inside the
wire dict — the queue's pickling moves them — so the round trip is
about typed framing, not serialization.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from ..errors import FleetProtocolError

# v3: the evaluation-chunk messages are gone and FailedMessage lost its
# ``kind`` field (every job is a plan request)
WIRE_VERSION = 3

_WIRE_FIELDS = ("v", "type")


@dataclass(frozen=True)
class Message:
    """Base message: subclasses set ``TYPE`` and are auto-registered."""

    TYPE = ""

    def to_wire(self) -> Dict[str, Any]:
        """Flat dict form: ``{"v": .., "type": ..}`` + shallow fields."""
        out: Dict[str, Any] = {"v": WIRE_VERSION, "type": self.TYPE}
        for f in dataclasses.fields(self):
            out[f.name] = getattr(self, f.name)
        return out


_REGISTRY: Dict[str, type] = {}


def _register(cls: type) -> type:
    if not cls.TYPE:
        raise FleetProtocolError(f"{cls.__name__} has no TYPE tag")
    if cls.TYPE in _REGISTRY:
        raise FleetProtocolError(f"duplicate message type {cls.TYPE!r}")
    _REGISTRY[cls.TYPE] = cls
    return cls


def message_from_wire(data: Mapping[str, Any]) -> "Message":
    """Decode one wire dict back into its typed message.

    Raises :class:`~repro.errors.FleetProtocolError` on a non-dict
    frame, a missing/unsupported version, an unknown type tag, or
    missing fields — the receiving loop treats any of these as a
    poisoned channel rather than guessing.
    """
    if not isinstance(data, Mapping):
        raise FleetProtocolError(
            f"wire message must be a dict, got {type(data).__name__}")
    for key in _WIRE_FIELDS:
        if key not in data:
            raise FleetProtocolError(
                f"wire message missing {key!r} field: keys "
                f"{sorted(data)}")
    if data["v"] != WIRE_VERSION:
        raise FleetProtocolError(
            f"unsupported wire version {data['v']!r} "
            f"(this build speaks {WIRE_VERSION})")
    cls = _REGISTRY.get(data["type"])
    if cls is None:
        raise FleetProtocolError(
            f"unknown message type {data['type']!r}; known: "
            f"{', '.join(sorted(_REGISTRY))}")
    kwargs = {k: v for k, v in data.items() if k not in _WIRE_FIELDS}
    names = {f.name for f in dataclasses.fields(cls)}
    missing = names - set(kwargs)
    extra = set(kwargs) - names
    if missing or extra:
        raise FleetProtocolError(
            f"message {data['type']!r} field mismatch: "
            f"missing {sorted(missing)}, unexpected {sorted(extra)}")
    return cls(**kwargs)


# --------------------------------------------------------------------- #
# manager -> worker
@_register
@dataclass(frozen=True)
class PlanRequestMessage(Message):
    """Serve one plan request; ``ticket`` is the request fingerprint."""

    TYPE = "plan_request"

    ticket: str = ""
    request: Any = None              # the PlanRequest itself
    queue_seconds: float = 0.0
    stall_seconds: float = 0.0       # fault-injection: sleep before serving


@_register
@dataclass(frozen=True)
class ShutdownMessage(Message):
    """Drain and exit the worker main loop."""

    TYPE = "shutdown"

    reason: str = ""


# --------------------------------------------------------------------- #
# worker -> manager
@_register
@dataclass(frozen=True)
class WorkerReadyMessage(Message):
    TYPE = "worker_ready"

    worker: str = ""
    pid: int = 0


@_register
@dataclass(frozen=True)
class ProgressMessage(Message):
    """A job started serving on ``worker`` (dispatch attribution)."""

    TYPE = "progress"

    ticket: str = ""
    worker: str = ""
    stage: str = "serving"


@_register
@dataclass(frozen=True)
class CompletedMessage(Message):
    TYPE = "completed"

    ticket: str = ""
    worker: str = ""
    result: Any = None               # the PlanResult


@_register
@dataclass(frozen=True)
class FailedMessage(Message):
    """A job raised on the worker.

    The original exception is flattened to ``(error_type, message)`` —
    exception subclasses with structured constructors don't all
    survive pickling, and the manager rebuilds a structured
    :class:`~repro.errors.ReproError` from the pair instead.
    """

    TYPE = "failed"

    ticket: str = ""
    worker: str = ""
    error_type: str = ""
    message: str = ""


@_register
@dataclass(frozen=True)
class HeartbeatMessage(Message):
    TYPE = "heartbeat"

    worker: str = ""
    ts: float = 0.0
    served: int = 0


def rebuild_error(error_type: str, message: str,
                  fallback: Optional[type] = None) -> Exception:
    """Reconstruct a structured error from a :class:`FailedMessage`.

    Known single-argument :class:`~repro.errors.ReproError` subclasses
    are rebuilt by name; anything else (unknown type, structured
    constructor) degrades to ``fallback`` (default
    :class:`~repro.errors.ServiceError`) with the type name prefixed,
    so no failure detail is lost even when the class can't be revived.
    """
    from .. import errors as errors_mod
    if fallback is None:
        fallback = errors_mod.ServiceError
    cls = getattr(errors_mod, error_type, None)
    if isinstance(cls, type) and issubclass(cls, errors_mod.ReproError):
        try:
            return cls(message)
        except TypeError:
            pass
    return fallback(f"{error_type}: {message}")
