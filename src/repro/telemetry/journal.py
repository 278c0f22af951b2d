"""Structured event journal: versioned-schema JSONL request telemetry.

Every event the planning service (and the resilience controller) emits
is one flat JSON object with four base fields — ``schema_version``,
``event``, ``request_id``, ``ts`` — plus the event type's required
attributes (:data:`EVENT_SCHEMAS`).  Events are validated *on emit* and
again on read, so a journal file either parses cleanly against the
schema or fails loudly; the CI smoke step
(``benchmarks/test_journal_smoke.py``) runs the demo serve workload and
re-validates every line.

The journal is the durable, grep-able stream (``repro journal`` tails
and filters it); the :mod:`~repro.telemetry.flight` ring buffer folds
the same events into per-request records for post-hoc timelines.
Unlike span tracing, journal emission is *not* gated on the ambient
telemetry session — it is request-scoped, bounded, and cheap (a handful
of events per request, never per simulated op), which is what keeps the
disabled-telemetry hot path bit-identical and within budget while still
making every failed request reconstructable.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..errors import JournalSchemaError

SCHEMA_VERSION = 1

#: every event type by lifecycle phase (the ``--phase`` filter), with
#: the attribute fields it requires beyond the base fields; extra
#: attributes are always allowed, unknown event types never are.
_EVENTS_BY_PHASE: Dict[str, Dict[str, frozenset]] = {
    "admission": {
        "request_accepted": frozenset({"graph", "label", "priority",
                                       "queue_depth"}),
        "coalesced": frozenset({"primary"}),
        "cache_hit": frozenset(),
        "rejected": frozenset({"queue_depth", "limit"}),
    },
    "context": {
        "context_warm": frozenset({"context"}),
        "context_cold": frozenset({"context"}),
    },
    "search": {
        "search_started": frozenset({"episodes", "max_rounds"}),
        "candidate_evaluated": frozenset({"feasible", "time"}),
        "candidate_pruned": frozenset({"stage", "bound", "threshold"}),
    },
    "build": {
        "plan_built": frozenset({"dist_ops"}),
    },
    "outcome": {
        "completed": frozenset({"seconds"}),
        "failed": frozenset({"error"}),
        "timeout": frozenset({"stage"}),
    },
    # fleet backend: worker lifecycle + dispatch attribution
    "fleet": {
        "worker_spawn": frozenset({"worker"}),
        "worker_exit": frozenset({"worker"}),
        "worker_heartbeat_missed": frozenset({"worker", "misses"}),
        "worker_lost": frozenset({"worker"}),
        "worker_result_discarded": frozenset({"worker"}),
        "worker_join_timeout": frozenset({"worker"}),
        "dispatched": frozenset({"worker"}),
        "request_redispatched": frozenset({"worker", "attempt"}),
    },
    # resilience episodes, elastic capacity events + scale-up economics
    "resilience": {
        "episode_started": frozenset({"policy", "steps"}),
        "fault_detected": frozenset({"kind", "resource"}),
        "replan_started": frozenset({"devices"}),
        "replan_completed": frozenset({"seconds", "feasible"}),
        "resumed": frozenset({"iteration"}),
        "device_joined": frozenset({"target", "devices"}),
        "device_reclaimed": frozenset({"target", "devices"}),
        "preempt_notice": frozenset({"target", "deadline"}),
        "scale_up_replan": frozenset({"devices", "expected_savings",
                                      "replan_cost"}),
        "scale_up_skipped": frozenset({"expected_savings", "replan_cost"}),
    },
}

#: required attribute fields per event type.
EVENT_SCHEMAS: Dict[str, frozenset] = {
    event: fields for events in _EVENTS_BY_PHASE.values()
    for event, fields in events.items()}

#: lifecycle phase per event type.
PHASE_OF: Dict[str, str] = {
    event: phase for phase, events in _EVENTS_BY_PHASE.items()
    for event in events}

#: outcome status each terminal event type seals a flight record with;
#: the first terminal event of a request wins.
TERMINAL_STATUS: Dict[str, str] = {
    "completed": "completed",
    "failed": "failed",
    "timeout": "timeout",
    "rejected": "rejected",
    "coalesced": "coalesced",
    "worker_exit": "completed",
    "worker_lost": "failed",
}

_BASE_FIELDS = ("schema_version", "event", "request_id", "ts")

_IDS = itertools.count(1)


def new_request_id(prefix: str = "req") -> str:
    """A short, unique, human-readable correlation id (process-wide)."""
    return f"{prefix}-{next(_IDS):06d}"


def validate_event(data: Mapping[str, Any]) -> None:
    """Check one flat event dict against the versioned schema.

    Raises :class:`~repro.errors.JournalSchemaError` on an unknown event
    type, a wrong/missing ``schema_version``, a missing ``request_id``
    or ``ts``, or a missing required attribute.  Extra attributes pass.
    """
    if not isinstance(data, Mapping):
        raise JournalSchemaError(
            f"journal event must be an object, got {type(data).__name__}")
    for key in _BASE_FIELDS:
        if key not in data:
            raise JournalSchemaError(
                f"journal event missing base field {key!r}: {dict(data)}")
    if data["schema_version"] != SCHEMA_VERSION:
        raise JournalSchemaError(
            f"unsupported journal schema_version "
            f"{data['schema_version']!r} (this build reads "
            f"{SCHEMA_VERSION})")
    event = data["event"]
    required = EVENT_SCHEMAS.get(event)
    if required is None:
        raise JournalSchemaError(
            f"unknown journal event type {event!r}; known: "
            f"{', '.join(sorted(EVENT_SCHEMAS))}")
    if not data["request_id"] or not isinstance(data["request_id"], str):
        raise JournalSchemaError(
            f"journal event {event!r} needs a non-empty request_id")
    if not isinstance(data["ts"], (int, float)):
        raise JournalSchemaError(
            f"journal event {event!r} ts must be a number, "
            f"got {data['ts']!r}")
    missing = required - set(data)
    if missing:
        raise JournalSchemaError(
            f"journal event {event!r} missing required field(s) "
            f"{', '.join(sorted(missing))}")


@dataclass(frozen=True)
class JournalEvent:
    """One validated journal entry.

    ``attrs`` holds everything beyond the base fields; :meth:`to_dict`
    flattens them (attributes sorted by key) so serialization is stable
    and a save -> load round trip is bit-identical.
    """

    event: str
    request_id: str
    ts: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @property
    def phase(self) -> str:
        return PHASE_OF.get(self.event, "other")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema_version": self.schema_version,
            "event": self.event,
            "request_id": self.request_id,
            "ts": self.ts,
        }
        for key in sorted(self.attrs):
            out[key] = self.attrs[key]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JournalEvent":
        validate_event(data)
        attrs = {k: v for k, v in data.items() if k not in _BASE_FIELDS}
        return cls(event=data["event"], request_id=data["request_id"],
                   ts=data["ts"], attrs=attrs,
                   schema_version=data["schema_version"])


class Journal:
    """Bounded, thread-safe event stream with an optional JSONL sink.

    In memory the journal keeps the most recent ``capacity`` events;
    when constructed with (or bound to) a ``path``, every event is also
    appended to the file as it is emitted, so the stream survives the
    process and can be tailed while a run progresses.
    """

    def __init__(self, capacity: int = 4096,
                 path: Optional[str] = None):
        if capacity < 1:
            raise JournalSchemaError(
                f"journal capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: "deque[JournalEvent]" = deque(maxlen=capacity)
        self.emitted = 0
        self._fh = None
        self.path = None
        if path is not None:
            self.bind_path(path)

    # ------------------------------------------------------------------ #
    def bind_path(self, path: str) -> None:
        """Start (or switch to) streaming events into ``path``."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
            self.path = path
            self._fh = open(path, "a")

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    # ------------------------------------------------------------------ #
    def emit(self, event: str, request_id: str,
             **attrs: Any) -> JournalEvent:
        """Validate and record one event (timestamped now)."""
        entry = JournalEvent(event=event, request_id=request_id,
                             ts=time.time(), attrs=attrs)
        self.append(entry)
        return entry

    def append(self, entry: JournalEvent) -> None:
        validate_event(entry.to_dict())
        with self._lock:
            self._events.append(entry)
            self.emitted += 1
            if self._fh is not None:
                line = json.dumps(entry.to_dict())
                self._fh.write(line + "\n")
                self._fh.flush()

    # ------------------------------------------------------------------ #
    def events(self, *, request_id: Optional[str] = None,
               event: Optional[str] = None,
               phase: Optional[str] = None,
               tail: Optional[int] = None) -> List[JournalEvent]:
        """Snapshot of the in-memory stream, oldest first, filtered."""
        with self._lock:
            out = list(self._events)
        out = filter_events(out, request_id=request_id, event=event,
                            phase=phase)
        if tail is not None:
            out = out[-tail:]
        return out

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.emitted = 0

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------ #
    def save_jsonl(self, path: str) -> None:
        """Write the in-memory stream as one JSON object per line."""
        events = self.events()
        with open(path, "w") as fh:
            for entry in events:
                fh.write(json.dumps(entry.to_dict()) + "\n")

    @staticmethod
    def load(path: str) -> List[JournalEvent]:
        """Read and validate a JSONL journal file."""
        events: List[JournalEvent] = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise JournalSchemaError(
                        f"{path}:{lineno}: not valid JSON: {exc}") from exc
                try:
                    events.append(JournalEvent.from_dict(data))
                except JournalSchemaError as exc:
                    raise JournalSchemaError(
                        f"{path}:{lineno}: {exc}") from None
        return events


def filter_events(events: Iterable[JournalEvent], *,
                  request_id: Optional[str] = None,
                  event: Optional[str] = None,
                  phase: Optional[str] = None) -> List[JournalEvent]:
    """Filter a stream; ``request_id`` matches exact ids or prefixes."""
    out = list(events)
    if request_id:
        out = [e for e in out if e.request_id == request_id
               or e.request_id.startswith(request_id)]
    if event:
        out = [e for e in out if e.event == event]
    if phase:
        out = [e for e in out if e.phase == phase]
    return out
