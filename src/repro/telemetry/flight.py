"""Flight recorder: bounded ring of complete per-request timelines.

The recorder keeps one :class:`FlightRecord` per request — every
journal event the request produced, its disposition (cold/warm context,
coalesced, cache hit), its queue-wait vs execute breakdown and, when a
simulated run existed, a compact critical-path blame summary.
Records live in a bounded ring buffer, so any *recent* failed, timed
out, or rejected request can be dumped post-hoc with ``repro
postmortem <request_id>`` (or :func:`postmortem_report` in process)
without tracing having been enabled beforehand.

A record is a fold over its request's journal events: the live recorder
(:meth:`FlightRecorder.emit`) and one rebuilt from a saved journal
(:meth:`FlightRecorder.from_events`) apply every event through the same
:meth:`FlightRecorder.fold`, so the two agree field for field.

One process-wide default recorder (:func:`default_recorder`) is shared
by every :class:`~repro.service.PlanningService` and
:class:`~repro.resilience.ResilientTrainer` unless they are given their
own, so a serve workload, its replans, and its resilience episodes land
in a single journal with linked ``request_id`` / ``parent_id`` chains.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set

from ..errors import ReproError
from .journal import TERMINAL_STATUS, Journal, JournalEvent

DEFAULT_FLIGHT_CAPACITY = 256
#: records :meth:`FlightRecorder.from_events` keeps from a replayed journal
REPLAY_CAPACITY = 100_000
#: events kept per record; later ones only count in ``dropped_events``
MAX_EVENTS = 512

#: record fields taken from the first event attribute of the same name.
_HEADER_FIELDS = ("label", "graph", "fingerprint", "parent_id", "priority")


@dataclass
class FlightRecord:
    """One request's complete timeline, as the recorder saw it."""

    request_id: str
    label: str = ""
    graph: str = ""
    fingerprint: str = ""
    parent_id: str = ""
    priority: int = 0
    status: str = "inflight"
    submitted_ts: float = 0.0
    finished_ts: Optional[float] = None
    queue_seconds: Optional[float] = None
    service_seconds: Optional[float] = None
    events: List[JournalEvent] = field(default_factory=list)
    dropped_events: int = 0
    blame: Dict[str, float] = field(default_factory=dict)
    _headers_seen: Set[str] = field(default_factory=set, init=False,
                                    repr=False)

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        return self.finished_ts is not None

    @property
    def age_seconds(self) -> float:
        end = self.finished_ts if self.finished_ts is not None \
            else time.time()
        return end - self.submitted_ts

    def disposition(self) -> str:
        """One-line cache/coalesce/context summary from the events."""
        kinds = {e.event for e in self.events}
        parts: List[str] = []
        if "context_cold" in kinds:
            parts.append("cold context")
        elif "context_warm" in kinds:
            parts.append("warm context")
        if "cache_hit" in kinds:
            parts.append("served from result cache")
        for e in self.events:
            if e.event == "coalesced":
                parts.append(
                    f"coalesced onto {e.attrs.get('primary', '?')}")
        if not parts:
            parts.append("evaluated fresh")
        return "; ".join(parts)

    def timeline(self) -> List[Dict[str, Any]]:
        """Events as ``{dt, event, attrs}`` rows relative to submission."""
        base = self.submitted_ts or (
            self.events[0].ts if self.events else 0.0)
        return [{"dt": e.ts - base, "event": e.event, "attrs": dict(e.attrs)}
                for e in self.events]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "label": self.label,
            "graph": self.graph,
            "fingerprint": self.fingerprint,
            "parent_id": self.parent_id,
            "priority": self.priority,
            "status": self.status,
            "submitted_ts": self.submitted_ts,
            "finished_ts": self.finished_ts,
            "queue_seconds": self.queue_seconds,
            "service_seconds": self.service_seconds,
            "dropped_events": self.dropped_events,
            "blame": dict(self.blame),
            "events": [e.to_dict() for e in self.events],
        }


class FlightRecorder:
    """Always-on, bounded per-request recording (journal + ring buffer).

    ``capacity`` bounds how many request records are retained (oldest
    finished records are evicted first); :data:`MAX_EVENTS` bounds the
    per-record timeline (overflow is counted in ``dropped_events``, not
    silently lost).  All events are mirrored into ``journal``, the
    durable stream ``--journal-out`` saves.
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY,
                 journal: Optional[Journal] = None):
        if capacity < 1:
            raise ReproError(
                f"flight-recorder capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.journal = journal if journal is not None else Journal()
        self._lock = threading.Lock()
        self._records: "OrderedDict[str, FlightRecord]" = OrderedDict()

    # ------------------------------------------------------------------ #
    def emit(self, request_id: str, event: str, **attrs: Any) -> bool:
        """Record one event: append it to the journal, then fold it into
        the request's record.  True when it sealed the record."""
        return self.fold(self.journal.emit(event, request_id, **attrs))

    def fold(self, entry: JournalEvent) -> bool:
        """Apply one journal event to its request's record.

        The one place a record changes, live (:meth:`emit`) and post hoc
        (:meth:`from_events`) alike.  The first event opens the record;
        each header field comes from the first event that carries it;
        the first event in :data:`TERMINAL_STATUS` seals the record and
        makes this return True.  Every terminal event, sealing or late
        (a completion after a wait-stage timeout), updates the queue /
        execute breakdown and blame it carries.
        """
        attrs = entry.attrs
        with self._lock:
            record = self._records.get(entry.request_id)
            if record is None:
                record = FlightRecord(request_id=entry.request_id,
                                      submitted_ts=entry.ts)
                self._records[entry.request_id] = record
                self._evict()
            if len(record.events) < MAX_EVENTS:
                record.events.append(entry)
            else:
                record.dropped_events += 1
            for key in _HEADER_FIELDS:
                if key in attrs and key not in record._headers_seen:
                    record._headers_seen.add(key)
                    setattr(record, key, attrs[key])
            status = TERMINAL_STATUS.get(entry.event)
            if status is None:
                return False
            if "queue_seconds" in attrs:
                record.queue_seconds = attrs["queue_seconds"]
            if "service_seconds" in attrs:
                record.service_seconds = attrs["service_seconds"]
            if "blame" in attrs:
                record.blame = dict(attrs["blame"])
            if record.done:
                return False
            record.status = status
            record.finished_ts = entry.ts
            return True

    def _evict(self) -> None:
        """Caller holds the lock: drop oldest (finished-first) records."""
        while len(self._records) > self.capacity:
            victim = None
            for rid, record in self._records.items():
                if record.done:
                    victim = rid
                    break
            if victim is None:
                victim = next(iter(self._records))
            del self._records[victim]

    # ------------------------------------------------------------------ #
    def get(self, request_id: str) -> Optional[FlightRecord]:
        """Look up a record by exact id or unique prefix."""
        with self._lock:
            record = self._records.get(request_id)
            if record is not None:
                return record
            matches = [r for rid, r in self._records.items()
                       if rid.startswith(request_id)]
        return matches[0] if len(matches) == 1 else None

    def records(self) -> List[FlightRecord]:
        with self._lock:
            return list(self._records.values())

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
        self.journal.clear()

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_events(cls, events: Iterable[JournalEvent]
                    ) -> "FlightRecorder":
        """Rebuild up to :data:`REPLAY_CAPACITY` records from a journal
        stream (e.g. a JSONL file) — the path ``repro postmortem`` takes
        in a fresh process."""
        recorder = cls(capacity=REPLAY_CAPACITY, journal=Journal(capacity=1))
        for entry in events:
            recorder.fold(entry)
        return recorder


def postmortem_report(record: FlightRecord) -> str:
    """Human-readable post-hoc timeline for one request."""
    head = f"postmortem {record.request_id}"
    if record.label:
        head += f"  (label {record.label!r})"
    lines = [head]
    if record.graph:
        lines.append(f"  graph       : {record.graph}")
    if record.parent_id:
        lines.append(f"  parent      : {record.parent_id}")
    lines.append(f"  status      : {record.status}")
    lines.append(f"  duration    : {record.age_seconds:.6f} s")
    if record.queue_seconds is not None or record.service_seconds is not None:
        queue = record.queue_seconds or 0.0
        execute = record.service_seconds or 0.0
        lines.append(f"  breakdown   : queue wait {queue:.6f} s, "
                     f"execute {execute:.6f} s")
    lines.append(f"  disposition : {record.disposition()}")
    lines.append("  timeline:")
    for row in record.timeline():
        attrs = " ".join(f"{k}={row['attrs'][k]}"
                         for k in sorted(row["attrs"]))
        lines.append(f"    +{row['dt']:.6f}s  {row['event']:20s} {attrs}"
                     .rstrip())
    if record.dropped_events:
        lines.append(f"    ... ({record.dropped_events} more events "
                     f"dropped by the ring buffer)")
    if record.blame:
        ranked = sorted(record.blame.items(), key=lambda kv: -kv[1])
        blame = ", ".join(f"{name} {frac * 100:.0f}%"
                          for name, frac in ranked[:4])
        lines.append(f"  blame       : {blame}")
    return "\n".join(lines)


_DEFAULT: Optional[FlightRecorder] = None
_DEFAULT_LOCK = threading.Lock()


def default_recorder() -> FlightRecorder:
    """The process-wide shared recorder (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = FlightRecorder()
    return _DEFAULT
