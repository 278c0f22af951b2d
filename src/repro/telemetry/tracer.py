"""Nested-span tracing with a context-manager API.

A :class:`Tracer` records wall-clock spans organised into a tree (one
stack per thread, so concurrent threads trace independently).  Outside a
telemetry session, :func:`repro.telemetry.span` returns the shared no-op
:data:`_NULL_SPAN` without allocating anything.

Export surfaces:

- :meth:`Tracer.to_events` — flat list of span dicts;
- :meth:`Tracer.save_jsonl` — one JSON object per line;
- :meth:`Tracer.chrome_events` — ``ph: "X"`` slices for chrome://tracing.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Dict, List, Optional

from .context import current_request


class Span:
    """One timed region.  Use as a context manager via ``Tracer.span``."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id",
                 "thread_id", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], thread_id: int,
                 attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread_id = thread_id
        self.start = 0.0
        self.end: Optional[float] = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else
                self.tracer._now()) - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to a live span."""
        self.attrs.update(attrs)
        return self

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Span":
        self.start = self.tracer._now()
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = self.tracer._now()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer._pop(self)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "start": self.start,
            "end": self.end,
            "duration": None if self.end is None else self.end - self.start,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared no-op stand-in returned while no session is open."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":  # noqa: ARG002
        return self


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a tree of spans; thread-safe."""

    def __init__(self):
        self._epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._spans.append(span)

    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs: Any):
        """Open a nested span: ``with tracer.span("search", model=m): ...``"""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        # correlation: every span opened while a request scope is active
        # carries that request's id (service requests, replans, resilience
        # episodes) so one request's spans filter out of a mixed trace
        request_id = current_request()
        if request_id is not None and "request_id" not in attrs:
            attrs = dict(attrs, request_id=request_id)
        else:
            attrs = dict(attrs)
        return Span(self, name, next(self._ids), parent_id,
                    threading.get_ident(), attrs)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)

    # ------------------------------------------------------------------ #
    def to_events(self) -> List[Dict[str, Any]]:
        """Completed spans as dicts, ordered by start time."""
        with self._lock:
            spans = list(self._spans)
        return [s.to_dict() for s in sorted(spans, key=lambda s: s.start)]

    def save_jsonl(self, path: str) -> None:
        """One JSON object per line."""
        with open(path, "w") as fh:
            for event in self.to_events():
                fh.write(json.dumps(event) + "\n")

    def chrome_events(self, pid: int = 1) -> List[Dict[str, Any]]:
        """Complete-event slices (+ metadata) for chrome://tracing, in
        a process named ``pipeline``."""
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": "pipeline"},
        }]
        tids = sorted({e["thread_id"] for e in self.to_events()})
        tid_of = {t: i for i, t in enumerate(tids)}
        for i, thread in enumerate(tids):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": i,
                "args": {"name": f"thread-{thread}"},
            })
        for e in self.to_events():
            if e["end"] is None:
                continue
            args = {k: v for k, v in e["attrs"].items()
                    if isinstance(v, (str, int, float, bool))}
            events.append({
                "name": e["name"], "cat": "span", "ph": "X",
                "ts": e["start"] * 1e6,
                "dur": (e["end"] - e["start"]) * 1e6,
                "pid": pid, "tid": tid_of[e["thread_id"]],
                "args": args,
            })
        return events
