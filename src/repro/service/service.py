"""The long-lived planning service: admit -> coalesce -> plan -> respond.

:class:`PlanningService` is the single front door to the planning
pipeline.  It accepts typed :class:`~repro.service.request.PlanRequest`
objects, and:

- **dedupes** — identical in-flight requests (same content fingerprint)
  are coalesced onto one computation; identical *completed* requests
  are served from a bounded result cache without any new work;
- **admits** — the priority queue is bounded; a full queue rejects new
  work fast with a structured
  :class:`~repro.errors.ServiceOverloadedError`, and requests whose
  deadline expires while queued are failed without being evaluated;
- **dispatches** — to an :class:`~repro.service.backends.base.
  ExecutionBackend`, which serves admitted requests in (priority,
  arrival) order on warm :class:`~repro.service.context.PlanContext`
  sessions.  ``backend=None`` (the default) picks one from
  ``workers``: ``workers=0`` is the inline backend (the whole pipeline
  on the caller's thread — the mode the :class:`~repro.heterog.HeteroG`
  facade and the resilience replanner use), anything else an
  in-process ``ThreadBackend(workers)``.  Passing a
  :class:`~repro.service.backends.fleet.ProcessFleetBackend` instance
  serves on persistent worker *processes* with heartbeat failure
  detection and re-dispatch.

Telemetry (when a session is active): ``service_queue_depth`` gauge,
``service_wait_seconds`` / ``service_latency_seconds`` histograms, the
``service_requests_total`` / ``service_coalesced_total`` /
``service_rejected_total`` / ``service_timeouts_total`` counters, which
like :class:`ServiceStats` are a fold over the journal events, and the
``plan_cache_{hits,misses}_total{kind="service"}`` result-cache counters.
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import telemetry
from ..errors import (
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from ..plan import PlanCache
from ..telemetry.context import request_scope
from ..telemetry.flight import FlightRecorder, default_recorder
from ..telemetry.slo import SLOTracker, priority_class
from ..telemetry.tally import EventTally, Fact
from .backends.base import ExecutionBackend
from .backends.inline import InlineBackend
from .backends.thread import ThreadBackend
from .context import PlanContext, lru_context
from .request import PlanRequest, PlanResult

DEFAULT_WORKERS = 2
DEFAULT_MAX_QUEUE = 64
MAX_CONTEXTS = 16                # warm PlanContexts kept (LRU)
RESULT_CACHE_SIZE = 256          # completed results kept (LRU)


class PlanTicket:
    """Future-like handle for one admitted (or coalesced) request."""

    def __init__(self, request: PlanRequest, fingerprint: str, seq: int = 0):
        self.request = request
        self.fingerprint = fingerprint
        self.seq = seq
        self.waiters = 1
        self.submitted_at = time.perf_counter()
        self.deadline = (self.submitted_at + request.timeout
                         if request.timeout is not None else None)
        self._event = threading.Event()
        self._result: Optional[PlanResult] = None
        self._error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    def _resolve(self, result: Optional[PlanResult],
                 error: Optional[BaseException] = None) -> None:
        self._result = result
        self._error = error
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> PlanResult:
        """Block until the request resolves; raise its structured error.

        Raises :class:`~repro.errors.ServiceTimeoutError` when the wait
        exceeds ``timeout`` — the computation itself keeps running and
        later duplicates may still coalesce onto it.
        """
        if not self._event.wait(timeout):
            raise ServiceTimeoutError(timeout or 0.0, stage="wait",
                                      fingerprint=self.fingerprint)
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


class ServiceStats(EventTally):
    """Always-on service accounting: the ``FIELDS`` fold over the
    service's journal events, and the result-cache and warm-context
    figures read from the cache and the context LRU.

    ``executed`` counts the requests actually evaluated: the
    ``context_warm``/``context_cold`` event that starts serving one
    in-process, or a job's first ``dispatched`` to a fleet worker
    (re-dispatches do not re-count)."""

    FIELDS = ("submitted", "executed", "coalesced", "rejected",
              "timeouts", "completed", "failed")
    KEYS = ("submitted", "executed", "coalesced", "result_hits",
            "result_misses", "rejected", "timeouts", "completed",
            "failed", "contexts_warm")
    HELP = "planning-service request accounting"

    def __init__(self, results: PlanCache,
                 contexts: "OrderedDict[str, PlanContext]"):
        super().__init__()
        self._results = results
        self._contexts = contexts

    @staticmethod
    def facts(event: str, attrs: Mapping[str, Any]) -> Sequence[Fact]:
        if event == "request_accepted":
            return (("submitted", None, None),)
        if event in ("context_warm", "context_cold") or (
                event == "dispatched" and attrs["attempt"] == 1):
            return (("executed", None, None),)
        if event == "coalesced":
            return (("coalesced", "service_coalesced_total", None),)
        if event == "rejected":
            return (("rejected", "service_rejected_total", None),)
        if event == "timeout":
            timeout = ("timeouts", "service_timeouts_total",
                       {"stage": attrs["stage"]})
            if attrs["stage"] == "wait":   # the request itself runs on
                return (timeout,)
            return (timeout, ("failed", "service_requests_total",
                              {"status": "failed"}))
        if event in ("completed", "failed") and not attrs.get("from_cache"):
            return ((event, "service_requests_total", {"status": event}),)
        return ()

    @property
    def result_hits(self) -> int:
        return self._results.hits

    @property
    def result_misses(self) -> int:
        return self._results.misses

    @property
    def contexts_warm(self) -> int:
        return len(self._contexts)


class PlanningService:
    """In-process plan-serving layer with coalescing and admission control."""

    def __init__(self, *, workers: int = DEFAULT_WORKERS,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 name: str = "planning",
                 recorder: Optional[FlightRecorder] = None,
                 backend: Optional[ExecutionBackend] = None):
        """``backend`` says where admitted requests run; ``None`` is
        inline for ``workers=0`` and a ``ThreadBackend(workers)``
        otherwise.  ``workers`` is only read when ``backend`` is None."""
        if workers < 0:
            raise ReproError(f"workers must be >= 0, got {workers}")
        if max_queue < 1:
            raise ReproError(f"max_queue must be >= 1, got {max_queue}")
        if backend is None:
            backend = InlineBackend() if workers == 0 \
                else ThreadBackend(workers)
        elif not isinstance(backend, ExecutionBackend):
            raise ReproError(
                f"backend must be an ExecutionBackend or None, got "
                f"{type(backend).__name__}")
        self.max_queue = max_queue
        self.name = name
        self.recorder = recorder if recorder is not None \
            else default_recorder()
        self.slo = SLOTracker()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._queue: List[Tuple[int, int, str]] = []  # (-priority, seq, fp)
        self._tickets: Dict[str, PlanTicket] = {}     # in-flight by fp
        self._results = PlanCache(RESULT_CACHE_SIZE, kind="service")
        self._contexts: "OrderedDict[str, PlanContext]" = OrderedDict()
        self.stats = ServiceStats(self._results, self._contexts)
        self._seq = 0
        self._closed = False
        self._backend = backend
        self._backend.bind(self)

    # ------------------------------------------------------------------ #
    def __enter__(self) -> "PlanningService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def snapshot(self) -> Dict[str, object]:
        """One-shot live status: stats, queue, inflight, caches, SLOs.

        This is what ``repro status`` renders and what ``repro serve
        --status-out`` saves; everything in it is always-on accounting
        (no telemetry session required).
        """
        now = time.perf_counter()
        with self._lock:
            inflight = [{
                "request_id": t.request.request_id,
                "label": t.request.label,
                "priority": t.request.priority,
                "age_seconds": now - t.submitted_at,
            } for t in self._tickets.values()]
            depth = len(self._queue)
        return {
            "service": self.name,
            "stats": self.stats.snapshot(),
            "backend": self._backend.snapshot(),
            "queue": {"depth": depth, "capacity": self.max_queue},
            "inflight": inflight,
            "contexts": {"warm": self.stats.contexts_warm,
                         "capacity": MAX_CONTEXTS},
            "result_cache": {
                "hits": self._results.hits,
                "misses": self._results.misses,
                "hit_rate": self._results.hit_rate,
                "size": len(self._results),
                "capacity": self._results.maxsize,
            },
            "slo": self.slo.snapshot(),
        }

    # ------------------------------------------------------------------ #
    def submit(self, request: PlanRequest) -> PlanTicket:
        """Admit one request; returns immediately with a ticket.

        Raises :class:`ServiceOverloadedError` when the queue is full
        and :class:`ServiceClosedError` after :meth:`close`.
        """
        if not isinstance(request, PlanRequest):
            raise ReproError(
                f"submit() takes a PlanRequest, got "
                f"{type(request).__name__}")
        fp = request.fingerprint
        rid = request.request_id
        submitted = time.perf_counter()
        inline: Optional[PlanTicket] = None
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    f"planning service {self.name!r} is closed")
            self._journal(
                rid, "request_accepted", graph=request.graph.name,
                label=request.label, priority=request.priority,
                queue_depth=len(self._queue),
                parent_id=request.parent_id, fingerprint=fp)
            cached = self._results.get(fp)
            if cached is not None:
                ticket = PlanTicket(request, fp)
                ticket._resolve(dataclasses.replace(
                    cached, from_cache=True, request_id=rid))
                seconds = time.perf_counter() - submitted
                self._journal(rid, "cache_hit")
                self._journal(
                    rid, "completed", seconds=seconds,
                    slo_class=priority_class(request.priority),
                    from_cache=True, queue_seconds=0.0,
                    service_seconds=seconds)
                return ticket
            existing = self._tickets.get(fp)
            if existing is not None:
                existing.waiters += 1
                self._journal(rid, "coalesced",
                              primary=existing.request.request_id)
                return existing
            if self._backend.inline:
                if len(self._tickets) >= self.max_queue:
                    # inline mode has no queue, but the same admission
                    # bound applies to concurrent inline submissions
                    self._reject(request, len(self._tickets))
                inline = PlanTicket(request, fp)
                self._tickets[fp] = inline
            else:
                if len(self._queue) >= self.max_queue:
                    self._reject(request, len(self._queue))
                self._seq += 1
                ticket = PlanTicket(request, fp, seq=self._seq)
                self._tickets[fp] = ticket
                heapq.heappush(self._queue,
                               (-request.priority, ticket.seq, fp))
                self._gauge("service_queue_depth", len(self._queue))
                self._backend.ensure_started()
                self._not_empty.notify()
        if inline is None:
            self._backend.wake()
            return ticket
        # inline backend: execute synchronously on the caller's thread
        self._backend.run_inline(inline)
        return inline

    def _reject(self, request: PlanRequest, depth: int) -> None:
        """Caller holds the lock: journal one rejection and raise it."""
        rid = request.request_id
        self._journal(rid, "rejected", queue_depth=depth,
                      limit=self.max_queue)
        error = ServiceOverloadedError(depth, self.max_queue)
        error.request_id = rid
        raise error

    def plan(self, request: PlanRequest) -> PlanResult:
        """Submit and wait: the blocking convenience entrypoint."""
        ticket = self.submit(request)
        try:
            return ticket.result(request.timeout)
        except ServiceTimeoutError as exc:
            if exc.stage == "wait":
                rid = request.request_id
                exc.request_id = rid
                self._journal(
                    rid, "timeout", stage="wait",
                    seconds=time.perf_counter() - ticket.submitted_at,
                    slo_class=priority_class(request.priority))
            raise

    def close(self) -> None:
        """Stop accepting work; fail queued requests; stop the backend.

        Idempotent across all backends: a second (or concurrent)
        ``close()`` is a no-op.  Backends bound their own shutdown
        waits and surface a stuck worker (``worker_join_timeout``
        journal event + ``RuntimeWarning``) instead of hanging forever.
        """
        with self._not_empty:
            if self._closed:
                return
            self._closed = True
            pending = []
            for _, _, fp in self._queue:
                ticket = self._tickets.pop(fp, None)
                if ticket is not None:
                    pending.append(ticket)
            self._queue.clear()
            self._gauge("service_queue_depth", 0)
            self._not_empty.notify_all()
        for ticket in pending:
            # through _finish, like every other terminal path: the
            # request seals as failed in the journal, stats and SLO
            self._finish(ticket, error=ServiceClosedError(
                f"planning service {self.name!r} closed before serving "
                f"request {ticket.fingerprint[:12]}"),
                queue_seconds=time.perf_counter() - ticket.submitted_at)
        self._backend.close()

    # ------------------------------------------------------------------ #
    def context_for(self, request: PlanRequest) -> PlanContext:
        """The (possibly warmed) context a request would be served on;
        a silent lookup that journals nothing."""
        with self._lock:
            return lru_context(self._contexts, request, MAX_CONTEXTS)[0]

    # ------------------------------------------------------------------ #
    def _pop_ticket(self) -> Optional[PlanTicket]:
        """Pop the highest-priority queued ticket, None when the queue
        is empty (caller holds the lock): every backend's dequeue."""
        if not self._queue:
            return None
        _, _, fp = heapq.heappop(self._queue)
        self._gauge("service_queue_depth", len(self._queue))
        return self._tickets.get(fp)

    def _start_ticket(self, ticket: PlanTicket) -> Optional[float]:
        """Start serving a dequeued ticket: observe its queue wait and
        return it, or fail the ticket without evaluating it (and return
        None) when its deadline lapsed while it was queued."""
        queue_seconds = time.perf_counter() - ticket.submitted_at
        self._observe("service_wait_seconds", queue_seconds)
        if ticket.deadline is None \
                or time.perf_counter() <= ticket.deadline:
            return queue_seconds
        self._finish(ticket, error=ServiceTimeoutError(
            ticket.request.timeout or 0.0, stage="queue",
            fingerprint=ticket.fingerprint),
            queue_seconds=queue_seconds)
        return None

    def _run_ticket(self, ticket: PlanTicket) -> None:
        queue_seconds = self._start_ticket(ticket)
        if queue_seconds is None:
            return
        with request_scope(ticket.request.request_id, self.recorder):
            try:
                result = self._serve(ticket.request, queue_seconds)
            except ReproError as exc:
                self._finish(ticket, error=exc,
                             queue_seconds=queue_seconds)
                return
            except (ValueError, KeyError, TypeError) as exc:
                # stray errors from graph/cluster plumbing get structured
                self._finish(ticket, error=ServiceError(
                    f"planning failed for "
                    f"{ticket.request.graph.name!r}: {exc}"),
                    queue_seconds=queue_seconds)
                return
            self._finish(ticket, result=result,
                         queue_seconds=queue_seconds)

    def _serve(self, request: PlanRequest,
               queue_seconds: float) -> PlanResult:
        start = time.perf_counter()
        with self._lock:
            ctx, warm = lru_context(self._contexts, request,
                                    MAX_CONTEXTS)
        self._journal(request.request_id,
                      "context_warm" if warm else "context_cold",
                      context=request.context_key[:12])
        with telemetry.span("service.request", graph=request.graph.name,
                            kind="search" if request.is_search else "build",
                            label=request.label):
            with ctx.lock:
                result = ctx.handle(request)
        result.queue_seconds = queue_seconds
        result.service_seconds = time.perf_counter() - start
        return result

    def _finish(self, ticket: PlanTicket, *, queue_seconds: float,
                result: Optional[PlanResult] = None,
                error: Optional[BaseException] = None) -> None:
        with self._lock:
            self._tickets.pop(ticket.fingerprint, None)
            if result is not None:
                result.coalesced = ticket.waiters - 1
                # only successes are cached: a timeout or failure never
                # poisons the result cache
                self._results.put(ticket.fingerprint, result)
        seconds = time.perf_counter() - ticket.submitted_at
        self._observe("service_latency_seconds", seconds)
        rid = ticket.request.request_id
        slo_class = priority_class(ticket.request.priority)
        if result is not None:
            # a fleet worker's own events never reach this journal, so
            # the winner's blame and episode ride on the result
            extra: Dict[str, object] = {}
            blame = self._blame(result)
            if blame:
                extra["blame"] = blame
            if result.winner_episode is not None:
                extra["winner_episode"] = result.winner_episode
            self._journal(
                rid, "completed", seconds=seconds, slo_class=slo_class,
                queue_seconds=result.queue_seconds,
                service_seconds=result.service_seconds,
                coalesced=result.coalesced, **extra)
        else:
            if getattr(error, "request_id", None) is None:
                error.request_id = rid
            if isinstance(error, ServiceTimeoutError):
                self._journal(rid, "timeout", stage=error.stage,
                              seconds=seconds, slo_class=slo_class,
                              queue_seconds=queue_seconds)
            else:
                self._journal(
                    rid, "failed", error=type(error).__name__,
                    message=str(error)[:200], seconds=seconds,
                    slo_class=slo_class, queue_seconds=queue_seconds)
        ticket._resolve(result, error)

    def _journal(self, rid: str, event: str, **attrs: object) -> None:
        """Journal one service event: the one record of a service fact.

        The stats and their session counters fold over every event;
        the event that seals the request's flight record is also its
        one SLO observation.
        """
        sealed = self.recorder.emit(rid, event, **attrs)
        self.stats.account(event, attrs)
        if sealed:
            self.slo.account(event, attrs)

    @staticmethod
    def _blame(result: PlanResult) -> Optional[Dict[str, float]]:
        """Critical-path blame fractions of the winner's simulated run,
        walked once per plan (:attr:`ExecutionPlan.blame_fractions`)."""
        deployment = result.deployment
        if deployment is None or deployment.blame_fractions is None:
            return None
        return dict(deployment.blame_fractions)

    # ------------------------------------------------------------------ #
    # thin delegates to the shared ambient-session helpers
    def _gauge(self, metric: str, value: float) -> None:
        telemetry.emit_gauge(
            metric, value, help="planning-service queue depth")

    def _observe(self, metric: str, value: float) -> None:
        telemetry.emit_observe(
            metric, value, help="planning-service latency breakdown")
