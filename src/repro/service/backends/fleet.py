"""Out-of-process planning fleet: persistent workers + manager loop.

:class:`ProcessFleetBackend` runs the planning service's evaluations in
a fleet of persistent worker *processes*.  Each worker keeps warm
:class:`~repro.service.context.PlanContext` sessions (profile + agent +
plan caches) across requests, so repeated traffic for the same (graph,
cluster, config) pays the pipeline cost once per worker, not once per
request — and no request ever shares the caller's GIL.

The architecture mirrors optuna-distributed's manager/worker split:

- **typed messages** — every frame on the ``multiprocessing`` queues
  is one of the message dataclasses of :mod:`repro.service.messages`;
- **per-worker channels** — each worker owns a private inbox *and* a
  private outbox queue.  A shared result queue would let a SIGKILLed
  worker die holding the queue's cross-process writer lock, silently
  blocking every surviving worker's heartbeats (the failure mode that
  makes ``concurrent.futures`` declare a whole pool broken).  With one
  writer process per queue an abrupt death can only corrupt its own
  channel; a manager-side daemon reader thread per worker forwards
  frames into one in-process mailbox the event loop drains, so even a
  half-written frame wedges only that worker's reader, never the
  manager or the survivors;
- **manager event loop** — one daemon thread pops admitted tickets from
  the service's priority queue (only when a worker is idle, so
  admission control keeps its meaning), dispatches them, polls worker
  results, and watches health;
- **failure detection** — workers heartbeat from a side thread; a dead
  process or a silent worker (``HEARTBEAT_TIMEOUT``) is declared lost
  (``worker_lost`` journal event), its in-flight request re-dispatched
  to a surviving worker (``request_redispatched``), and a replacement
  spawned.  Results are accepted **only from the worker currently
  assigned** to a job — a slow-but-alive worker that was falsely
  declared lost has its late result discarded
  (``worker_result_discarded``), never double-resolved, so coalesced
  waiters see exactly one result;
- **re-dispatch budget** — a request that loses more than
  ``REDISPATCH_LIMIT`` workers is failed with
  :class:`~repro.errors.WorkerLostError` instead of grinding the fleet
  down worker by worker.

The fleet fans out whole plan requests, never the candidates of one
search: a search evaluates its candidates serially on the worker that
serves it.

``stall_labels`` is the deterministic fault-injection hook the failure
tests use: requests whose label starts with a key sleep that many
seconds on the worker *after* announcing they started serving, which
gives tests a guaranteed mid-request window to kill the worker in.

The timing and budget values are module constants.  The manager reads
each one in the parent process when it needs it, and passes the
heartbeat period and the warm-context limit to a worker as spawn
arguments, so a test can ``monkeypatch`` them (for a fast failure
detector, say) under any start method.
"""

from __future__ import annotations

import collections
import itertools
import os
import queue as queue_mod
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ... import telemetry
from ...errors import (
    ReproError,
    ServiceClosedError,
    WorkerLostError,
)
from ..messages import (
    CompletedMessage,
    FailedMessage,
    HeartbeatMessage,
    PlanRequestMessage,
    ProgressMessage,
    ShutdownMessage,
    WorkerReadyMessage,
    rebuild_error,
)
from ...telemetry.tally import EventTally, Fact
from .base import ExecutionBackend

HEARTBEAT_INTERVAL = 0.25        # worker heartbeat period (seconds)
HEARTBEAT_TIMEOUT = 3.0          # silence that declares a worker lost
REDISPATCH_LIMIT = 2             # re-dispatches before WorkerLostError
DRAIN_TIMEOUT = 30.0             # close() waits this long for in-flight work
MP_CONTEXT = None                # multiprocessing start method (default)
_TICK = 0.02                      # manager poll granularity (seconds)
_READER_STOP = "__fleet-reader-stop__"   # sentinel frame for reader threads


# --------------------------------------------------------------------- #
# worker process side
def _worker_serve(contexts: "OrderedDict[str, Any]", request,
                  max_contexts: int):
    """Serve one plan request on this worker's warm context LRU.

    The same context -> handle chain as ``PlanningService._serve``,
    minus the manager-side accounting (stats, journal, SLO) which stays
    with the service.
    """
    from ..context import lru_context

    ctx, _ = lru_context(contexts, request, max_contexts)
    start = time.perf_counter()
    with ctx.lock:
        result = ctx.handle(request)
    result.service_seconds = time.perf_counter() - start
    return result


def _fleet_worker_main(worker_id: str, inbox, outbox,
                       heartbeat_interval: float,
                       max_contexts: int) -> None:
    """Entry point of one fleet worker process."""
    # the forked child inherits the parent's ambient telemetry session,
    # a manager-process concern: drop it so worker-side evaluations
    # stay silent
    telemetry._ACTIVE = None

    contexts: "OrderedDict[str, Any]" = OrderedDict()
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                outbox.put(HeartbeatMessage(worker=worker_id))
            except (OSError, ValueError):  # queue gone: manager exited
                return

    beater = threading.Thread(target=_beat, daemon=True,
                              name=f"{worker_id}-heartbeat")
    beater.start()
    outbox.put(WorkerReadyMessage(worker=worker_id, pid=os.getpid()))
    try:
        while True:
            msg = inbox.get()
            if isinstance(msg, ShutdownMessage):
                break
            outbox.put(ProgressMessage(ticket=msg.ticket, worker=worker_id))
            if msg.stall_seconds > 0:
                time.sleep(msg.stall_seconds)
            try:
                result = _worker_serve(contexts, msg.request, max_contexts)
            except (ReproError, ValueError, KeyError, TypeError) as exc:
                outbox.put(FailedMessage(
                    ticket=msg.ticket, worker=worker_id,
                    error_type=type(exc).__name__,
                    message=str(exc)[:500]))
            else:
                outbox.put(CompletedMessage(
                    ticket=msg.ticket, worker=worker_id, result=result))
    finally:
        stop.set()


# --------------------------------------------------------------------- #
# manager side
@dataclass
class _Job:
    """One admitted plan ticket on its way through the fleet."""

    key: str                         # the ticket's fingerprint
    ticket: Any                      # PlanTicket
    queue_seconds: float = 0.0
    attempts: int = 0
    worker: Optional[str] = None     # currently assigned worker id
    lost_on: List[str] = field(default_factory=list)

    @property
    def request_id(self) -> str:
        return self.ticket.request.request_id


@dataclass
class _WorkerHandle:
    """Manager-side view of one worker process."""

    id: str
    process: Any
    inbox: Any
    spawned_at: float
    last_beat: float
    outbox: Any = None               # this worker's private result queue
    reader: Any = None               # manager-side forwarding thread
    pid: int = 0
    job: Optional[_Job] = None
    condemned: bool = False
    reported_misses: int = 0
    served: int = 0

    @property
    def idle(self) -> bool:
        return self.job is None and not self.condemned


class FleetStats(EventTally):
    """Always-on fleet accounting: a fold over the fleet's journal
    events, except ``heartbeats``, which stay hand-counted as they
    arrive: heartbeats are deliberately not journaled (each worker
    beats every ``HEARTBEAT_INTERVAL``, which would swamp the
    journal)."""

    FIELDS = ("spawned", "exited", "lost", "heartbeat_misses",
              "dispatched", "redispatched", "discarded")
    KEYS = ("spawned", "exited", "lost", "heartbeats", "heartbeat_misses",
            "dispatched", "redispatched", "discarded")
    HELP = "planning-fleet accounting"
    _FACTS = {
        "worker_spawn": (("spawned", None, None),),
        "worker_exit": (("exited", None, None),),
        "worker_lost": (("lost", "service_fleet_workers_lost_total", None),),
        "worker_heartbeat_missed": (("heartbeat_misses", None, None),),
        "dispatched": (("dispatched", None, None),),
        "request_redispatched": ((
            "redispatched", "service_fleet_redispatched_total", None),),
        "worker_result_discarded": ((
            "discarded", "service_fleet_results_discarded_total", None),),
    }

    def __init__(self) -> None:
        super().__init__()
        self.heartbeats = 0

    @staticmethod
    def facts(event: str, attrs: Mapping[str, Any]) -> Sequence[Fact]:
        return FleetStats._FACTS.get(event, ())


class ProcessFleetBackend(ExecutionBackend):
    """Manager/worker fleet of persistent planning processes."""

    name = "fleet"

    def __init__(self, workers: int = 2, *,
                 stall_labels: Optional[Dict[str, float]] = None):
        super().__init__()
        if workers < 1:
            raise ReproError(
                f"fleet backend needs workers >= 1, got {workers}")
        self.workers = workers
        self.stall_labels = dict(stall_labels or {})
        self.stats = FleetStats()
        self._manager: Optional[threading.Thread] = None
        self._wake = threading.Event()
        self._closing = threading.Event()
        self._cond = threading.Condition()
        self._fleet: Dict[str, _WorkerHandle] = {}   # manager thread only
        self._jobs: Dict[str, _Job] = {}             # assigned jobs by key
        self._ready: "collections.deque[_Job]" = collections.deque()
        self._serving: Dict[str, str] = {}           # key -> worker (mutex)
        self._inproc: "queue_mod.Queue" = queue_mod.Queue()
        self._mp = None
        self._worker_seq = itertools.count()

    # ------------------------------------------------------------------ #
    # lifecycle
    def ensure_started(self) -> None:
        """Start the manager event loop once (idempotent, cheap)."""
        if self._manager is not None or self._closed:
            return
        import multiprocessing

        self._mp = multiprocessing.get_context(MP_CONTEXT)
        self._manager = threading.Thread(
            target=self._event_loop, daemon=True,
            name=f"{self.service.name}-fleet-manager")
        self._manager.start()

    def wake(self) -> None:
        self._wake.set()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._closing.set()
        self._wake.set()
        if self._manager is not None:
            self._manager.join(DRAIN_TIMEOUT + 10.0)
            if self._manager.is_alive():
                self.service.recorder.emit(
                    f"{self.service.name}-fleet", "worker_join_timeout",
                    worker="manager", timeout=DRAIN_TIMEOUT)
                warnings.warn(
                    f"fleet manager of service {self.service.name!r} did "
                    f"not drain within {DRAIN_TIMEOUT:.1f}s of "
                    f"close(); worker processes may be leaked",
                    RuntimeWarning, stacklevel=3)

    # ------------------------------------------------------------------ #
    # test / introspection hooks
    def wait_serving(self, key: str, timeout: float = 10.0) -> Optional[str]:
        """Block until a worker reports it started serving ``key``
        (a ticket fingerprint); returns the worker id."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while key not in self._serving:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)
            return self._serving[key]

    def worker_pids(self) -> Dict[str, int]:
        """Live worker pids by id (test hook; racy by nature)."""
        return {w.id: w.pid for w in list(self._fleet.values())
                if w.pid and w.process.is_alive()}

    def snapshot(self) -> Dict[str, object]:
        fleet = list(self._fleet.values())
        return {
            "name": self.name,
            "workers": self.workers,
            "alive": sum(1 for w in fleet if w.process.is_alive()),
            "busy": sum(1 for w in fleet if w.job is not None),
            "condemned": sum(1 for w in fleet if w.condemned),
            "stats": self.stats.snapshot(),
            "closed": self._closed,
        }

    # ------------------------------------------------------------------ #
    # manager event loop
    def _event_loop(self) -> None:
        service = self.service
        try:
            for _ in range(self.workers):
                self._spawn_worker()
            drain_deadline: Optional[float] = None
            while True:
                self._pump_messages()
                self._check_health()
                self._assign_work()
                if self._closing.is_set():
                    if drain_deadline is None:
                        drain_deadline = time.monotonic() + DRAIN_TIMEOUT
                        self._fail_undispatched(ServiceClosedError(
                            f"planning service {service.name!r} closed "
                            f"before serving this request"))
                    if not self._jobs:
                        break
                    if time.monotonic() > drain_deadline:
                        for job in list(self._jobs.values()):
                            self._resolve_error(job, ServiceClosedError(
                                "fleet drain timed out with the request "
                                "still in flight"))
                        break
        finally:
            self._shutdown_workers()

    def _read_worker(self, outbox) -> None:
        """Forward one worker's frames into the in-process mailbox.

        One daemon thread per worker: each blocking ``get`` touches a
        queue with exactly one writer *process*, so a worker that dies
        mid-write can wedge only this thread (which is then abandoned —
        see :meth:`_release_reader`), never the event loop.
        """
        while True:
            try:
                frame = outbox.get()
            except (EOFError, OSError, ValueError):
                return
            if frame == _READER_STOP:
                return
            self._inproc.put(frame)

    def _pump_messages(self) -> None:
        """Drain the in-process mailbox; the first get is the loop's sleep."""
        block = True
        while True:
            try:
                if block:
                    frame = self._inproc.get(timeout=_TICK)
                    block = False
                else:
                    frame = self._inproc.get_nowait()
            except queue_mod.Empty:
                return
            self._handle_message(frame)

    def _handle_message(self, msg: object) -> None:
        """Act on one worker message; any other frame is dropped."""
        worker = self._fleet.get(getattr(msg, "worker", ""))
        if isinstance(msg, HeartbeatMessage):
            if worker is not None:
                worker.last_beat = time.monotonic()
                worker.reported_misses = 0
                self.stats.heartbeats += 1
            return
        if isinstance(msg, WorkerReadyMessage):
            if worker is not None:
                worker.pid = msg.pid
                worker.last_beat = time.monotonic()
            return
        if isinstance(msg, ProgressMessage):
            with self._cond:
                self._serving[msg.ticket] = msg.worker
                self._cond.notify_all()
            return
        if isinstance(msg, CompletedMessage):
            self._on_job_result(msg.worker, msg.ticket, result=msg.result)
            return
        if isinstance(msg, FailedMessage):
            self._on_job_result(
                msg.worker, msg.ticket,
                error=rebuild_error(msg.error_type, msg.message))
            return

    def _on_job_result(self, worker_id: str, key: str, *,
                       result=None, error=None) -> None:
        """At-most-once resolution: only the assigned worker resolves."""
        job = self._jobs.get(key)
        worker = self._fleet.get(worker_id)
        if job is None or job.worker != worker_id:
            # the job was re-dispatched (or already resolved) after this
            # worker was declared lost: discard the late result
            self._journal(
                job.request_id if job is not None else key,
                "worker_result_discarded", worker=worker_id)
            return
        del self._jobs[key]
        with self._cond:
            self._serving.pop(key, None)
        if worker is not None and worker.job is job:
            worker.job = None
            worker.served += 1
        if error is not None:
            self._resolve_error(job, error)
        else:
            result.queue_seconds = job.queue_seconds
            self.service._finish(job.ticket, result=result,
                                 queue_seconds=job.queue_seconds)
        self._update_gauges()

    def _resolve_error(self, job: _Job, error: BaseException) -> None:
        self._jobs.pop(job.key, None)
        self.service._finish(job.ticket, error=error,
                             queue_seconds=job.queue_seconds)

    # ------------------------------------------------------------------ #
    def _check_health(self) -> None:
        now = time.monotonic()
        for worker in list(self._fleet.values()):
            if worker.condemned:
                if not worker.process.is_alive():
                    self._reap(worker)
                continue
            if not worker.process.is_alive():
                self._on_worker_lost(worker, reason="process_dead")
                continue
            age = now - worker.last_beat
            misses = int(age / HEARTBEAT_INTERVAL) - 1
            if misses > worker.reported_misses and misses >= 1:
                worker.reported_misses = misses
                self._journal(
                    self._worker_rid(worker), "worker_heartbeat_missed",
                    worker=worker.id, misses=misses)
            if age > HEARTBEAT_TIMEOUT:
                self._on_worker_lost(worker, reason="heartbeat_timeout")

    def _on_worker_lost(self, worker: _WorkerHandle, reason: str) -> None:
        worker.condemned = True
        self._journal(
            self._worker_rid(worker), "worker_lost", worker=worker.id,
            reason=reason, alive=worker.process.is_alive(),
            served=worker.served)
        job = worker.job
        worker.job = None
        if job is not None:
            job.lost_on.append(worker.id)
            job.worker = None
            with self._cond:
                self._serving.pop(job.key, None)
            if job.attempts > REDISPATCH_LIMIT:
                self._resolve_error(job, WorkerLostError(
                    f"request lost {job.attempts} worker(s) "
                    f"({', '.join(job.lost_on)}); giving up after "
                    f"{REDISPATCH_LIMIT} re-dispatch(es)",
                    attempts=job.attempts, workers=job.lost_on))
            else:
                self._journal(
                    job.request_id, "request_redispatched",
                    worker=worker.id, attempt=job.attempts)
                self._ready.appendleft(job)
        if not worker.process.is_alive():
            self._reap(worker)
        if not self._closing.is_set():
            self._spawn_worker()
        self._update_gauges()

    def _release_reader(self, worker: _WorkerHandle) -> None:
        """Stop a worker's forwarding thread after a *clean* exit.

        After an abrupt death (SIGKILL) the worker's channel may hold a
        half-written frame or an orphaned writer lock, so even the stop
        sentinel could block — the daemon reader is abandoned instead
        (parked on an empty queue, zero CPU, bounded by lost workers).
        """
        if worker.outbox is None or worker.process.exitcode != 0:
            return
        try:
            worker.outbox.put(_READER_STOP)
        except (OSError, ValueError):
            return
        if worker.reader is not None:
            worker.reader.join(timeout=1.0)

    def _reap(self, worker: _WorkerHandle) -> None:
        self._fleet.pop(worker.id, None)
        worker.process.join(timeout=0.1)
        self._release_reader(worker)
        self._journal(self._worker_rid(worker), "worker_exit",
                      worker=worker.id, served=worker.served)
        telemetry.emit_gauge("service_fleet_worker_up", 0.0,
                             labels={"worker": worker.id},
                             help="1 while a fleet worker is dispatchable")
        self._update_gauges()

    def _spawn_worker(self) -> None:
        # imported here: the service module imports the backends
        from ..service import MAX_CONTEXTS

        wid = f"w{next(self._worker_seq)}"
        inbox = self._mp.Queue()
        outbox = self._mp.Queue()
        process = self._mp.Process(
            target=_fleet_worker_main,
            args=(wid, inbox, outbox, HEARTBEAT_INTERVAL, MAX_CONTEXTS),
            daemon=True, name=f"{self.service.name}-fleet-{wid}")
        process.start()
        now = time.monotonic()
        reader = threading.Thread(
            target=self._read_worker, args=(outbox,), daemon=True,
            name=f"{self.service.name}-fleet-{wid}-reader")
        reader.start()
        worker = _WorkerHandle(id=wid, process=process, inbox=inbox,
                               spawned_at=now, last_beat=now,
                               outbox=outbox, reader=reader)
        self._fleet[wid] = worker
        self._journal(self._worker_rid(worker), "worker_spawn",
                      worker=wid, label=f"fleet:{wid}",
                      pid=process.pid or 0)
        telemetry.emit_gauge("service_fleet_worker_up", 1.0,
                             labels={"worker": wid},
                             help="1 while a fleet worker is dispatchable")
        self._update_gauges()

    def _worker_rid(self, worker: _WorkerHandle) -> str:
        return f"{self.service.name}-fleet-{worker.id}"

    def _journal(self, rid: str, event: str, **attrs: object) -> None:
        """Journal one fleet event; the fleet stats, the service stats
        (a job's first dispatch is its execution) and their session
        counters are a fold over it."""
        self.service.recorder.emit(rid, event, **attrs)
        self.stats.account(event, attrs)
        self.service.stats.account(event, attrs)

    # ------------------------------------------------------------------ #
    def _assign_work(self) -> None:
        self._wake.clear()
        while True:
            worker = next((w for w in self._fleet.values() if w.idle),
                          None)
            if worker is None:
                return
            job = self._next_job()
            if job is None:
                return
            self._dispatch(job, worker)

    def _next_job(self) -> Optional[_Job]:
        while self._ready:
            job = self._ready.popleft()
            if job.ticket.done:
                continue
            return job
        if self._closing.is_set():
            return None
        service = self.service
        while True:
            with service._lock:
                ticket = service._pop_ticket()
            if ticket is None:
                return None
            queue_seconds = service._start_ticket(ticket)
            if queue_seconds is not None:  # else expired: never dispatch
                return _Job(key=ticket.fingerprint, ticket=ticket,
                            queue_seconds=queue_seconds)

    def _dispatch(self, job: _Job, worker: _WorkerHandle) -> None:
        job.attempts += 1
        job.worker = worker.id
        worker.job = job
        self._jobs[job.key] = job
        request = job.ticket.request
        stall = next(
            (s for prefix, s in self.stall_labels.items()
             if request.label.startswith(prefix)), 0.0)
        self._journal(request.request_id, "dispatched", worker=worker.id,
                      attempt=job.attempts)
        msg = PlanRequestMessage(ticket=job.key, request=request,
                                 stall_seconds=stall)
        try:
            worker.inbox.put(msg)
        except (OSError, ValueError):
            self._on_worker_lost(worker, reason="inbox_closed")
            return
        self._update_gauges()

    def _fail_undispatched(self, error: BaseException) -> None:
        while self._ready:
            job = self._ready.popleft()
            if not job.ticket.done:
                self._resolve_error(job, error)

    # ------------------------------------------------------------------ #
    def _shutdown_workers(self) -> None:
        for worker in list(self._fleet.values()):
            try:
                worker.inbox.put(ShutdownMessage())
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 5.0
        for worker in list(self._fleet.values()):
            worker.process.join(
                timeout=max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            self._reap(worker)
        # fail any job the drain loop left in flight
        closed = ServiceClosedError("fleet backend closed")
        self._fail_undispatched(closed)
        for job in list(self._jobs.values()):
            self._resolve_error(job, closed)
        self._update_gauges()

    def _update_gauges(self) -> None:
        fleet = self._fleet.values()
        telemetry.emit_gauge(
            "service_fleet_workers",
            sum(1 for w in fleet if w.process.is_alive()),
            help="live fleet worker processes")
        telemetry.emit_gauge(
            "service_fleet_busy",
            sum(1 for w in fleet if w.job is not None),
            help="fleet workers currently serving a request")
