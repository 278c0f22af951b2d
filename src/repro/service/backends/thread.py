"""In-process thread-pool execution (the default backend).

Exactly the pre-refactor ``PlanningService`` worker loop, moved behind
the :class:`~repro.service.backends.base.ExecutionBackend` seam: lazy
daemon threads block on the service's condition variable, pop tickets
in (priority, arrival) order and run them through
``service._run_ticket``.  Results are bit-identical to the historical
in-service threads because this *is* that code.

``close()`` joins each worker for at most ``JOIN_TIMEOUT`` seconds (a
module constant, read at close time); a thread that fails to exit in
time is surfaced (``worker_join_timeout`` journal event +
``RuntimeWarning``) instead of being silently abandoned, and a second
``close()`` is a no-op.
"""

from __future__ import annotations

import threading
import warnings
from typing import Any, List, Mapping, Sequence

from ...errors import ReproError
from ...telemetry.tally import EventTally, Fact
from .base import ExecutionBackend

JOIN_TIMEOUT = 60.0


class ThreadStats(EventTally):
    """Thread-backend accounting: a fold over its journal events."""

    FIELDS = KEYS = ("stalled_joins",)
    HELP = "thread-backend accounting"

    @staticmethod
    def facts(event: str, attrs: Mapping[str, Any]) -> Sequence[Fact]:
        if event == "worker_join_timeout":
            return (("stalled_joins", None, None),)
        return ()


class ThreadBackend(ExecutionBackend):
    name = "thread"

    def __init__(self, workers: int = 2):
        super().__init__()
        if workers < 1:
            raise ReproError(
                f"thread backend needs workers >= 1, got {workers}")
        self.workers = workers
        self._threads: List[threading.Thread] = []
        self.stats = ThreadStats()

    # ------------------------------------------------------------------ #
    def ensure_started(self) -> None:
        """Spawn worker threads lazily (caller holds the service lock)."""
        while len(self._threads) < self.workers:
            thread = threading.Thread(
                target=self._worker, daemon=True,
                name=f"{self.service.name}-worker-{len(self._threads)}")
            self._threads.append(thread)
            thread.start()

    def _worker(self) -> None:
        service = self.service
        while True:
            with service._not_empty:
                while not service._queue and not service._closed:
                    service._not_empty.wait()
                if service._closed and not service._queue:
                    return
                ticket = service._pop_ticket()
            if ticket is not None:
                service._run_ticket(ticket)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for thread in self._threads:
            thread.join(timeout=JOIN_TIMEOUT)
            if thread.is_alive():
                # a worker is stuck mid-request: say so loudly instead
                # of leaving a live thread behind with no signal
                attrs = dict(worker=thread.name, timeout=JOIN_TIMEOUT)
                self.service.recorder.emit(
                    f"{self.service.name}-backend", "worker_join_timeout",
                    **attrs)
                self.stats.account("worker_join_timeout", attrs)
                warnings.warn(
                    f"planning service {self.service.name!r}: worker "
                    f"thread {thread.name} did not exit within "
                    f"{JOIN_TIMEOUT:.1f}s of close(); it remains "
                    f"alive (daemon) and will be abandoned",
                    RuntimeWarning, stacklevel=3)
        self._threads.clear()

    def snapshot(self):
        return {
            "name": self.name,
            "workers": self.workers,
            "threads_alive": sum(1 for t in self._threads if t.is_alive()),
            "stalled_joins": self.stats.stalled_joins,
            "closed": self._closed,
        }
