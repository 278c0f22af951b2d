"""In-process thread-pool execution (the default backend).

Exactly the pre-refactor ``PlanningService`` worker loop, moved behind
the :class:`~repro.service.backends.base.ExecutionBackend` seam: lazy
daemon threads block on the service's condition variable, pop tickets
in (priority, arrival) order and run them through
``service._run_ticket``.  Results are bit-identical to the historical
in-service threads because this *is* that code.

``close()`` joins each worker with a bounded timeout; a thread that
fails to exit in time is surfaced (``worker_join_timeout`` journal
event + ``RuntimeWarning``) instead of being silently abandoned, and a
second ``close()`` is a no-op.
"""

from __future__ import annotations

import threading
import warnings
from typing import List

from ...errors import ReproError
from .base import ExecutionBackend

DEFAULT_JOIN_TIMEOUT = 60.0


class ThreadBackend(ExecutionBackend):
    name = "thread"

    def __init__(self, workers: int = 2, *,
                 join_timeout: float = DEFAULT_JOIN_TIMEOUT):
        super().__init__()
        if workers < 1:
            raise ReproError(
                f"thread backend needs workers >= 1, got {workers}")
        if join_timeout <= 0:
            raise ReproError(
                f"join_timeout must be positive, got {join_timeout}")
        self.workers = workers
        self.join_timeout = join_timeout
        self._threads: List[threading.Thread] = []
        self.stalled_joins = 0

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
            thread.join(timeout=self.join_timeout)
            if thread.is_alive():
                # a worker is stuck mid-request: say so loudly instead
                # of leaving a live thread behind with no signal
                self.stalled_joins += 1
                self.service.recorder.emit(
                    f"{self.service.name}-backend", "worker_join_timeout",
                    worker=thread.name, timeout=self.join_timeout)
                warnings.warn(
                    f"planning service {self.service.name!r}: worker "
                    f"thread {thread.name} did not exit within "
                    f"{self.join_timeout:.1f}s of close(); it remains "
                    f"alive (daemon) and will be abandoned",
                    RuntimeWarning, stacklevel=3)
        self._threads.clear()

    def snapshot(self):
        return {
            "name": self.name,
            "workers": self.workers,
            "threads_alive": sum(1 for t in self._threads if t.is_alive()),
            "stalled_joins": self.stalled_joins,
            "closed": self._closed,
        }
