"""The execution seam of the planning service.

:class:`ExecutionBackend` is the contract between
:class:`~repro.service.PlanningService` (which owns admission,
coalescing, the result cache and all request accounting) and *where
evaluations actually run*:

==================  ==================================================
backend             execution
==================  ==================================================
``InlineBackend``   the caller's thread (``workers=0``; no queue, no
                    concurrency — the deterministic facade mode)
``ThreadBackend``   a pool of daemon threads inside the service
                    process (the pre-refactor default, bit-identical)
``ProcessFleetBackend``  persistent worker *processes* with warm
                    plan contexts, heartbeats and re-dispatch
==================  ==================================================

The service calls, in order: :meth:`bind` once at construction,
:meth:`ensure_started` under the service lock whenever work is queued,
:meth:`wake` after the lock is released, and :meth:`close` (idempotent
— a second call is a no-op) from ``PlanningService.close``.  Backends
pull tickets from the service's priority queue and hand each one back
to ``service._run_ticket`` / ``service._finish``, which is what keeps
results and accounting identical across all three execution modes.
"""

from __future__ import annotations

import abc
from typing import Dict

from ...errors import ReproError


class ExecutionBackend(abc.ABC):
    """Where the planning service's admitted requests execute."""

    #: snapshot name (matches the ``repro serve --backend`` value)
    name = "base"
    #: True when submissions run synchronously on the caller's thread
    inline = False

    def __init__(self) -> None:
        self.service = None
        self._closed = False

    # ------------------------------------------------------------------ #
    def bind(self, service) -> None:
        """Attach to the owning service (exactly once, at construction)."""
        if self.service is not None:
            raise ReproError(
                f"backend {self.name!r} is already bound to service "
                f"{self.service.name!r}")
        self.service = service

    def ensure_started(self) -> None:
        """Lazily start execution resources.  Called with the service
        lock held, after a ticket was queued."""

    def wake(self) -> None:
        """Hint that new work is available (called outside the lock)."""

    def run_inline(self, ticket) -> None:
        """Inline backends only: execute one ticket on this thread."""
        raise ReproError(f"backend {self.name!r} does not run inline")

    @abc.abstractmethod
    def close(self) -> None:
        """Stop executing; release resources.  Must be idempotent."""

    def snapshot(self) -> Dict[str, object]:
        """Always-on live status merged into ``service.snapshot()``."""
        return {"name": self.name}
