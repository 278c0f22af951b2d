"""``repro.service`` — the async plan-serving layer.

One long-lived, in-process :class:`PlanningService` is the front door
to the whole planning pipeline (profile -> search -> compile ->
schedule).  Every consumer — the client API (:func:`repro.api.
get_runner`), the :class:`~repro.heterog.HeteroG` facade, the
multi-job allocator and the resilience replanner — routes typed
:class:`PlanRequest` objects through it, so concurrent and repeated
requests share work instead of re-driving the pipeline through
divergent call paths:

- identical in-flight requests **coalesce** onto one evaluation;
- completed results are served from a fingerprint-keyed cache;
- requests are served on warm per-(graph, cluster, profile)
  :class:`PlanContext` sessions whose plan/outcome caches persist
  across requests;
- a bounded priority queue applies **admission control**: overload
  rejects fast with :class:`~repro.errors.ServiceOverloadedError`,
  expired deadlines fail fast with
  :class:`~repro.errors.ServiceTimeoutError`;
- *where* admitted requests execute is the
  :class:`~repro.service.backends.ExecutionBackend` instance passed as
  ``backend=`` — :class:`InlineBackend` (caller's thread),
  :class:`ThreadBackend` (in-process pool) or
  :class:`ProcessFleetBackend` (persistent worker processes with
  heartbeats and re-dispatch, :mod:`repro.service.backends.fleet`);
  ``backend=None`` is inline for ``workers=0``, else a thread pool.

See ``docs/ARCHITECTURE.md`` ("Planning service" and "Execution
backends") for the request lifecycle and determinism guarantees.
"""

from .backends import (
    ExecutionBackend,
    InlineBackend,
    ProcessFleetBackend,
    ThreadBackend,
)
from .context import PlanContext
from .request import PlanRequest, PlanResult
from .service import PlanningService, PlanTicket, ServiceStats

__all__ = [
    "ExecutionBackend",
    "InlineBackend",
    "PlanContext",
    "PlanRequest",
    "PlanResult",
    "PlanningService",
    "PlanTicket",
    "ProcessFleetBackend",
    "ServiceStats",
    "ThreadBackend",
]
