"""Execution backends for the planning service.

The :class:`~repro.service.backends.base.ExecutionBackend` seam
separates *what* the planning service does (admission, coalescing,
result caching, accounting) from *where* admitted requests execute:

- :class:`InlineBackend` — the caller's thread (``workers=0``);
- :class:`ThreadBackend` — in-process daemon threads (the default);
- :class:`ProcessFleetBackend` — persistent worker processes with warm
  plan contexts, heartbeat failure detection and re-dispatch.

A caller passes an instance as ``PlanningService(backend=...)``; with
``backend=None`` the service picks inline for ``workers=0`` and a
``ThreadBackend(workers)`` otherwise.
"""

from __future__ import annotations

from .base import ExecutionBackend
from .fleet import ProcessFleetBackend
from .inline import InlineBackend
from .thread import ThreadBackend

__all__ = [
    "ExecutionBackend",
    "InlineBackend",
    "ThreadBackend",
    "ProcessFleetBackend",
]
