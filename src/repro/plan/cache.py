"""Fingerprint-keyed LRU cache for plans and evaluation outcomes."""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional

from .. import telemetry


class PlanCache:
    """A small thread-unaware LRU keyed by content fingerprints.

    Used by :class:`~repro.plan.builder.PlanBuilder` both for
    :class:`~repro.plan.plan.ExecutionPlan` objects and for
    :class:`~repro.plan.plan.EvalOutcome` objects (infeasible and OOM
    outcomes included — a strategy that failed once is never recompiled).
    Hit/miss counts are exported as the ``plan_cache_hits_total`` /
    ``plan_cache_misses_total`` telemetry counters, labelled by the kind
    of artifact cached.
    """

    def __init__(self, maxsize: int = 256, *, kind: str = "plan"):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.kind = kind
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: Hashable) -> Optional[Any]:
        """Look up ``key``; counts a hit/miss and refreshes recency."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            self._count("plan_cache_misses_total")
            return None
        self._data.move_to_end(key)
        self.hits += 1
        self._count("plan_cache_hits_total")
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()

    def _count(self, name: str) -> None:
        telemetry.emit_count(name, labels={"kind": self.kind},
                             help="plan-layer cache lookups by outcome")
