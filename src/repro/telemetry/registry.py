"""Metrics registry: counters, gauges, histograms with label support.

Prometheus-flavoured data model (one registry per telemetry session):

- :class:`Counter` — monotonically increasing float;
- :class:`Gauge` — set/inc to any value;
- :class:`Histogram` — bucketed observations with cumulative ``le``
  bucket semantics, plus ``_count`` and ``_sum``.

Metrics are addressed by ``(name, sorted label items)``; repeated calls
to :meth:`MetricsRegistry.counter` & co. with the same address return
the same instance, so instrumented code never has to cache handles.
Export surfaces: :meth:`MetricsRegistry.to_prometheus` (text exposition
format) and :meth:`MetricsRegistry.to_json`.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

# default histogram buckets: exponential, micro-seconds to minutes —
# wide enough for both simulated durations and wall-clock phase timings
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    1e-6 * (4.0 ** i) for i in range(14)
)


def _label_items(labels: Optional[Mapping[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(items: LabelItems) -> str:
    if not items:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + inner + "}"


class Metric:
    """Common bookkeeping for one (name, labels) time series."""

    kind = "untyped"

    def __init__(self, name: str, labels: LabelItems, help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help

    @property
    def label_dict(self) -> Dict[str, str]:
        return dict(self.labels)


class Counter(Metric):
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems, help: str = ""):
        super().__init__(name, labels, help)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge(Metric):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems, help: str = ""):
        super().__init__(name, labels, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram(Metric):
    """Bucketed observations (cumulative ``le`` semantics on export)."""

    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, labels, help)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.bounds: List[float] = bounds
        # per-bucket (non-cumulative) counts; +Inf bucket is the last slot
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else float("nan")

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(le, cumulative count)`` pairs including the +Inf bucket."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out


class MetricsRegistry:
    """Holds every metric of one telemetry session."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelItems], Metric] = {}

    # ------------------------------------------------------------------ #
    def _get(self, cls, name: str, labels: Optional[Mapping[str, str]],
             help: str, **kwargs) -> Metric:
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(name, key[1], help=help, **kwargs)
                    self._metrics[key] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str,
                labels: Optional[Mapping[str, str]] = None,
                help: str = "") -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, str]] = None,
              help: str = "") -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(self, name: str,
                  labels: Optional[Mapping[str, str]] = None,
                  help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(Histogram, name, labels, help, buckets=buckets)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._metrics)

    def metrics(self) -> List[Metric]:
        """All metrics, sorted by (name, labels) for stable export."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def get(self, name: str,
            labels: Optional[Mapping[str, str]] = None) -> Optional[Metric]:
        return self._metrics.get((name, _label_items(labels)))

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------ #
    def to_prometheus(self) -> str:
        """Text exposition format (one ``# TYPE`` line per family)."""
        lines: List[str] = []
        seen_families = set()
        for metric in self.metrics():
            if metric.name not in seen_families:
                seen_families.add(metric.name)
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} {metric.kind}")
            label_str = _format_labels(metric.labels)
            if isinstance(metric, Histogram):
                for bound, cum in metric.cumulative():
                    le = "+Inf" if math.isinf(bound) else repr(bound)
                    items = metric.labels + (("le", le),)
                    lines.append(
                        f"{metric.name}_bucket{_format_labels(items)} {cum}"
                    )
                lines.append(f"{metric.name}_sum{label_str} {metric.sum!r}")
                lines.append(f"{metric.name}_count{label_str} {metric.total}")
            else:
                lines.append(f"{metric.name}{label_str} {metric.value!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> Dict[str, List[dict]]:
        """JSON-serialisable dump of every time series."""
        out: List[dict] = []
        for metric in self.metrics():
            entry: dict = {
                "name": metric.name,
                "type": metric.kind,
                "labels": metric.label_dict,
            }
            if isinstance(metric, Histogram):
                entry.update(
                    count=metric.total,
                    sum=metric.sum,
                    mean=None if metric.total == 0 else metric.mean,
                    min=None if metric.total == 0 else metric.min,
                    max=None if metric.total == 0 else metric.max,
                    buckets=[
                        {"le": ("+Inf" if math.isinf(b) else b), "count": c}
                        for b, c in metric.cumulative()
                    ],
                )
            else:
                entry["value"] = metric.value
            out.append(entry)
        return {"metrics": out}

    def save_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)

    def save_prometheus(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_prometheus())
