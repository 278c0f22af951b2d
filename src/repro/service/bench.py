"""Service workload helpers: the ``repro serve`` demo and the
coalescing throughput benchmark behind ``repro bench-service`` and
``benchmarks/test_service_throughput.py``.

The benchmark proves the service's core claim: under concurrent
duplicate load, exactly one evaluation runs per unique plan fingerprint
(the rest coalesce or hit the result cache), the results are
bit-identical to naive serial replanning, and throughput is at least as
good as the serial baseline.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..config import HeteroGConfig
from ..errors import ReproError
from ..graph.dag import ComputationGraph
from .request import PlanRequest, PlanResult
from .service import PlanningService


@dataclass
class WorkloadOutcome:
    """One request's fate in a served workload."""

    label: str
    status: str                      # "ok" | error class name
    seconds: float
    detail: str = ""
    result: Optional[PlanResult] = None


@dataclass
class WorkloadReport:
    """What ``run_workload`` hands back to the CLI."""

    outcomes: List[WorkloadOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    stats: Dict[str, int] = field(default_factory=dict)
    snapshot: Dict = field(default_factory=dict)  # full service.snapshot()

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")


def run_workload(service: PlanningService,
                 requests: Sequence[PlanRequest]) -> WorkloadReport:
    """Serve a batch of requests concurrently and collect per-request
    outcomes (structured errors included — overload and timeouts are
    outcomes here, not crashes)."""
    report = WorkloadReport()
    outcomes: List[Optional[WorkloadOutcome]] = [None] * len(requests)
    lock = threading.Lock()

    def client(i: int, request: PlanRequest) -> None:
        label = request.label or f"req{i}"
        start = time.perf_counter()
        try:
            result = service.plan(request)
            outcome = WorkloadOutcome(
                label=label, status="ok",
                seconds=time.perf_counter() - start,
                detail=f"{result.time:.4f} s/iter"
                + (" (cached)" if result.from_cache else ""),
                result=result,
            )
        except ReproError as exc:
            outcome = WorkloadOutcome(
                label=label, status=type(exc).__name__,
                seconds=time.perf_counter() - start, detail=str(exc),
            )
        with lock:
            outcomes[i] = outcome

    start = time.perf_counter()
    threads = [threading.Thread(target=client, args=(i, r), daemon=True)
               for i, r in enumerate(requests)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.wall_seconds = time.perf_counter() - start
    report.outcomes = [o for o in outcomes if o is not None]
    report.stats = service.stats.snapshot()
    report.snapshot = service.snapshot()
    return report


def _strategy_key(result: PlanResult) -> Dict[str, str]:
    return {name: st.label() for name, st in result.strategy.items()}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    if not values:
        raise ReproError("percentile of an empty sample")
    ranked = sorted(values)
    rank = max(0, min(len(ranked) - 1,
                      int(round(q / 100.0 * (len(ranked) - 1)))))
    return ranked[rank]


def bench_coalescing(graph: ComputationGraph, cluster, *,
                     duplicates: int = 6, episodes: int = 4,
                     workers: int = 2, seed: int = 0,
                     config: Optional[HeteroGConfig] = None,
                     backend: str = "auto",
                     backend_options: Optional[Dict] = None) -> Dict:
    """Coalesced concurrent serving vs naive serial replanning.

    Serial baseline: each duplicate request re-plans from scratch on a
    fresh service (what the three pre-service call paths effectively
    did).  Concurrent: all duplicates hit one service at once and
    coalesce onto a single evaluation.  Returns the numbers dict the
    benchmark asserts on and ``repro bench-service`` prints, including
    the sustained-throughput numbers (requests/sec, p50/p99 latency)
    the committed regression baseline
    (``benchmarks/results/BENCH_service_throughput.json``) gates on.

    ``backend`` selects the execution backend for the concurrent
    service (``auto``/``inline``/``thread``/``fleet``); the serial
    baseline always runs inline.
    """
    config = config or HeteroGConfig(seed=seed)

    def request() -> PlanRequest:
        return PlanRequest(graph=graph, cluster=cluster, episodes=episodes,
                           config=config, label="bench")

    # naive serial replanning: a cold service (cold contexts, cold
    # caches) per request
    serial_results: List[PlanResult] = []
    start = time.perf_counter()
    for _ in range(duplicates):
        with PlanningService(workers=0, name="serial") as cold:
            serial_results.append(cold.plan(request()))
    serial_s = time.perf_counter() - start

    # coalesced concurrent serving: one warm service, all at once
    registry = telemetry.MetricsRegistry()
    with telemetry.session(registry=registry):
        with PlanningService(workers=workers, name="bench",
                             backend=backend,
                             backend_options=backend_options) as service:
            report = run_workload(service,
                                  [request() for _ in range(duplicates)])
    coalesced_metric = registry.get("service_coalesced_total")

    concurrent_results = [o.result for o in report.outcomes
                          if o.result is not None]
    if len(concurrent_results) != duplicates:
        raise ReproError(
            f"bench workload lost requests: {len(concurrent_results)} of "
            f"{duplicates} completed")
    baseline = _strategy_key(serial_results[0])
    divergent = sum(
        1 for r in serial_results + concurrent_results
        if _strategy_key(r) != baseline
    )
    makespans = {round(r.outcome.time, 12)
                 for r in serial_results + concurrent_results}

    concurrent_s = report.wall_seconds
    latencies = [o.seconds for o in report.outcomes]
    return {
        "model": graph.name,
        "cluster": str(cluster),
        "duplicates": duplicates,
        "episodes": episodes,
        "workers": workers,
        "backend": backend,
        "prune": config.agent.prune,
        "serial_seconds": round(serial_s, 3),
        "concurrent_seconds": round(concurrent_s, 3),
        "speedup": round(serial_s / concurrent_s, 2)
        if concurrent_s > 0 else float("inf"),
        "serial_requests_per_sec": round(duplicates / serial_s, 3)
        if serial_s > 0 else float("inf"),
        "concurrent_requests_per_sec": round(duplicates / concurrent_s, 3)
        if concurrent_s > 0 else float("inf"),
        "latency_p50_ms": round(percentile(latencies, 50) * 1e3, 3),
        "latency_p99_ms": round(percentile(latencies, 99) * 1e3, 3),
        "evaluations_executed": report.stats["executed"],
        "coalesced": report.stats["coalesced"],
        "result_cache_hits": report.stats["result_hits"],
        "coalesced_metric": coalesced_metric.value
        if coalesced_metric is not None else 0.0,
        "divergent_results": divergent,
        "distinct_makespans": len(makespans),
    }
