"""Planning-service throughput: coalesced concurrent serving vs naive
serial replanning.

Before the service layer, every caller that wanted a plan for the same
(graph, cluster, config) re-ran the whole profile -> group -> search ->
schedule pipeline from scratch.  The service coalesces concurrent
duplicates onto one evaluation and serves late duplicates from its
result cache, so a burst of identical requests costs one search.

Correctness gates (also exercised by the CI ``--quick`` smoke step):

- exactly **one** evaluation runs per unique request fingerprint;
  every other duplicate coalesces or hits the result cache, and the
  ``service_coalesced_total`` metric agrees with the stats counters;
- the coalesced results are **bit-identical** to naive serial
  replanning (same strategy labels, one distinct makespan);
- concurrent request throughput is at least the serial baseline's
  (in practice ~``duplicates``x, since N requests share one search);
- the machine-relative speedup (serial vs concurrent on the *same*
  box, so portable) must not regress by more than 25% against the
  committed baseline for the active mode
  (``results/BENCH_service_throughput.json``), which also records the
  sustained requests/sec and p50/p99 latency.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence

import pytest

from repro import telemetry
from repro.agent import AgentConfig
from repro.cli import run_workload
from repro.cluster import cluster_4gpu, cluster_8gpu
from repro.config import HeteroGConfig
from repro.errors import ReproError
from repro.graph.dag import ComputationGraph
from repro.graph.models import build_model
from repro.service import PlanningService, PlanRequest, PlanResult

#: measured speedup may drop to this fraction of the committed baseline
#: speedup before the benchmark fails (machine-relative, so portable)
REGRESSION_TOLERANCE = 0.75

RESULT_NAME = "BENCH_service_throughput.json"


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
                     config: Optional[HeteroGConfig] = None) -> Dict:
    """Coalesced concurrent serving vs naive serial replanning.

    Serial baseline: each duplicate request re-plans from scratch on a
    fresh service (what the three pre-service call paths effectively
    did).  Concurrent: all duplicates hit one service at once and
    coalesce onto a single evaluation.  Returns the numbers dict the
    benchmark asserts on, including
    the sustained-throughput numbers (requests/sec, p50/p99 latency)
    the committed regression baseline
    (``benchmarks/results/BENCH_service_throughput.json``) gates on.
    The concurrent service takes ``workers`` as ``PlanningService``
    does; the serial baseline runs inline.
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
        with PlanningService(workers=workers, name="bench") as service:
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
        "backend": report.snapshot["backend"]["name"],
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


@pytest.fixture(scope="module")
def setup(request):
    quick = request.config.getoption("--quick")
    if quick:
        cluster = cluster_4gpu()
        graph = build_model("vgg19", "tiny")
        duplicates, episodes = 4, 2
        config = HeteroGConfig(seed=0, agent=AgentConfig(
            max_groups=8, gat_hidden=16, gat_layers=2, gat_heads=2,
            strategy_dim=16, strategy_heads=2, strategy_layers=1))
    else:
        cluster = cluster_8gpu()
        graph = build_model("inception_v3", "bench")
        duplicates, episodes = 6, 4
        config = HeteroGConfig(seed=0)
    return quick, graph, cluster, duplicates, episodes, config


def test_service_throughput(setup, report, results_dir):
    quick, graph, cluster, duplicates, episodes, config = setup
    numbers = bench_coalescing(graph, cluster, duplicates=duplicates,
                               episodes=episodes, workers=2, config=config)

    # one evaluation per unique fingerprint; everything else deduped
    assert numbers["evaluations_executed"] == 1, \
        f"expected 1 evaluation, ran {numbers['evaluations_executed']}"
    assert (numbers["coalesced"] + numbers["result_cache_hits"]
            == duplicates - 1), \
        f"duplicates neither coalesced nor cache-served: {numbers}"
    assert numbers["coalesced_metric"] == numbers["coalesced"], \
        "service_coalesced_total disagrees with ServiceStats"

    # bit-identical to naive serial replanning
    assert numbers["divergent_results"] == 0, \
        f"{numbers['divergent_results']} results diverged from serial"
    assert numbers["distinct_makespans"] == 1, \
        f"expected one makespan, saw {numbers['distinct_makespans']}"

    # coalesced serving must beat (or match) serial replanning
    assert (numbers["concurrent_requests_per_sec"]
            >= numbers["serial_requests_per_sec"]), \
        f"coalesced slower than serial baseline: {numbers}"
    assert numbers["latency_p50_ms"] <= numbers["latency_p99_ms"]

    # regression gate against the committed per-mode baseline
    mode = "quick" if quick else "full"
    committed_path = results_dir / RESULT_NAME
    baseline_speedup = None
    committed = {}
    if committed_path.exists():
        committed = json.loads(committed_path.read_text())
        baseline_speedup = committed.get(mode, {}).get("speedup")
    if baseline_speedup is not None:
        floor = baseline_speedup * REGRESSION_TOLERANCE
        assert numbers["speedup"] >= floor, (
            f"service throughput regressed: {numbers['speedup']:.2f}x "
            f"vs committed {baseline_speedup:.2f}x (floor {floor:.2f}x)"
        )

    if not quick:
        # refresh the full section; leave the quick baseline intact
        committed["full"] = numbers
        committed_path.write_text(json.dumps(committed, indent=2) + "\n")

    body = "\n".join(f"{k:28s}: {v}" for k, v in numbers.items())
    report(f"Planning-service throughput ({mode}) — coalesced vs serial",
           body)
