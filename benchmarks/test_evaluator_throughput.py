"""Strategy-evaluator throughput: cold vs cached.

Strategy search is bounded by how many candidate deployments the
evaluator can score per second.  This benchmark measures the plan
layer's two paths on one candidate pool:

- **cold**   — fresh PlanBuilder, every candidate compiled, scheduled
  and simulated from scratch;
- **cached** — the same candidates again on the warm builder (pure
  fingerprint lookups).

Correctness gates (also exercised by the CI ``--quick`` smoke step):
the cached pass must actually hit the cache and cached throughput must
be at least 5x cold throughput.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import List

import pytest

from repro.cluster import cluster_4gpu, cluster_8gpu
from repro.graph.models import build_model
from repro.parallel.strategy import (
    CommMethod,
    ReplicaAllocation,
    Strategy,
    make_dp_strategy,
    make_mp_strategy,
)
from repro.plan import PlanBuilder
from repro.profiling import Profiler


def candidate_pool(graph, cluster, n: int, seed: int = 0) -> List[Strategy]:
    """n distinct random strategies over the paper's M+4 action space."""
    rng = random.Random(seed)
    options = [make_mp_strategy(d) for d in cluster.device_ids]
    for alloc in (ReplicaAllocation.EVEN, ReplicaAllocation.PROPORTIONAL):
        for comm in (CommMethod.PS, CommMethod.ALLREDUCE):
            options.append(make_dp_strategy(cluster, alloc, comm))
    return [
        Strategy(graph, cluster,
                 {name: rng.choice(options) for name in graph.op_names})
        for _ in range(n)
    ]


def evals_per_sec(n: int, seconds: float) -> float:
    return n / seconds if seconds > 0 else float("inf")


@pytest.fixture(scope="module")
def setup(request):
    quick = request.config.getoption("--quick")
    if quick:
        cluster = cluster_4gpu()
        graph = build_model("vgg19", "tiny")
        n = 16
    else:
        cluster = cluster_8gpu()
        graph = build_model("inception_v3", "bench")
        n = 64
    profile = Profiler(seed=0).profile(graph, cluster)
    return quick, graph, cluster, profile, n


def test_evaluator_throughput(setup, report, results_dir):
    quick, graph, cluster, profile, n = setup
    candidates = candidate_pool(graph, cluster, n)

    # cold: everything compiled + scheduled + simulated from scratch
    cold_builder = PlanBuilder(graph, cluster, profile)
    start = time.perf_counter()
    cold = [cold_builder.evaluate(s) for s in candidates]
    cold_s = time.perf_counter() - start

    # cached: identical candidates against the warm builder
    start = time.perf_counter()
    cached = [cold_builder.evaluate(s) for s in candidates]
    cached_s = time.perf_counter() - start
    hit_rate = cold_builder.outcome_cache.hit_rate
    assert hit_rate > 0, "second pass never hit the outcome cache"
    assert all(c is f for c, f in zip(cached, cold)), \
        "cached outcomes must be the memoized objects"
    speedup = cold_s / cached_s if cached_s > 0 else float("inf")
    assert speedup >= 5.0, \
        f"cached only {speedup:.1f}x faster than cold (need >= 5x)"

    numbers = {
        "model": graph.name,
        "cluster": str(cluster),
        "candidates": n,
        "cpu_cores": os.cpu_count(),
        "quick": quick,
        "cold_evals_per_sec": round(evals_per_sec(n, cold_s), 2),
        "cached_evals_per_sec": round(evals_per_sec(n, cached_s), 2),
        "cached_speedup_over_cold": round(speedup, 1),
        "outcome_cache_hit_rate": round(hit_rate, 3),
    }
    if not quick:  # the committed trajectory tracks the full-size run
        out = results_dir / "BENCH_evaluator_throughput.json"
        out.write_text(json.dumps(numbers, indent=2) + "\n")

    body = "\n".join(f"{k:28s}: {v}" for k, v in numbers.items())
    report("Evaluator throughput — cold / cached", body)
