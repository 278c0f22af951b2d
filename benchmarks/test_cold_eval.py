"""Cold strategy-evaluation speed: kernel pipeline vs reference pipeline.

The array-lowered simulation kernel plus single-pass scheduling (the
winner of the scheduler's candidate race is reused instead of being
simulated a third time) is the cold-evaluation fast path.  This
benchmark measures it two ways:

- **new**    — ``PlanBuilder.evaluate`` as shipped: one compile, one
  array lowering, two kernel-engine simulations per candidate;
- **legacy** — the pre-kernel pipeline reconstructed in-process: the
  same compile, two candidate simulations on the test oracle's
  reference loop (``tests.oracle.run_reference``), and a third
  reference simulation of the winning order (what ``evaluate`` used to
  run).

Because both sides share the current compile path and its caches, the
in-process ratio *understates* the true pre-PR speedup; the committed
``BENCH_cold_eval.json`` additionally records a worktree measurement
against the actual pre-PR commit (see the ``pre_pr_worktree`` section).

Correctness gate (also the CI ``--quick`` smoke step): the two
pipelines must produce **bit-identical makespans** per candidate, and
the measured ratio must not regress by more than 25% against the
committed baseline ratio for the active mode.

Methodology: ``time.process_time`` (CPU time — the benchmark box is a
single-core container with noisy wall clocks), best-of-N repetitions,
garbage collector paused around the timed regions for both sides.
"""

from __future__ import annotations

import gc
import json
import os
import time

import pytest

from repro.cluster import cluster_4gpu, cluster_8gpu
from repro.graph.models import build_model
from repro.parallel.compiler import GraphCompiler
from repro.plan import PlanBuilder
from repro.profiling import Profiler
from repro.scheduling.list_scheduler import ListScheduler
from repro.simulation import ProfileCostModel
from repro.simulation.kernel import lower

from test_evaluator_throughput import candidate_pool
from tests.oracle import run_reference, trace_order

#: measured ratio may drop to this fraction of the committed baseline
#: ratio before the benchmark fails (machine-relative, so portable)
REGRESSION_TOLERANCE = 0.75

RESULT_NAME = "BENCH_cold_eval.json"


@pytest.fixture(scope="module")
def setup(request):
    quick = request.config.getoption("--quick")
    if quick:
        cluster = cluster_4gpu()
        graph = build_model("vgg19", "tiny")
        n, reps = 8, 2
    else:
        cluster = cluster_8gpu()
        graph = build_model("inception_v3", "bench")
        n, reps = 16, 3
    profile = Profiler(seed=0).profile(graph, cluster)
    return quick, graph, cluster, profile, n, reps


def _legacy_evaluate(graph, cluster, profile, candidates):
    """The pre-kernel cold pipeline: compile + 3 reference simulations."""
    cost = ProfileCostModel(cluster, profile)
    sched = ListScheduler()
    caps = {d.device_id: d.usable_memory_bytes for d in cluster.devices}
    makespans = []
    for strategy in candidates:
        compiler = GraphCompiler(cost)
        dist = compiler.compile(graph, strategy)
        resident = dist.resident_bytes
        kernel = lower(dist)
        rank_order = sched._rank_priorities(kernel, cost)
        rank_run = run_reference(cost, dist, order=rank_order,
                                 resident_bytes=dict(resident),
                                 capacities=caps)
        earliest_run = run_reference(cost, dist,
                                     resident_bytes=dict(resident),
                                     capacities=caps)
        if rank_run.makespan <= earliest_run.makespan:
            winner = rank_order
        else:
            winner = trace_order(kernel.names, earliest_run.schedule)
        final = run_reference(cost, dist, order=winner,
                              resident_bytes=dict(resident),
                              capacities=caps)
        makespans.append(final.makespan)
    return makespans


def _timed_best(fn, reps):
    """Best-of-``reps`` CPU seconds with the GC paused, plus last value."""
    best = None
    value = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            start = time.process_time()
            value = fn()
            elapsed = time.process_time() - start
            best = elapsed if best is None or elapsed < best else best
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, value


def test_cold_eval_speedup(setup, report, results_dir):
    quick, graph, cluster, profile, n, reps = setup
    candidates = candidate_pool(graph, cluster, n)

    def new_path():
        builder = PlanBuilder(graph, cluster, profile)
        return [builder.evaluate(s).time for s in candidates]

    new_s, new_makespans = _timed_best(new_path, reps)
    legacy_s, legacy_makespans = _timed_best(
        lambda: _legacy_evaluate(graph, cluster, profile, candidates),
        max(2, reps - 1),
    )

    # bit-identity: the kernel pipeline (2 sims, winner reused) and the
    # reference pipeline (3 sims) must agree on every makespan exactly
    assert new_makespans == legacy_makespans, \
        "kernel pipeline diverged from the reference pipeline"

    ratio = legacy_s / new_s if new_s > 0 else float("inf")

    mode = "quick" if quick else "full"
    committed_path = results_dir / RESULT_NAME
    baseline_ratio = None
    committed = {}
    if committed_path.exists():
        committed = json.loads(committed_path.read_text())
        baseline_ratio = committed.get(mode, {}).get(
            "ratio_vs_reference_pipeline")
    if baseline_ratio is not None:
        floor = baseline_ratio * REGRESSION_TOLERANCE
        assert ratio >= floor, (
            f"cold-eval speedup regressed: {ratio:.2f}x vs committed "
            f"{baseline_ratio:.2f}x (floor {floor:.2f}x)"
        )

    numbers = {
        "model": graph.name,
        "cluster": str(cluster),
        "candidates": n,
        "reps": reps,
        "cpu_cores": os.cpu_count(),
        "new_cold_cpu_seconds": round(new_s, 3),
        "legacy_cold_cpu_seconds": round(legacy_s, 3),
        "ratio_vs_reference_pipeline": round(ratio, 2),
        "makespans_identical": True,
        "committed_baseline_ratio": baseline_ratio,
    }
    if not quick:
        # refresh the full section; keep quick + worktree records intact
        committed["full"] = {k: v for k, v in numbers.items()
                             if k != "committed_baseline_ratio"}
        committed_path.write_text(json.dumps(committed, indent=2) + "\n")

    body = "\n".join(f"{k:28s}: {v}" for k, v in numbers.items())
    report(f"Cold strategy evaluation ({mode}) — kernel vs reference "
           "pipeline", body)
