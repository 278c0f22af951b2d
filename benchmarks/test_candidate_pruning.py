"""Branch-and-bound candidate pruning: cold-search speedup + identity.

Strategy search evaluates pools of candidate deployments where most
candidates lose.  The pruning PR cuts those losers short in three
winner-safe layers: a static admissible lower bound on the lowered
kernel (no simulation at all), a cooperative mid-simulation abort once
the clock exceeds the best-so-far, and the scheduler's internal
candidate-order race (the ``earliest`` order raced against the
completed ``rank`` makespan).

This benchmark runs the same 16-candidate cold search twice on fresh
builders:

- **unpruned** — the test oracle's ``unpruned_outcome``
  (``tests/oracle/unpruned.py``): the pre-pruning pipeline (no bound
  check, no mid-sim abort, no internal race pruning);
- **pruned**   — a shared :class:`~repro.plan.BestSoFar` threaded
  through a serial sweep, exactly how the REINFORCE / CEM consumers
  drive it.

The candidate pool is sampled from the search's own action space —
random per-*group* actions (MP placements and the four DP schemes) over
the agent's operation grouping, the same distribution a cold REINFORCE
episode or CEM round draws from.  Group-structured candidates span the
full quality range (2x spread between best and worst is typical), which
is precisely the regime branch-and-bound exploits: clearly-losing
candidates static-bound-prune before any simulation, borderline ones
abort mid-simulation via the tail bound.

Correctness gates (also the CI ``--quick`` smoke step): the pruned
sweep must report the **bit-identical winning candidate and makespan**,
the pruned fraction must be non-zero, and the measured speedup must not
regress by more than 25% against the committed baseline for the active
mode.  The full run additionally targets >= 1.5x.

Methodology matches ``test_cold_eval``: ``time.process_time``,
best-of-N repetitions, GC paused around the timed regions.
"""

from __future__ import annotations

import gc
import json
import os
import time

import numpy as np
import pytest

from repro.agent.policy import actions_to_strategy, num_actions
from repro.cluster import cluster_4gpu, cluster_8gpu
from repro.graph.grouping import group_operations
from repro.graph.models import build_model
from repro.plan import BestSoFar, PlanBuilder
from repro.profiling import Profiler

from tests.oracle.unpruned import unpruned_outcome

#: measured speedup may drop to this fraction of the committed baseline
#: before the benchmark fails (machine-relative, so portable)
REGRESSION_TOLERANCE = 0.75

#: the full-size run's absolute target (the PR's headline number)
FULL_TARGET_SPEEDUP = 1.5

RESULT_NAME = "BENCH_candidate_pruning.json"


def grouped_candidates(graph, cluster, n, *, groups=8, seed=0):
    """``n`` candidates drawn from the search's per-group action space
    (random MP/DP action per operation group — a cold policy's sampling
    distribution)."""
    rng = np.random.default_rng(seed)
    grouping = group_operations(graph, {op: 1.0 for op in graph.op_names},
                                groups)
    return [
        actions_to_strategy(
            graph, cluster, grouping,
            rng.integers(0, num_actions(cluster), grouping.num_groups))
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def setup(request):
    quick = request.config.getoption("--quick")
    if quick:
        cluster = cluster_4gpu()
        graph = build_model("inception_v3", "tiny")
        reps = 2
    else:
        cluster = cluster_8gpu()
        graph = build_model("inception_v3", "bench")
        reps = 3
    n = 16  # the PR's reference workload: a 16-candidate cold search
    profile = Profiler(seed=0).profile(graph, cluster)
    return quick, graph, cluster, profile, n, reps


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


def _winner(times):
    idx = min(range(len(times)), key=times.__getitem__)
    return idx, times[idx]


def test_candidate_pruning_speedup(setup, report, results_dir):
    quick, graph, cluster, profile, n, reps = setup
    candidates = grouped_candidates(graph, cluster, n)

    def unpruned():
        builder = PlanBuilder(graph, cluster, profile)
        outcomes = [unpruned_outcome(builder, s) for s in candidates]
        return [o.time if o.feasible else float("inf") for o in outcomes]

    def pruned():
        builder = PlanBuilder(graph, cluster, profile)
        best = BestSoFar()
        outcomes = [builder.evaluate(s, best=best) for s in candidates]
        stats = (builder.evals_pruned, builder.evals_total)
        stages = {}
        for o in outcomes:
            if o.pruned:
                stages[o.prune_stage] = stages.get(o.prune_stage, 0) + 1
        times = [o.time if o.feasible else float("inf") for o in outcomes]
        return times, stats, stages

    unpruned_s, unpruned_times = _timed_best(unpruned, reps)
    pruned_s, (pruned_times, (n_pruned, n_total), stages) = \
        _timed_best(pruned, reps)

    # winner identity: bit-equal index AND makespan, not approximate
    assert _winner(pruned_times) == _winner(unpruned_times), \
        "pruned search changed the winning candidate"

    pruned_fraction = n_pruned / n_total if n_total else 0.0
    assert pruned_fraction > 0.0, \
        "pruning never fired on the 16-candidate cold search"

    speedup = unpruned_s / pruned_s if pruned_s > 0 else float("inf")

    mode = "quick" if quick else "full"
    committed_path = results_dir / RESULT_NAME
    baseline_speedup = None
    committed = {}
    if committed_path.exists():
        committed = json.loads(committed_path.read_text())
        baseline_speedup = committed.get(mode, {}).get("speedup")
    if baseline_speedup is not None:
        floor = baseline_speedup * REGRESSION_TOLERANCE
        assert speedup >= floor, (
            f"pruning speedup regressed: {speedup:.2f}x vs committed "
            f"{baseline_speedup:.2f}x (floor {floor:.2f}x)"
        )
    if not quick:
        assert speedup >= FULL_TARGET_SPEEDUP, (
            f"full-size pruning speedup {speedup:.2f}x below the "
            f"{FULL_TARGET_SPEEDUP}x target"
        )

    numbers = {
        "model": graph.name,
        "cluster": str(cluster),
        "candidates": n,
        "reps": reps,
        "cpu_cores": os.cpu_count(),
        "unpruned_cpu_seconds": round(unpruned_s, 3),
        "pruned_cpu_seconds": round(pruned_s, 3),
        "speedup": round(speedup, 2),
        "pruned_fraction": round(pruned_fraction, 3),
        "pruned_bound": stages.get("bound", 0),
        "pruned_midsim": stages.get("midsim", 0),
        "winner_identical": True,
        "committed_baseline_speedup": baseline_speedup,
    }
    if not quick:
        # refresh the full section; keep the quick record intact
        committed["full"] = {k: v for k, v in numbers.items()
                             if k != "committed_baseline_speedup"}
        committed_path.write_text(json.dumps(committed, indent=2) + "\n")

    body = "\n".join(f"{k:28s}: {v}" for k, v in numbers.items())
    report(f"Candidate pruning ({mode}) — unpruned vs best-so-far sweep",
           body)
