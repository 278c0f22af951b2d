"""Churn benchmark: elastic fleets vs replan-always vs ride.

Regenerates the capacity-churn comparison — every model family starts
on the deliberately weak two-GPU base fleet and faces the two canonical
capacity events (a V100 server arriving; a device preempted with a
two-iteration spot notice) under the ``elastic``, ``replan`` and
``ride`` policies with identical seeded engines.

Correctness gates (also the CI ``--quick`` churn smoke step):

- **arrival** — the elastic policy must adopt the new capacity (a
  ``scale_up`` recovery fired), the replan must be *warm* (plan-cache
  hits > 0) and the elastic total makespan must beat riding the old
  fleet;
- **preempt** — the elastic drain inside the notice window must lose
  zero work and post a strictly lower MTTR than replan-on-crash, while
  ride stalls (a dead device cannot be ridden out);
- the elastic-over-ride arrival advantage must not regress by more than
  25% against the committed baseline (machine-relative wall-clock
  ratio, so portable).
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.cluster import cluster_2gpu
from repro.experiments import (
    churn_scenarios,
    render_resilience_sweep,
    resilience_sweep,
)
from repro.experiments.common import bench_agent_config, env_episodes
from repro.graph.models import build_model
from repro.graph.models.registry import ALL_MODELS

#: the arrival advantage may drop to this fraction of the committed
#: baseline before the benchmark fails
REGRESSION_TOLERANCE = 0.75

RESULT_NAME = "BENCH_elastic_churn.json"


def _geomean(values):
    prod = 1.0
    for v in values:
        prod *= v
    return prod ** (1.0 / len(values))


@pytest.mark.benchmark
def test_elastic_churn(quick, report, results_dir):
    cluster = cluster_2gpu()
    models = ["vgg19"] if quick else list(ALL_MODELS)
    arrival, preempt = scenarios = churn_scenarios(cluster)
    with telemetry.session() as session:
        rows = resilience_sweep(
            cluster,
            {m: build_model(m, "tiny") for m in models},
            scenarios,
            ("elastic", "replan", "ride"),
            steps=6 if quick else 8,
            episodes=2 if quick else env_episodes(8),
            replan_episodes=2 if quick else 4,
            agent_config=bench_agent_config(0),
            seed=0,
        )
        cache_hits = session.registry.get("plan_cache_hits_total",
                                          labels={"kind": "plan"})
    mode = "quick" if quick else "full"
    kind = {arrival[0]: "arrival", preempt[0]: "preempt"}
    by = {(r.model, kind[r.scenario], r.policy): r for r in rows}
    advantages = {}
    mttr_gaps = {}
    for model in models:
        elastic = by[(model, "arrival", "elastic")]
        ride = by[(model, "arrival", "ride")]
        # the arrival was adopted, warm, and paid off
        assert not elastic.stalled and not ride.stalled
        assert elastic.scale_ups >= 1, \
            f"{model}: elastic never scaled up onto the arrived server"
        assert elastic.plan_cache_hits > 0, \
            f"{model}: scale-up replan missed the warm plan layer"
        assert elastic.total_seconds < ride.total_seconds, \
            f"{model}: elastic did not beat ride under the arrival"
        advantages[model] = ride.total_seconds / elastic.total_seconds

        drained = by[(model, "preempt", "elastic")]
        late = by[(model, "preempt", "replan")]
        stalled = by[(model, "preempt", "ride")]
        # the notice-window drain lost nothing and beat replan-on-crash
        assert not drained.stalled and not late.stalled
        assert drained.report.lost_work == 0.0, \
            f"{model}: elastic drain lost work despite the spot notice"
        assert drained.report.mttr < late.report.mttr, \
            f"{model}: drain MTTR did not beat replan-on-crash"
        assert stalled.stalled   # dead devices cannot be ridden out
        mttr_gaps[model] = late.report.mttr - drained.report.mttr
    assert cache_hits is not None and cache_hits.value > 0

    advantage = _geomean(list(advantages.values()))
    committed_path = results_dir / RESULT_NAME
    baseline = None
    committed = {}
    if committed_path.exists():
        committed = json.loads(committed_path.read_text())
        baseline = committed.get(mode, {}).get("arrival_advantage")
    if baseline is not None:
        floor = baseline * REGRESSION_TOLERANCE
        assert advantage >= floor, (
            f"elastic arrival advantage regressed: {advantage:.2f}x vs "
            f"committed {baseline:.2f}x (floor {floor:.2f}x)"
        )

    numbers = {
        "models": models,
        "base_cluster": str(cluster),
        "arrival_advantage": round(advantage, 3),
        "arrival_advantage_per_model":
            {m: round(v, 3) for m, v in advantages.items()},
        "preempt_mttr_gap_per_model":
            {m: round(v, 4) for m, v in mttr_gaps.items()},
        "plan_cache_hits": int(cache_hits.value),
    }
    if not quick:
        # refresh the full section; keep the quick record intact
        committed["full"] = numbers
        committed_path.write_text(json.dumps(committed, indent=2) + "\n")

    gates = "\n".join(
        f"{m}: arrival {advantages[m]:.2f}x, "
        f"preempt MTTR gap {mttr_gaps[m]:.4f}s" for m in models)
    report(f"elastic churn ({mode}): elastic vs replan vs ride "
           f"({len(models)} models, base {cluster.num_devices} GPUs) — "
           f"geomean arrival advantage {advantage:.2f}x",
           render_resilience_sweep(rows) + "\n" + gates)
