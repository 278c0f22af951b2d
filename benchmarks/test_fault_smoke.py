"""Fault-sweep benchmark: elastic replanning vs riding faults out.

Regenerates the resilience comparison table — for each fault scenario
(device crash, NIC degrade, straggler) the same healthy deployment is
trained under the ``replan`` and ``ride`` policies with identical
seeded engines, and the table reports completed steps, MTTR, lost work
and total makespan per policy.

Correctness gates (also the CI ``--quick`` fault-injection smoke): the
crash scenario must be *detected*, the replan policy must *recover* —
completing every step on a feasible plan that avoids the dead GPU,
reusing the warm plan cache — while the ride policy must stall, since a
dead device cannot be ridden out.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.cluster import cluster_4gpu, cluster_8gpu
from repro.experiments import (
    fault_scenarios,
    render_resilience_sweep,
    resilience_sweep,
)
from repro.experiments.common import bench_agent_config, env_episodes
from repro.graph.models import build_model


@pytest.mark.benchmark
def test_fault_sweep(quick, report):
    cluster = cluster_4gpu() if quick else cluster_8gpu()
    graph = build_model("vgg19", "tiny" if quick else "bench")
    with telemetry.session() as session:
        rows = resilience_sweep(
            cluster,
            {"vgg19": graph},
            fault_scenarios(cluster),
            ("replan", "ride"),
            steps=6 if quick else 10,
            episodes=2 if quick else env_episodes(8),
            replan_episodes=2 if quick else 4,
            agent_config=bench_agent_config(0),
            seed=0,
        )
        cache_hits = session.registry.get("plan_cache_hits_total",
                                          labels={"kind": "plan"})
    report("fault sweep: replan vs ride-it-out "
           f"({cluster.num_devices} GPUs)", render_resilience_sweep(rows))

    by_key = {(r.scenario, r.policy): r for r in rows}
    crash_scenario = next(r.scenario for r in rows
                          if r.scenario.startswith("crash"))
    replanned = by_key[(crash_scenario, "replan")]
    rode = by_key[(crash_scenario, "ride")]

    # the crash was detected and replanned around ...
    assert any(d.kind == "device_lost"
               for d in replanned.report.detections)
    assert replanned.replans >= 1
    # ... recovery completed: every step ran on a feasible plan
    assert not replanned.stalled
    assert replanned.report.completed_steps == replanned.report.steps
    recovery = next(r for r in replanned.report.recoveries
                    if r.action == "replan")
    assert recovery.devices_after == cluster.num_devices - 1
    assert recovery.plan_cache_hits > 0       # warm plan layer reused
    assert replanned.report.mttr > 0
    assert cache_hits is not None and cache_hits.value > 0
    # riding out a crash cannot finish the run
    assert rode.stalled
    # the no-faults baseline ran clean
    baseline = next(r for r in rows if r.scenario == "(no faults)")
    assert not baseline.report.recoveries and not baseline.stalled
