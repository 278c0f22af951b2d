"""Fault-sweep experiment: elastic replanning vs riding faults out.

For each fault scenario the same deployment (searched once on the
healthy cluster) is trained twice with the identical seeded engine and
fault schedule — once under the ``replan`` policy (detect, re-search on
the survivors, resume) and once under ``ride`` (keep the original plan;
a crash stalls the run).  The table reports completed steps, mean
iteration time, downtime/lost work and the resulting total makespan, so
the value of elastic replanning is read off a single column.  A
no-faults row pins the healthy baseline, and — because an empty
schedule installs no overlay at all — it is bit-identical to running
without the resilience subsystem.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..agent import AgentConfig
from ..cluster.topology import Cluster
from ..config import HeteroGConfig
from ..graph.dag import ComputationGraph
from ..graph.models import build_model
from ..resilience import (
    FaultInjector,
    FaultSchedule,
    Replanner,
    ResilienceReport,
    ResilientTrainer,
)
from ..runtime.execution_engine import ExecutionEngine
from .common import (
    ExperimentContext,
    bench_agent_config,
    env_episodes,
    env_preset,
    format_table,
)


@dataclass
class FaultSweepRow:
    """One (scenario, policy) cell of the fault sweep."""

    scenario: str
    policy: str
    report: ResilienceReport
    wall_seconds: float

    @property
    def stalled(self) -> bool:
        return self.report.stalled

    @property
    def total_seconds(self) -> float:
        return self.report.total_seconds

    @property
    def replans(self) -> int:
        return sum(1 for r in self.report.recoveries
                   if r.action == "replan")

    @property
    def display_total(self) -> str:
        if self.stalled:
            return "stalled"
        return f"{self.total_seconds:.3f}"


def default_scenarios(cluster: Cluster, *, at: int = 3,
                      ) -> List[Tuple[str, FaultSchedule]]:
    """The three canonical single-fault scenarios on ``cluster``."""
    victim = cluster.device_ids[-1]       # crash the last-added GPU
    straggler = cluster.device_ids[0]
    server = cluster.server_names()[-1]   # degrade the last server's NIC
    return [
        ("(no faults)", FaultSchedule.empty()),
        (f"crash {victim}",
         FaultSchedule.parse(f"crash:{victim}@{at}")),
        (f"NIC {server} x0.4",
         FaultSchedule.parse(f"degrade:{server}@{at}x0.4")),
        (f"straggler {straggler} x2",
         FaultSchedule.parse(f"straggler:{straggler}@{at}x2.0")),
    ]


def fault_sweep(cluster: Cluster, *,
                graph: Optional[ComputationGraph] = None,
                model: str = "vgg19", preset: Optional[str] = None,
                steps: int = 8, episodes: Optional[int] = None,
                replan_episodes: int = 4, seed: int = 0,
                agent_config: Optional[AgentConfig] = None,
                scenarios: Optional[Sequence[Tuple[str, FaultSchedule]]]
                = None) -> List[FaultSweepRow]:
    """Run the replan-vs-ride comparison over the fault scenarios.

    The healthy deployment is searched once and shared by every run;
    each (scenario, policy) pair gets a fresh engine with the same seed
    so the pre-fault iterations are pairwise identical.  One
    :class:`Replanner` serves all replan runs, so scenarios that reach
    the same degraded cluster reuse its warmed search session.
    """
    if graph is None:
        graph = build_model(model, preset or env_preset())
    config = agent_config or bench_agent_config(seed)
    ctx = ExperimentContext(cluster, seed=seed)
    searched = ctx.run_heterog(
        graph, episodes=episodes if episodes is not None
        else env_episodes(8), agent_config=config)
    deployment = ctx.builder(graph).build(searched.strategy)
    replanner = Replanner(graph, cluster,
                          config=HeteroGConfig(seed=seed, agent=config),
                          episodes=replan_episodes)
    rows: List[FaultSweepRow] = []
    for name, schedule in (scenarios if scenarios is not None
                           else default_scenarios(cluster)):
        policies = ("replan", "ride") if not schedule.is_empty else ("-",)
        for policy in policies:
            injector = FaultInjector(cluster, schedule)
            engine = ExecutionEngine(cluster, seed=seed + 1,
                                     fault_injector=injector)
            trainer = ResilientTrainer(
                deployment, injector, engine=engine,
                replanner=replanner if policy == "replan" else None,
                policy=policy if policy != "-" else "ride",
            )
            start = time.time()
            report = trainer.run(steps)
            rows.append(FaultSweepRow(
                scenario=name, policy=policy, report=report,
                wall_seconds=time.time() - start,
            ))
    return rows


def render_fault_sweep(rows: List[FaultSweepRow]) -> str:
    """Plain-text replan-vs-ride comparison table."""
    table: List[List[str]] = []
    for row in rows:
        report = row.report
        mttr = report.mttr
        table.append([
            row.scenario,
            row.policy,
            f"{report.completed_steps}/{report.steps}",
            f"{report.mean_iteration_time:.4f}",
            "-" if mttr != mttr else f"{mttr:.3f}",
            f"{report.lost_work:.3f}",
            str(row.replans),
            row.display_total,
        ])
    return format_table(
        ["Scenario", "Policy", "Steps", "Iter (s)", "MTTR (s)",
         "Lost (s)", "Replans", "Total (s)"],
        table,
    )
