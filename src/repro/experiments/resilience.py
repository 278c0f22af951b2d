"""Resilience sweep: recovery policies under faults and capacity churn.

Per model the deployment is searched once on the healthy cluster and
trained under every (scenario, policy) pair with an identically seeded
engine and a fresh injector, so pre-event iterations are pairwise
identical and the table reads the value of each policy off one column.
Two scenario families share the sweep:

- **faults** (:func:`fault_scenarios`) — *degradation*: a crash, a slow
  NIC, a straggler, compared under ``replan`` (detect, re-search on the
  survivors, resume) and ``ride`` (keep the plan; a crash stalls).  A
  no-faults row pins the healthy baseline; an empty schedule installs
  no overlay at all, so it is bit-identical to running without the
  resilience subsystem.
- **churn** (:func:`churn_scenarios`) — *capacity*: a V100 server
  arrives (``elastic`` prices the replan against the enlarged fleet's
  makespan lower bound; ``ride`` keeps the old plan) and a device gets a
  spot notice (``elastic`` drains inside the window with zero lost work;
  ``replan`` waits for the crash; ``ride`` stalls).  The churn sweep
  starts on the small, slow :func:`~repro.cluster.cluster_2gpu` fleet,
  so arriving capacity is worth replanning onto.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from ..agent import AgentConfig
from ..cluster.topology import Cluster
from ..config import HeteroGConfig
from ..graph.dag import ComputationGraph
from ..resilience import (
    FaultInjector,
    FaultSchedule,
    Replanner,
    ResilienceReport,
    ResilientTrainer,
)
from ..runtime.execution_engine import ExecutionEngine
from ..service import PlanningService
from .common import (
    bench_agent_config,
    env_episodes,
    format_table,
    search_request,
)


@dataclass
class ResilienceRow:
    """One (model, scenario, policy) run of the resilience sweep."""

    model: str
    scenario: str
    policy: str
    report: ResilienceReport

    @property
    def stalled(self) -> bool:
        return self.report.stalled

    @property
    def total_seconds(self) -> float:
        return self.report.total_seconds

    def _actions(self, action: str) -> int:
        return sum(1 for r in self.report.recoveries if r.action == action)

    @property
    def replans(self) -> int:
        return self._actions("replan")

    @property
    def scale_ups(self) -> int:
        return self._actions("scale_up")

    @property
    def plan_cache_hits(self) -> int:
        return sum(r.plan_cache_hits for r in self.report.recoveries)


#: the training step every :func:`fault_scenarios` fault strikes at
FAULT_STEP = 3
#: the step :func:`churn_scenarios`' servers join at (the preemption
#: notice comes one step later), and the notice's length in steps
CHURN_STEP = 2
PREEMPT_NOTICE = 2


def fault_scenarios(cluster: Cluster) -> List[Tuple[str, FaultSchedule]]:
    """The no-faults baseline and three single-fault scenarios."""
    victim = cluster.device_ids[-1]       # crash the last-added GPU
    straggler = cluster.device_ids[0]
    server = cluster.server_names()[-1]   # degrade the last server's NIC
    return [
        ("(no faults)", FaultSchedule.empty()),
        (f"crash {victim}",
         FaultSchedule.parse(f"crash:{victim}@{FAULT_STEP}")),
        (f"NIC {server} x0.4",
         FaultSchedule.parse(f"degrade:{server}@{FAULT_STEP}x0.4")),
        (f"straggler {straggler} x2",
         FaultSchedule.parse(f"straggler:{straggler}@{FAULT_STEP}x2.0")),
    ]


def churn_scenarios(cluster: Cluster) -> List[Tuple[str, FaultSchedule]]:
    """The two canonical capacity-event scenarios on ``cluster``."""
    victim = cluster.device_ids[-1]
    return [
        ("arrival +2xV100",
         FaultSchedule.parse(f"server_join:v100@{CHURN_STEP}x2")),
        (f"preempt {victim} (notice {PREEMPT_NOTICE})",
         FaultSchedule.parse(
             f"preempt:{victim}@{CHURN_STEP + 1}x{PREEMPT_NOTICE}")),
    ]


def resilience_sweep(cluster: Cluster,
                     graphs: Mapping[str, ComputationGraph],
                     scenarios: Sequence[Tuple[str, FaultSchedule]],
                     policies: Sequence[str], *,
                     steps: int = 8, episodes: Optional[int] = None,
                     replan_episodes: int = 4, seed: int = 0,
                     agent_config: Optional[AgentConfig] = None,
                     ) -> List[ResilienceRow]:
    """Train every model of ``graphs`` (label -> graph) under every
    (scenario, policy) pair; an empty schedule runs once, under
    ``ride``, with the policy label ``-``.

    One :class:`Replanner` per model serves all its runs, in order, so
    replans and scale-ups that reach the same fleet reuse its warmed
    search session (the benchmarks assert the plan-cache hits).
    """
    config = HeteroGConfig(seed=seed,
                           agent=agent_config or bench_agent_config(seed))
    rows: List[ResilienceRow] = []
    for model, graph in graphs.items():
        with PlanningService(workers=0, name="experiments") as service:
            deployment = service.plan(search_request(
                graph, cluster, config, episodes if episodes is not None
                else env_episodes(8))).deployment
        replanner = Replanner(graph, cluster, config=config,
                              episodes=replan_episodes)
        for name, schedule in scenarios:
            for policy in policies if not schedule.is_empty else ("-",):
                run_policy = "ride" if policy == "-" else policy
                injector = FaultInjector(cluster, schedule)
                engine = ExecutionEngine(cluster, seed=seed + 1,
                                         fault_injector=injector)
                trainer = ResilientTrainer(
                    deployment, injector, engine=engine,
                    replanner=None if run_policy == "ride" else replanner,
                    policy=run_policy,
                )
                rows.append(ResilienceRow(model=model, scenario=name,
                                          policy=policy,
                                          report=trainer.run(steps)))
    return rows


def render_resilience_sweep(rows: List[ResilienceRow]) -> str:
    """Plain-text policy comparison table."""
    table: List[List[str]] = []
    for row in rows:
        report = row.report
        mttr = report.mttr
        table.append([
            row.model,
            row.scenario,
            row.policy,
            f"{report.completed_steps}/{report.steps}",
            f"{report.mean_iteration_time:.4f}",
            "-" if mttr != mttr else f"{mttr:.3f}",
            f"{report.lost_work:.3f}",
            str(row.replans),
            str(row.scale_ups),
            "stalled" if row.stalled else f"{row.total_seconds:.3f}",
        ])
    return format_table(
        ["Model", "Scenario", "Policy", "Steps", "Iter (s)", "MTTR (s)",
         "Lost (s)", "Replans", "ScaleUps", "Total (s)"],
        table,
    )
