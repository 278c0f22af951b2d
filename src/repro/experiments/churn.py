"""Churn sweep: elastic vs replan-always vs ride on a changing fleet.

Where the fault sweep (:mod:`.resilience`) studies *degradation* —
crashes, slow NICs, stragglers — this sweep studies *capacity churn*:
spot arrivals and preemptions.  For every model family the same
deployment (searched once on the healthy base cluster) is trained under
each policy against the same seeded capacity-event schedule:

- **arrival** — a V100 server joins mid-run.  ``elastic`` prices the
  replan against the enlarged fleet's makespan lower bound and adopts
  the faster plan; ``ride`` keeps the original plan, so the makespan
  column reads off the value of chasing new capacity.
- **preempt** — a device receives a spot notice and dies two iterations
  later.  ``elastic`` drains inside the notice window (zero lost work,
  MTTR = restart overhead); ``replan`` waits for the crash and pays
  detection lag + search; ``ride`` stalls.

The default base cluster is deliberately *small and slow*
(:func:`elastic_base_cluster`: one 2x 1080Ti server), so arriving V100
capacity is genuinely worth replanning onto — mirroring the spot-market
setting where a job starts on whatever is cheap and upgrades when the
market grants more.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..agent import AgentConfig
from ..cluster.presets import cluster_2gpu
from ..cluster.topology import Cluster
from ..config import HeteroGConfig
from ..elastic import ChurnSchedule
from ..graph.models import build_model
from ..graph.models.registry import ALL_MODELS
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

#: which policies are worth comparing per scenario kind
SCENARIO_POLICIES: Dict[str, Tuple[str, ...]] = {
    "arrival": ("elastic", "replan", "ride"),
    "preempt": ("elastic", "replan", "ride"),
    "churn": ("elastic", "replan", "ride"),
}


@dataclass
class ChurnRow:
    """One (model, scenario, policy) cell of the churn sweep."""

    model: str
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
    def scale_ups(self) -> int:
        return sum(1 for r in self.report.recoveries
                   if r.action == "scale_up")

    @property
    def plan_cache_hits(self) -> int:
        return sum(r.plan_cache_hits for r in self.report.recoveries)

    @property
    def display_total(self) -> str:
        if self.stalled:
            return "stalled"
        return f"{self.total_seconds:.3f}"


def elastic_base_cluster() -> Cluster:
    """The churn sweep's starting fleet (see :func:`cluster_2gpu`)."""
    return cluster_2gpu()


def churn_scenarios(cluster: Cluster, *, at: int = 2, notice: int = 2,
                    ) -> List[Tuple[str, FaultSchedule]]:
    """The two canonical capacity-event scenarios on ``cluster``."""
    victim = cluster.device_ids[-1]
    return [
        ("arrival +2xV100",
         FaultSchedule.parse(f"server_join:v100@{at}x2")),
        (f"preempt {victim} (notice {notice})",
         FaultSchedule.parse(f"preempt:{victim}@{at + 1}x{notice}")),
    ]


def _scenario_kind(name: str) -> str:
    for kind in ("arrival", "preempt"):
        if name.startswith(kind):
            return kind
    return "churn"


def churn_sweep(cluster: Optional[Cluster] = None, *,
                models: Optional[Sequence[str]] = None,
                preset: Optional[str] = None,
                steps: int = 8, episodes: Optional[int] = None,
                replan_episodes: int = 4, seed: int = 0,
                agent_config: Optional[AgentConfig] = None,
                churn: Optional[ChurnSchedule] = None,
                policies: Optional[Sequence[str]] = None,
                scenarios: Optional[Sequence[Tuple[str, FaultSchedule]]]
                = None) -> List[ChurnRow]:
    """Run the elastic-vs-replan-vs-ride comparison under capacity churn.

    Per model the healthy deployment is searched once and shared by all
    (scenario, policy) runs; each run gets a fresh injector and an
    engine with the same seed, so pre-event iterations are pairwise
    identical.  One :class:`Replanner` per model serves every policy, so
    scale-ups and drains that reach the same fleet reuse its warmed
    session (the benchmark asserts the resulting plan-cache hits).

    Pass ``churn`` to replace the canonical two scenarios with a seeded
    Poisson :class:`~repro.elastic.ChurnSchedule` timeline.
    """
    if cluster is None:
        cluster = elastic_base_cluster()
    config = agent_config or bench_agent_config(seed)
    model_names = list(models) if models is not None else list(ALL_MODELS)
    if scenarios is None:
        if churn is not None:
            scenarios = [(
                f"churn(a={churn.arrival_rate:g},p={churn.preempt_rate:g})",
                churn.schedule(cluster))]
        else:
            scenarios = churn_scenarios(cluster)
    rows: List[ChurnRow] = []
    ctx = ExperimentContext(cluster, seed=seed)
    for model in model_names:
        # default scale is tiny: the sweep starts on a deliberately
        # small fleet that bench-scale NLP models do not fit on
        graph = build_model(model, preset or env_preset("tiny"))
        searched = ctx.run_heterog(
            graph, episodes=episodes if episodes is not None
            else env_episodes(8), agent_config=config)
        deployment = ctx.builder(graph).build(searched.strategy)
        replanner = Replanner(graph, cluster,
                              config=HeteroGConfig(seed=seed, agent=config),
                              episodes=replan_episodes)
        for name, schedule in scenarios:
            kind = _scenario_kind(name)
            for policy in (policies if policies is not None
                           else SCENARIO_POLICIES[kind]):
                injector = FaultInjector(cluster, schedule)
                engine = ExecutionEngine(cluster, seed=seed + 1,
                                         fault_injector=injector)
                trainer = ResilientTrainer(
                    deployment, injector, engine=engine,
                    replanner=replanner if policy != "ride" else None,
                    policy=policy,
                )
                start = time.time()
                report = trainer.run(steps)
                rows.append(ChurnRow(
                    model=model, scenario=name, policy=policy,
                    report=report,
                    wall_seconds=time.time() - start,
                ))
    return rows


def render_churn_sweep(rows: List[ChurnRow]) -> str:
    """Plain-text churn comparison table."""
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
            row.display_total,
        ])
    return format_table(
        ["Model", "Scenario", "Policy", "Steps", "Iter (s)", "MTTR (s)",
         "Lost (s)", "Replans", "ScaleUps", "Total (s)"],
        table,
    )

