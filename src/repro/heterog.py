"""The HeteroG facade: Graph Analyzer -> Strategy Maker -> Graph Compiler.

Ties the whole pipeline of Fig. 4 together for one (graph, cluster)
pair.  Since the planning-service redesign the facade is a thin client
of an inline :class:`~repro.service.PlanningService` (``workers=0`` —
everything runs synchronously on the caller's thread): ``plan`` and
``deploy`` assemble typed :class:`~repro.service.PlanRequest` objects
and let the service's warm per-(graph, cluster, config) contexts do the
profiling, search, compilation and scheduling.  Repeated calls on the
same facade therefore hit the service's plan and result caches instead
of re-driving the pipeline.
"""

from __future__ import annotations

from typing import Optional

from . import telemetry
from .cluster.topology import Cluster
from .config import HeteroGConfig
from .graph.analyzer import GraphAnalysis, GraphAnalyzer
from .graph.dag import ComputationGraph
from .parallel.strategy import Strategy
from .plan import ExecutionPlan
from .profiling.profiler import Profile
from .resilience import (
    FaultInjector,
    FaultSchedule,
    Replanner,
    ResilientTrainer,
)
from .runtime.execution_engine import ExecutionEngine
from .runtime.runner import DistributedRunner
from .service import PlanningService, PlanRequest, PlanResult


class HeteroG:
    """One strategy-search session for a single DNN graph."""

    def __init__(self, cluster: Cluster,
                 config: Optional[HeteroGConfig] = None,
                 service: Optional[PlanningService] = None):
        self.cluster = cluster
        self.config = config or HeteroGConfig()
        # inline service: deterministic, serial, same caches as `serve`
        self.service = service if service is not None \
            else PlanningService(workers=0, name="heterog")
        self._analysis: Optional[GraphAnalysis] = None

    # ------------------------------------------------------------------ #
    def analyze(self, graph: ComputationGraph) -> GraphAnalysis:
        """Run the Graph Analyzer (Sec. 3.2)."""
        with telemetry.span("pipeline.analyze", graph=graph.name):
            self._analysis = GraphAnalyzer().analyze(graph)
        return self._analysis

    def profile(self, graph: ComputationGraph) -> Profile:
        """Run the Profiler (Sec. 3.3) on the service's warm context."""
        return self.service.context_for(self._request(graph)).profile

    # ------------------------------------------------------------------ #
    def _request(self, graph: ComputationGraph,
                 strategy: Optional[Strategy] = None,
                 profile: Optional[Profile] = None,
                 episodes: Optional[int] = None) -> PlanRequest:
        return PlanRequest(
            graph=graph,
            cluster=self.cluster,
            strategy=strategy,
            profile=profile,
            episodes=episodes if episodes is not None
            else self.config.episodes,
            config=self.config,
            label="heterog",
        )

    def plan_result(self, graph: ComputationGraph,
                    strategy: Optional[Strategy] = None,
                    profile: Optional[Profile] = None,
                    episodes: Optional[int] = None) -> PlanResult:
        """Route one typed request through the planning service."""
        return self.service.plan(
            self._request(graph, strategy, profile, episodes))

    def plan(self, graph: ComputationGraph,
             profile: Optional[Profile] = None,
             episodes: Optional[int] = None) -> Strategy:
        """Search for the best deployment strategy for ``graph``."""
        self.analyze(graph)
        return self.plan_result(graph, profile=profile,
                                episodes=episodes).strategy

    def deploy(self, graph: ComputationGraph,
               strategy: Optional[Strategy] = None,
               profile: Optional[Profile] = None) -> ExecutionPlan:
        """Compile + schedule a strategy (searching one if not given)."""
        result = self.plan_result(graph, strategy=strategy, profile=profile)
        assert result.deployment is not None  # searches raise when infeasible
        return result.deployment

    def runner(self, deployment: ExecutionPlan) -> DistributedRunner:
        engine = ExecutionEngine(
            self.cluster,
            jitter_sigma=self.config.engine_jitter_sigma,
            seed=self.config.seed + 1,
        )
        return DistributedRunner(deployment, engine)

    def resilient_runner(self, deployment: ExecutionPlan,
                         schedule: FaultSchedule, *,
                         policy: str = "replan",
                         episodes: int = 6) -> ResilientTrainer:
        """A fault-injected training loop around ``deployment``.

        The engine runs on the *original* cluster (the testbed does not
        shrink — the injector's overlay makes faults visible); the
        replanner searches on the *degraded* cluster derived from the
        active faults.  ``policy="ride"`` keeps the original plan and
        stalls on crashes — the baseline the fault-sweep compares with.
        ``policy="elastic"`` additionally reacts to capacity events
        (joins, spot preempt notices, reclaims): priced scale-up
        replans and pre-deadline drains.
        """
        injector = FaultInjector(self.cluster, schedule)
        engine = ExecutionEngine(
            self.cluster,
            jitter_sigma=self.config.engine_jitter_sigma,
            seed=self.config.seed + 1,
            fault_injector=injector,
        )
        replanner = None
        if policy in ("replan", "elastic"):
            replanner = Replanner(
                deployment.graph, self.cluster, config=self.config,
                episodes=episodes, service=self.service,
            )
        return ResilientTrainer(deployment, injector, engine=engine,
                                replanner=replanner, policy=policy)
