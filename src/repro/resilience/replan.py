"""Elastic replanning: re-run strategy search on the surviving cluster.

The :class:`Replanner` is a client of the planning service: every
replan is one typed :class:`~repro.service.PlanRequest` (a strategy
*search* on the degraded cluster) submitted to an inline
:class:`~repro.service.PlanningService`.  The service keys its warm
contexts by (graph, cluster, config) content fingerprint, so replanning
twice into the same degraded state (crash -> replan -> NIC degrade ->
replan, then the NIC recovers... or a sweep revisiting a scenario)
reuses the whole warmed session — policy weights, plan cache and
outcome cache included — and an *identical* replan request is answered
straight from the service's result cache.  Within a single search the
usual plan-layer caching applies: repeated candidate strategies hit the
outcome cache, and the winning strategy's final build is a plan-cache
hit (asserted by the acceptance tests through the
``plan_cache_hits_total`` counters).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .. import telemetry
from ..cluster.topology import Cluster
from ..config import HeteroGConfig
from ..errors import ReproError
from ..graph.dag import ComputationGraph
from ..plan import EvalOutcome, ExecutionPlan
from ..service import PlanningService, PlanRequest

#: the batches of ``episodes`` a replan searches before giving up
MAX_ROUNDS = 3


@dataclass
class RecoveryPlan:
    """Outcome of one replan: a runnable deployment on the survivors."""

    deployment: ExecutionPlan
    cluster: Cluster
    outcome: EvalOutcome         # simulated (profile-predicted) outcome
    search_seconds: float        # wall-clock spent searching
    plan_cache_hits: int
    outcome_cache_hits: int
    reused_session: bool         # True when the degraded state was seen
    episodes: int
    request_id: str = ""         # correlation id of the serving request

    @property
    def feasible(self) -> bool:
        return self.outcome.feasible


class Replanner:
    """Searches replacement deployments when the cluster degrades.

    ``config`` is the planning configuration every replan request
    carries (seed, agent, order flag and noise settings); the facade
    passes its own, so a replan searches exactly as a fresh plan would.
    """

    def __init__(self, graph: ComputationGraph, base_cluster: Cluster, *,
                 config: Optional[HeteroGConfig] = None,
                 episodes: int = 6,
                 service: Optional[PlanningService] = None):
        if episodes < 1:
            raise ReproError(f"episodes must be >= 1, got {episodes}")
        self.graph = graph
        self.base_cluster = base_cluster
        self.config = config if config is not None else HeteroGConfig()
        self.episodes = episodes
        self.service = service if service is not None \
            else PlanningService(workers=0, name="replanner")

    # ---------------------------------------------------------------- #
    def _request(self, cluster: Cluster) -> PlanRequest:
        return PlanRequest(
            graph=self.graph,
            cluster=cluster,
            episodes=self.episodes,
            max_rounds=MAX_ROUNDS,
            config=self.config,
            label="replan",
        )

    def replan(self, cluster: Cluster) -> RecoveryPlan:
        """Search a feasible deployment on ``cluster`` (the survivors).

        Runs up to :data:`MAX_ROUNDS` batches of ``episodes`` RL episodes
        until the best strategy is feasible (no OOM, compiles); raises
        :class:`ReproError` if none is found — the cluster may simply be
        too small for the model.
        """
        start = time.time()
        with telemetry.span("resilience.replan", graph=self.graph.name,
                            devices=cluster.num_devices):
            result = self.service.plan(self._request(cluster))
        elapsed = time.time() - start
        telemetry.emit_count("resilience_replans_total",
                             help="replacement-plan searches completed")
        assert result.deployment is not None  # searches raise when infeasible
        return RecoveryPlan(
            deployment=result.deployment,
            cluster=cluster,
            outcome=result.outcome,
            search_seconds=elapsed,
            plan_cache_hits=result.plan_cache_hits,
            outcome_cache_hits=result.outcome_cache_hits,
            reused_session=result.reused_context or result.from_cache,
            episodes=result.episodes,
            request_id=result.request_id,
        )
