"""Warm serving contexts: one profiled (graph, cluster, config) session.

A :class:`PlanContext` is the unit of reuse inside the planning
service: it owns the fitted :class:`~repro.profiling.profiler.Profile`,
a standalone :class:`~repro.plan.PlanBuilder` for build requests, and a
lazily created :class:`~repro.agent.HeteroGAgent` (with its own grouped
builder) for search requests.  Repeated requests on the same context
hit the plan layer's fingerprint caches instead of recompiling, which
is where the service's amortization comes from.

Contexts are internally locked: the service may serve many contexts
concurrently, but requests on one context run serialized, keeping every
cache interaction (and therefore every result) deterministic.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Optional

from .. import telemetry
from ..telemetry.context import record_event
from ..agent.agent import HeteroGAgent
from ..errors import OutOfMemoryError, StrategyError
from ..parallel.strategy import Strategy
from ..plan import EvalOutcome, PlanBuilder
from ..profiling.measurements import MeasurementNoise
from ..profiling.profiler import Profile, Profiler
from ..runtime.deployment import Deployment, build_deployment
from ..runtime.execution_engine import ExecutionEngine
from .request import PlanRequest


@dataclass
class Served:
    """Raw outcome of one context dispatch (service shapes the result)."""

    strategy: Strategy
    outcome: EvalOutcome
    deployment: Optional[Deployment]
    profile: Profile
    episodes: int = 0
    plan_cache_hits: int = 0
    outcome_cache_hits: int = 0
    measured_time: Optional[float] = None
    measured_oom: bool = False


class PlanContext:
    """One warmed planning session keyed by ``PlanRequest.context_key``."""

    def __init__(self, request: PlanRequest):
        self.key = request.context_key
        self.graph = request.graph
        self.cluster = request.cluster
        self.config = request.config
        self.lock = threading.RLock()
        self.served = 0
        self.episodes_trained = 0
        self._profile: Optional[Profile] = request.profile
        self._agent: Optional[HeteroGAgent] = None
        self._builder: Optional[PlanBuilder] = None

    # ------------------------------------------------------------------ #
    @property
    def profile(self) -> Profile:
        """The fitted profile (measured lazily, once per context)."""
        if self._profile is None:
            with telemetry.span("pipeline.profile", graph=self.graph.name):
                self._profile = Profiler(
                    noise=MeasurementNoise(self.config.profile_noise_sigma),
                    seed=self.config.seed,
                ).profile(self.graph, self.cluster)
        return self._profile

    @property
    def builder(self) -> PlanBuilder:
        """Standalone builder used by build (explicit-strategy) requests.

        Search requests use the agent's own grouped builder;
        keeping the two separate makes a build request's deployment
        independent of whether a search happened first.
        """
        if self._builder is None:
            self._builder = PlanBuilder(
                self.graph, self.cluster, self.profile,
                use_order_scheduling=self.config.use_order_scheduling,
            )
        return self._builder

    @property
    def agent(self) -> HeteroGAgent:
        if self._agent is None:
            agent_config = dataclasses.replace(
                self.config.agent,
                use_order_scheduling=self.config.use_order_scheduling,
                seed=self.config.seed,
            )
            self._agent = HeteroGAgent(self.cluster, agent_config)
            with telemetry.span("pipeline.group", graph=self.graph.name):
                self._agent.add_graph(self.graph, self.profile)
        return self._agent

    @property
    def search_builder(self) -> Optional[PlanBuilder]:
        """The agent's grouped builder, if a search ever ran here."""
        if self._agent is None:
            return None
        ctx = self._agent.try_context(self.graph.name)
        return ctx.builder if ctx is not None else None

    # ------------------------------------------------------------------ #
    def handle(self, request: PlanRequest) -> Served:
        """Serve one request (caller holds ``self.lock``)."""
        self.served += 1
        if request.is_search:
            return self._search(request)
        return self._build(request)

    def _search(self, request: PlanRequest) -> Served:
        """Train the RL agent until a feasible strategy emerges."""
        agent = self.agent
        builder = self.search_builder
        budget = request.budget
        outcome: Optional[EvalOutcome] = None
        strategy: Optional[Strategy] = None
        ran = 0
        record_event("search_started", episodes=budget,
                     max_rounds=request.max_rounds)
        with telemetry.span("pipeline.search", graph=self.graph.name,
                            episodes=budget):
            for _ in range(request.max_rounds):
                agent.train(budget)
                ran += budget
                self.episodes_trained += budget
                strategy = agent.trainer.best_strategy(self.graph.name)
                if strategy is None:
                    continue
                outcome = builder.evaluate(strategy)
                if outcome.feasible:
                    break
        if outcome is None or not outcome.feasible:
            raise StrategyError(
                f"no feasible strategy found for {self.graph.name!r} on "
                f"{self.cluster} after {ran} episodes; the cluster may be "
                f"too small for the model"
            )
        with telemetry.span("pipeline.schedule", graph=self.graph.name):
            # plan-cache hit: the winning strategy was built during its
            # evaluation above
            deployment = build_deployment(builder.build(strategy))
        record_event("plan_built", dist_ops=deployment.num_dist_ops,
                     makespan=outcome.time, episodes=ran)
        return Served(
            strategy=strategy, outcome=outcome, deployment=deployment,
            profile=self.profile, episodes=ran,
            plan_cache_hits=builder.plan_cache.hits,
            outcome_cache_hits=builder.outcome_cache.hits,
        )

    def _build(self, request: PlanRequest) -> Served:
        """Build (and optionally engine-measure) an explicit strategy."""
        builder = self.builder
        outcome = builder.evaluate(request.strategy)
        deployment: Optional[Deployment] = None
        if not outcome.infeasible:
            with telemetry.span("pipeline.schedule", graph=self.graph.name):
                deployment = build_deployment(
                    builder.build(request.strategy))
            record_event("plan_built", dist_ops=deployment.num_dist_ops,
                         makespan=outcome.time)
        measured_time: Optional[float] = None
        measured_oom = False
        if request.measure_iterations and deployment is not None:
            measured_time, measured_oom = self._measure(
                deployment, request.measure_iterations)
        return Served(
            strategy=request.strategy, outcome=outcome,
            deployment=deployment, profile=self.profile,
            plan_cache_hits=builder.plan_cache.hits,
            outcome_cache_hits=builder.outcome_cache.hits,
            measured_time=measured_time, measured_oom=measured_oom,
        )

    def _measure(self, deployment: Deployment,
                 iterations: int) -> "tuple[float, bool]":
        """Run the deployment on the execution engine (testbed stand-in)."""
        engine = ExecutionEngine(
            self.cluster,
            jitter_sigma=self.config.engine_jitter_sigma,
            seed=self.config.seed + 1,
        )
        try:
            stats = engine.measure(
                deployment.dist, deployment.schedule,
                deployment.resident_bytes, iterations=iterations,
            )
        except OutOfMemoryError:
            return float("inf"), True
        return stats.mean, False
