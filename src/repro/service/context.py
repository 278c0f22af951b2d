"""Warm serving contexts: one profiled (graph, cluster, config) session.

A :class:`PlanContext` is the unit of reuse inside the planning
service: it owns the fitted :class:`~repro.profiling.profiler.Profile`,
one :class:`~repro.plan.PlanBuilder`, and a lazily created
:class:`~repro.agent.HeteroGAgent` for search requests, which evaluates
its candidates on that same builder.  Repeated requests on the same
context hit the plan layer's fingerprint caches instead of recompiling,
which is where the service's amortization comes from: a build or
measure request for a strategy a search found compiles and simulates
nothing, and neither does one for a strategy an earlier request built.

Contexts are internally locked: the service may serve many contexts
concurrently, but requests on one context run serialized, keeping every
cache interaction (and therefore every result) deterministic.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from .. import telemetry
from ..telemetry.context import record_event
from ..agent.agent import HeteroGAgent
from ..errors import CompileError, OutOfMemoryError, StrategyError
from ..parallel.strategy import Strategy
from ..plan import EvalOutcome, ExecutionPlan, PlanBuilder
from ..profiling.measurements import MeasurementNoise
from ..profiling.profiler import Profile, Profiler
from ..runtime.execution_engine import ExecutionEngine
from .request import PlanRequest, PlanResult


def lru_context(contexts: "OrderedDict[str, PlanContext]",
                request: PlanRequest,
                max_contexts: int) -> Tuple["PlanContext", bool]:
    """Get or create the request's context in an LRU of warm contexts,
    evicting the least recently used beyond ``max_contexts``.  Returns
    the context and whether it was already warm."""
    key = request.context_key
    warm = key in contexts
    if warm:
        contexts.move_to_end(key)
    else:
        contexts[key] = PlanContext(request)
        while len(contexts) > max_contexts:
            contexts.popitem(last=False)
    return contexts[key], warm


class PlanContext:
    """One warmed planning session keyed by ``PlanRequest.context_key``."""

    def __init__(self, request: PlanRequest):
        self.key = request.context_key
        self.graph = request.graph
        self.cluster = request.cluster
        self.config = request.config
        self.lock = threading.RLock()
        self.served = 0
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
        """The context's one builder: build requests evaluate on it, and
        the agent's search evaluates its candidates on it.  A plan does
        not depend on which request compiled it first, so sharing the
        caches changes no answer."""
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
                self.config.agent, seed=self.config.seed)
            self._agent = HeteroGAgent(self.cluster, agent_config)
            builder = self.builder
            with telemetry.span("pipeline.group", graph=self.graph.name):
                self._agent.add_graph(self.graph, builder=builder)
        return self._agent

    # ------------------------------------------------------------------ #
    def handle(self, request: PlanRequest) -> PlanResult:
        """Serve one request (caller holds ``self.lock``); the caller
        stamps the result's ``queue_seconds`` and ``service_seconds``."""
        reused = self.served > 0
        self.served += 1
        work = (self._search(request) if request.is_search
                else self._build(request))
        builder = self.builder
        return PlanResult(
            fingerprint=request.fingerprint, profile=self.profile,
            reused_context=reused,
            plan_cache_hits=builder.plan_cache.hits,
            outcome_cache_hits=builder.outcome_cache.hits,
            request_id=request.request_id, **work)

    def _search(self, request: PlanRequest) -> Dict[str, Any]:
        """Train the RL agent until a feasible strategy emerges."""
        agent = self.agent
        builder = self.builder
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
            # plan-cache hit: the builder kept the winner's plan as the
            # fastest it had evaluated
            deployment = builder.build(strategy)
        winner_episode = agent.context(self.graph.name).best_episode
        record_event("plan_built", dist_ops=deployment.num_dist_ops,
                     makespan=outcome.time, episodes=ran,
                     winner_episode=winner_episode)
        return dict(strategy=strategy, outcome=outcome,
                    deployment=deployment, episodes=ran,
                    winner_episode=winner_episode)

    def _build(self, request: PlanRequest) -> Dict[str, Any]:
        """Build (and optionally engine-measure) an explicit strategy."""
        builder = self.builder
        deployment: Optional[ExecutionPlan] = None
        # build before evaluating: evaluate keeps only the plans that beat
        # the builder's best, build keeps every plan it serves
        try:
            with telemetry.span("pipeline.schedule", graph=self.graph.name):
                deployment = builder.build(request.strategy)
        except CompileError:
            pass    # evaluate serves the infeasible outcome build cached
        outcome = builder.evaluate(request.strategy)
        if deployment is not None:
            record_event("plan_built", dist_ops=deployment.num_dist_ops,
                         makespan=outcome.time)
        measured_time: Optional[float] = None
        measured_oom = False
        if request.measure_iterations and deployment is not None:
            measured_time, measured_oom = self._measure(
                deployment, request.measure_iterations)
        return dict(strategy=request.strategy, outcome=outcome,
                    deployment=deployment, measured_time=measured_time,
                    measured_oom=measured_oom)

    def _measure(self, deployment: ExecutionPlan,
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
