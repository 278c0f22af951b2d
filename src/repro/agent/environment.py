"""The Strategy Maker's environment: a thin veneer over the plan layer.

The Simulator "estimates the per-iteration training time for setting
rewards for GNN training, and also tracks memory usage on each device, to
set bad rewards for strategies leading to memory overflow" (Sec. 3.3).
All timings here come from the *profiler's* predictions — the testbed
(TruthCostModel) is never consulted during strategy search.

The actual compile -> schedule -> simulate chain lives in
:class:`repro.plan.PlanBuilder`; this class only binds one to the agent's
(graph, cluster, profile) context.  Resident bytes travel inside the
:class:`~repro.plan.ExecutionPlan` (the old ``_last_resident``
side-channel is gone), and repeated evaluations of the same strategy are
served from the builder's fingerprint-keyed caches.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..parallel.distgraph import DistGraph
from ..parallel.strategy import Strategy
from ..plan import EvalOutcome, ExecutionPlan, PlanBuilder
from ..profiling.profiler import Profile

__all__ = ["EvalOutcome", "StrategyEvaluator"]


class StrategyEvaluator:
    """Evaluates strategies for one (graph, cluster, profile) context."""

    def __init__(self, graph: ComputationGraph, cluster: Cluster,
                 profile: Profile, *, use_order_scheduling: bool = True,
                 group_of: Optional[Dict[str, int]] = None):
        self.graph = graph
        self.cluster = cluster
        self.profile = profile
        self.use_order_scheduling = use_order_scheduling
        self.group_of = group_of
        self.builder = PlanBuilder(
            graph, cluster, profile,
            use_order_scheduling=use_order_scheduling, group_of=group_of,
        )
        self.cost = self.builder.cost
        self.capacities = self.builder.capacities

    def plan(self, strategy: Strategy) -> ExecutionPlan:
        """Compile + schedule a strategy into a cached ExecutionPlan."""
        return self.builder.build(strategy)

    def compile(self, strategy: Strategy) -> DistGraph:
        """Compile a strategy; raises :class:`CompileError` if invalid."""
        return self.builder.build(strategy).dist

    def evaluate(self, strategy: Strategy, *, trace: bool = False,
                 best=None, prune: bool = True,
                 prune_above: Optional[float] = None) -> EvalOutcome:
        return self.builder.evaluate(strategy, trace=trace, best=best,
                                     prune=prune, prune_above=prune_above)
