"""Deployment bundle: compiled graph + schedule + placement metadata.

``build_deployment`` is the one canonical constructor: it accepts
either a ready :class:`~repro.plan.ExecutionPlan` or a
(graph, cluster, strategy) triple, runs the plan layer when needed, and
re-shapes the plan into the engine-facing :class:`Deployment` (plus the
plan itself, for consumers that want the fingerprint or capacities).
The historical ``make_deployment`` / ``deployment_from_plan`` split was
removed after a deprecation cycle; both call shapes live on as the two
forms of ``build_deployment``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from ..cluster.topology import Cluster
from ..errors import ReproError
from ..graph.dag import ComputationGraph
from ..parallel.distgraph import DistGraph
from ..parallel.strategy import Strategy
from ..plan import ExecutionPlan, PlanBuilder
from ..profiling.profiler import Profile
from ..scheduling.list_scheduler import Schedule


@dataclass
class Deployment:
    """Everything needed to execute a strategy on the cluster."""

    graph: ComputationGraph
    cluster: Cluster
    strategy: Strategy
    dist: DistGraph
    schedule: Schedule
    resident_bytes: Dict[str, int]
    profile: Profile
    plan: Optional[ExecutionPlan] = None

    @property
    def num_dist_ops(self) -> int:
        return len(self.dist)


def build_deployment(source: Union[ExecutionPlan, ComputationGraph],
                     cluster: Optional[Cluster] = None,
                     strategy: Optional[Strategy] = None, *,
                     profile: Optional[Profile] = None,
                     use_order_scheduling: bool = True,
                     builder: Optional[PlanBuilder] = None) -> Deployment:
    """The canonical Deployment constructor.

    Two call shapes:

    - ``build_deployment(plan)`` — re-shape an already-built
      :class:`ExecutionPlan` (no compilation happens);
    - ``build_deployment(graph, cluster, strategy, ...)`` — compile +
      schedule through the plan layer.  Pass ``builder`` to reuse an
      existing :class:`PlanBuilder` (and its plan cache) instead of
      constructing a fresh context.
    """
    if isinstance(source, ExecutionPlan):
        if cluster is not None or strategy is not None \
                or builder is not None:
            raise ReproError(
                "build_deployment(plan) takes no cluster/strategy/builder "
                "— the plan already carries them"
            )
        plan = source
    else:
        if not isinstance(source, ComputationGraph):
            raise ReproError(
                f"build_deployment takes an ExecutionPlan or a "
                f"ComputationGraph, got {type(source).__name__}"
            )
        if cluster is None or strategy is None:
            raise ReproError(
                "build_deployment(graph, ...) needs both a cluster and a "
                "strategy"
            )
        if builder is None:
            builder = PlanBuilder(
                source, cluster, profile,
                use_order_scheduling=use_order_scheduling,
            )
        plan = builder.build(strategy)
    return Deployment(
        graph=plan.graph,
        cluster=plan.cluster,
        strategy=plan.strategy,
        dist=plan.dist,
        schedule=plan.schedule,
        resident_bytes=dict(plan.resident_bytes),
        profile=plan.profile,
        plan=plan,
    )
