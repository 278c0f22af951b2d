"""Horovod baseline (Sergeev & Del Balso, 2018).

Horovod's model: one full model replica per device, ring AllReduce for
every gradient, framework-default execution order (no order scheduling),
no heterogeneity awareness.  Equivalent to EV-AR compiled without
HeteroG's rank-based order enforcement.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..parallel.strategy import Strategy
from ..plan import ExecutionPlan, PlanBuilder
from ..profiling.profiler import Profile
from .dp import dp_strategy


def horovod_strategy(graph: ComputationGraph, cluster: Cluster) -> Strategy:
    """Horovod semantics: one replica per device, AllReduce everywhere."""
    return dp_strategy("EV-AR", graph, cluster)


def horovod_deployment(graph: ComputationGraph, cluster: Cluster,
                       profile: Optional[Profile] = None) -> ExecutionPlan:
    """Compile Horovod's strategy under the framework-default order."""
    strategy = horovod_strategy(graph, cluster)
    return PlanBuilder(graph, cluster, profile,
                       use_order_scheduling=False).build(strategy)
