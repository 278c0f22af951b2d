"""Horovod baseline (Sergeev & Del Balso, 2018).

Horovod's model: one full model replica per device, ring AllReduce with
Tensor Fusion (the compiler's shared 4 MiB buckets, not Horovod's 64 MB
default, so no scheme gets its own bucket size), framework-default
execution order (no order scheduling), no heterogeneity awareness.
Equivalent to EV-AR compiled without HeteroG's rank-based order
enforcement.
"""

from __future__ import annotations

from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..parallel.strategy import Strategy
from .dp import dp_strategy


def horovod_strategy(graph: ComputationGraph, cluster: Cluster) -> Strategy:
    """Horovod semantics: one replica per device, AllReduce everywhere."""
    return dp_strategy("EV-AR", graph, cluster)
