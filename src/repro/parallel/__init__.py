"""Parallelism strategies, distributed graph IR, and the Graph Compiler."""

from .aggregation import (
    allreduce_time,
    choose_allreduce,
    choose_ps_device,
    cluster_link_lookup,
    hierarchical_allreduce_time,
    ring_allreduce_time,
)
from .compiler import GraphCompiler
from .pipeline import pipeline_graph
from .distgraph import NCCL_RESOURCE, DistGraph, DistOp, DistOpKind
from .strategy import (
    CommMethod,
    OpStrategy,
    ParallelKind,
    ReplicaAllocation,
    Strategy,
    even_replica_counts,
    make_dp_strategy,
    make_mp_strategy,
    proportional_replica_counts,
    single_device_strategy,
    uniform_strategy,
)

__all__ = [
    "GraphCompiler",
    "pipeline_graph",
    "DistGraph",
    "DistOp",
    "DistOpKind",
    "NCCL_RESOURCE",
    "Strategy",
    "OpStrategy",
    "ParallelKind",
    "CommMethod",
    "ReplicaAllocation",
    "uniform_strategy",
    "single_device_strategy",
    "make_dp_strategy",
    "make_mp_strategy",
    "even_replica_counts",
    "proportional_replica_counts",
    "ring_allreduce_time",
    "hierarchical_allreduce_time",
    "allreduce_time",
    "choose_allreduce",
    "choose_ps_device",
    "cluster_link_lookup",
]
