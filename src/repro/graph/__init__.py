"""Computation-graph IR: operations, tensors, DAGs, analysis, grouping."""

from .analyzer import check_training_graph
from .builder import GraphBuilder, build_training_graph
from .dag import ComputationGraph
from .op import DTYPE_BYTES, Operation, OpPhase, TensorSpec

__all__ = [
    "ComputationGraph",
    "GraphBuilder",
    "Operation",
    "OpPhase",
    "TensorSpec",
    "DTYPE_BYTES",
    "build_training_graph",
    "check_training_graph",
]
