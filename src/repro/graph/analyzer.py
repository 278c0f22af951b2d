"""Graph Analyzer (paper Sec. 3.2): the checks a graph must pass before
it is planned.

HeteroG reads the low-level graphdef of a *training* job, whichever
high-level API built the model.  Every planning context runs these
checks once, when it is created, so every front door (the
:class:`~repro.heterog.HeteroG` facade, the client API and the planning
service) rejects a graph that is not a training graph the same way.
"""

from __future__ import annotations

from ..errors import GraphError
from .dag import ComputationGraph
from .op import OpPhase


def check_training_graph(graph: ComputationGraph) -> None:
    """Raise :class:`GraphError` unless ``graph`` has backward ops and
    every parameter gradient feeds a consumer (its ApplyGradient)."""
    if not any(op.phase is OpPhase.BACKWARD for op in graph):
        raise GraphError(
            f"graph {graph.name!r} has no backward ops; build it with "
            "build_training_graph()"
        )
    for op in graph:
        if op.produces_param_gradient and not graph.successors(op.name):
            raise GraphError(
                f"parameter gradient {op.name!r} has no consumer "
                "(missing ApplyGradient)"
            )
