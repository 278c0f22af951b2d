"""Graph Analyzer (paper Sec. 3.2).

Extracts the low-level view of the DNN computation graph that the Strategy
Maker consumes: deterministic node indexing, per-phase partition, tensor
sizes on edges, and structural statistics.  This is the equivalent of
reading TensorFlow's ``graphdef`` regardless of which high-level API built
the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import GraphError
from .dag import ComputationGraph
from .op import Operation, OpPhase


@dataclass
class GraphAnalysis:
    """Immutable analysis products for one computation graph."""

    graph: ComputationGraph
    topo_order: List[str]
    index: Dict[str, int]
    phases: Dict[OpPhase, List[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def param_ops(self) -> List[Operation]:
        """Forward ops owning trainable parameters."""
        return [
            op for op in self.graph
            if op.param_bytes > 0 and op.phase in (OpPhase.FORWARD, OpPhase.LOSS)
        ]

    def gradient_ops(self) -> List[Operation]:
        """Backward ops producing parameter gradients (need aggregation)."""
        return [op for op in self.graph if op.produces_param_gradient]

    def longest_path_flops(self) -> float:
        """Critical-path FLOPs — a device-independent lower-bound proxy."""
        best: Dict[str, float] = {}
        for name in reversed(self.topo_order):
            op = self.graph.op(name)
            succ_best = max(
                (best[s] for s in self.graph.successors(name)), default=0.0
            )
            best[name] = op.flops + succ_best
        return max(best.values(), default=0.0)

    def summary(self) -> Dict[str, float]:
        out = dict(self.graph.stats())
        out["param_ops"] = len(self.param_ops())
        out["gradient_ops"] = len(self.gradient_ops())
        out["critical_path_flops"] = self.longest_path_flops()
        return out


class GraphAnalyzer:
    """Analyzes a computation DAG prior to strategy making."""

    def analyze(self, graph: ComputationGraph) -> GraphAnalysis:
        topo = graph.topological_order()
        index = {name: i for i, name in enumerate(graph.op_names)}
        phases: Dict[OpPhase, List[str]] = {p: [] for p in OpPhase}
        for op in graph:
            phases[op.phase].append(op.name)

        # Sanity checks a graphdef from a training job must satisfy.
        if not phases[OpPhase.BACKWARD]:
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
        return GraphAnalysis(graph=graph, topo_order=topo, index=index,
                             phases=phases)
