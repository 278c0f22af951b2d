"""The single-GPU computation DAG (the paper's ``graphdef`` equivalent)."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ..errors import GraphError
from .op import Operation, OpPhase


class ComputationGraph:
    """A DAG of :class:`Operation` nodes with tensor edges.

    Edges are directed from producer to consumer; the tensor on edge
    ``u -> v`` is ``u``'s output.  Insertion order is preserved and used as
    the deterministic tie-break everywhere (matching TensorFlow's graphdef
    node ordering).
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self._ops: Dict[str, Operation] = {}
        self._succ: Dict[str, List[str]] = {}
        self._pred: Dict[str, List[str]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation stamp: bumped by every ``add_op`` and ``add_edge``,
        so a derived form of the graph cached under it (its fingerprint
        text) is rebuilt after a mutation."""
        return self._version

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_op(self, op: Operation, inputs: Sequence[str] = ()) -> Operation:
        if op.name in self._ops:
            raise GraphError(f"duplicate operation name: {op.name}")
        for src in inputs:
            if src not in self._ops:
                raise GraphError(f"op {op.name}: unknown input {src!r}")
        self._ops[op.name] = op
        self._succ[op.name] = []
        self._pred[op.name] = []
        self._version += 1
        for src in inputs:
            self.add_edge(src, op.name)
        return op

    def add_edge(self, src: str, dst: str) -> None:
        if src not in self._ops:
            raise GraphError(f"unknown edge source {src!r}")
        if dst not in self._ops:
            raise GraphError(f"unknown edge destination {dst!r}")
        if src == dst:
            raise GraphError(f"self-loop on {src!r}")
        if dst in self._succ[src]:
            return  # idempotent
        self._succ[src].append(dst)
        self._pred[dst].append(src)
        self._version += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops.values())

    def op(self, name: str) -> Operation:
        try:
            return self._ops[name]
        except KeyError:
            raise GraphError(f"unknown operation {name!r}") from None

    @property
    def ops(self) -> List[Operation]:
        return list(self._ops.values())

    @property
    def op_names(self) -> List[str]:
        return list(self._ops.keys())

    def successors(self, name: str) -> List[str]:
        return list(self._succ[name])

    def predecessors(self, name: str) -> List[str]:
        return list(self._pred[name])

    def in_degree(self, name: str) -> int:
        return len(self._pred[name])

    def out_degree(self, name: str) -> int:
        return len(self._succ[name])

    def edges(self) -> Iterator[Tuple[str, str]]:
        for src, dsts in self._succ.items():
            for dst in dsts:
                yield (src, dst)

    def num_edges(self) -> int:
        return sum(len(d) for d in self._succ.values())

    def sources(self) -> List[str]:
        return [n for n in self._ops if not self._pred[n]]

    def ops_in_phase(self, phase: OpPhase) -> List[Operation]:
        return [op for op in self._ops.values() if op.phase is phase]

    # ------------------------------------------------------------------ #
    # algorithms
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[str]:
        """Kahn's algorithm; deterministic (insertion order tie-break)."""
        indeg = {n: len(p) for n, p in self._pred.items()}
        ready = [n for n in self._ops if indeg[n] == 0]
        order: List[str] = []
        head = 0
        while head < len(ready):
            node = ready[head]
            head += 1
            order.append(node)
            for succ in self._succ[node]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._ops):
            raise GraphError(f"graph {self.name!r} contains a cycle")
        return order

    def validate(self) -> None:
        """Raise :class:`GraphError` if the graph is not a valid DAG."""
        self.topological_order()

    def undirected_hop_distances(self, sources: Iterable[str]) -> Dict[str, Tuple[int, str]]:
        """Multi-source BFS over the undirected graph.

        Returns, for every node, ``(hops, nearest_source)`` — used by the
        nearest-neighbour grouping of Sec. 4.1.1.  Ties broken by source
        insertion order via BFS expansion order.
        """
        dist: Dict[str, Tuple[int, str]] = {}
        frontier: List[str] = []
        for s in sources:
            if s not in self._ops:
                raise GraphError(f"unknown grouping source {s!r}")
            if s not in dist:
                dist[s] = (0, s)
                frontier.append(s)
        while frontier:
            nxt: List[str] = []
            for node in frontier:
                hops, root = dist[node]
                for nbr in self._succ[node] + self._pred[node]:
                    if nbr not in dist:
                        dist[nbr] = (hops + 1, root)
                        nxt.append(nbr)
            frontier = nxt
        return dist

    # ------------------------------------------------------------------ #
    # summary statistics
    # ------------------------------------------------------------------ #
    def batch_size(self) -> int:
        """The global batch: the first batched INPUT op's (0 if none)."""
        for op in self:
            if op.phase is OpPhase.INPUT and op.output.batch_size:
                return int(op.output.batch_size)
        return 0

    def total_flops(self) -> float:
        return sum(op.flops for op in self._ops.values())

    def total_param_bytes(self) -> int:
        """Bytes of trainable parameters (counted once, on forward ops)."""
        return sum(
            op.param_bytes
            for op in self._ops.values()
            if op.phase in (OpPhase.FORWARD, OpPhase.LOSS)
        )

    def stats(self) -> Dict[str, float]:
        return {
            "ops": len(self._ops),
            "edges": self.num_edges(),
            "total_flops": self.total_flops(),
            "param_bytes": self.total_param_bytes(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ComputationGraph({self.name!r}, ops={len(self._ops)}, "
            f"edges={self.num_edges()})"
        )
