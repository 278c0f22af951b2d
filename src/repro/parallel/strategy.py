"""Deployment-strategy types (paper Sec. 3.3, decisions (i) and (ii)).

Per operation (group), HeteroG's action space is ``M + 4``-way:

- one of ``M`` *model-parallelism* actions: place the op on GPU ``m``
  without replication;
- four *data-parallelism* actions: {even, proportional} replica
  allocation x {PS, AllReduce} gradient aggregation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from ..cluster.topology import Cluster
from ..errors import StrategyError
from ..graph.dag import ComputationGraph


class CommMethod(enum.Enum):
    """Gradient synchronization method (PS or AllReduce)."""
    PS = "ps"
    ALLREDUCE = "allreduce"


class ParallelKind(enum.Enum):
    """Parallelism kind: MP (single placement) or DP (replicated)."""
    MP = "mp"  # single placement, no replication
    DP = "dp"  # replicated, input split along batch


class ReplicaAllocation(enum.Enum):
    """DP replica allocation: even or compute-power proportional."""
    EVEN = "even"              # one replica per device
    PROPORTIONAL = "proportional"  # replicas ~ device compute power


@dataclass(frozen=True)
class OpStrategy:
    """Parallelism decision for one operation (or op group)."""

    kind: ParallelKind
    device: Optional[str] = None  # MP target
    replicas: Mapping[str, int] = field(default_factory=dict)  # DP: dev->count
    comm: Optional[CommMethod] = None  # DP: gradient aggregation method
    allocation: Optional[ReplicaAllocation] = None  # DP: how replicas chosen

    def __post_init__(self) -> None:
        if self.kind is ParallelKind.MP:
            if not self.device:
                raise StrategyError("MP strategy needs a target device")
            if self.replicas:
                raise StrategyError("MP strategy must not carry replicas")
        else:
            if not self.replicas:
                raise StrategyError("DP strategy needs a replica allocation")
            if any(c <= 0 for c in self.replicas.values()):
                raise StrategyError(f"non-positive replica count: {self.replicas}")
            if self.comm is None:
                raise StrategyError("DP strategy needs a gradient comm method")
        # the per-object caches (batch shares, fingerprint text), added
        # in one order on every instance so that instances keep sharing
        # their attribute-dict keys
        object.__setattr__(self, "_shares_cache", None)
        object.__setattr__(self, "_fingerprint_text", None)

    # ------------------------------------------------------------------ #
    @property
    def total_replicas(self) -> int:
        if self.kind is ParallelKind.MP:
            return 1
        return sum(self.replicas.values())

    def devices(self) -> List[str]:
        """Distinct devices this op touches, in allocation order."""
        if self.kind is ParallelKind.MP:
            return [self.device]  # type: ignore[list-item]
        return list(self.replicas.keys())

    def batch_shares(self) -> Dict[str, float]:
        """Fraction of the global batch processed on each device.

        Replicas each process ``1/total`` of the batch; multiple replicas
        of the same op on the same device are merged for costing purposes
        (their compute scales linearly with the combined batch share).

        The mapping is computed once per strategy and shared across
        callers; treat it as read-only.
        """
        cached = self._shares_cache
        if cached is not None:
            return cached
        if self.kind is ParallelKind.MP:
            shares = {self.device: 1.0}  # type: ignore[dict-item]
        else:
            total = self.total_replicas
            shares = {d: c / total for d, c in self.replicas.items()}
        object.__setattr__(self, "_shares_cache", shares)
        return shares

    def label(self) -> str:
        """Human-readable strategy class, matching Table 2's columns."""
        if self.kind is ParallelKind.MP:
            return f"MP:{self.device}"
        alloc = "EV" if self.allocation is ReplicaAllocation.EVEN else "CP"
        comm = "PS" if self.comm is CommMethod.PS else "AR"
        return f"{alloc}-{comm}"


def proportional_replica_counts(cluster: Cluster) -> Dict[str, int]:
    """Integer replica counts proportional to device compute power.

    The weakest device gets one replica; others get
    ``round(power / weakest_power)`` — e.g. the paper's V100:1080Ti = 2:1
    yields two replicas per V100 and one per 1080Ti (Sec. 2.3).
    """
    rel = cluster.relative_powers()
    return {d: max(1, round(r)) for d, r in rel.items()}


def even_replica_counts(cluster: Cluster) -> Dict[str, int]:
    """One replica per device."""
    return {d: 1 for d in cluster.device_ids}


def make_dp_strategy(cluster: Cluster, allocation: ReplicaAllocation,
                     comm: CommMethod) -> OpStrategy:
    """DP OpStrategy for a cluster with the given allocation and comm."""
    counts = (
        even_replica_counts(cluster)
        if allocation is ReplicaAllocation.EVEN
        else proportional_replica_counts(cluster)
    )
    return OpStrategy(ParallelKind.DP, replicas=counts, comm=comm,
                      allocation=allocation)


def make_mp_strategy(device: str) -> OpStrategy:
    """MP OpStrategy pinned to one device."""
    return OpStrategy(ParallelKind.MP, device=device)


class Strategy:
    """A full Part-I decision: one :class:`OpStrategy` per operation."""

    def __init__(self, graph: ComputationGraph, cluster: Cluster,
                 per_op: Optional[Mapping[str, OpStrategy]] = None):
        self.graph = graph
        self.cluster = cluster
        self._per_op: Dict[str, OpStrategy] = dict(per_op or {})
        # op name -> (assigned strategy, its MP demotion); the compiler
        # calls get() for every op instance, so the demoted OpStrategy is
        # built once per assignment instead of once per call
        self._demoted: Dict[str, tuple] = {}
        # context fingerprint -> this strategy's digest in that context
        # (repro.plan.fingerprint); set() forgets them
        self._fingerprints: Dict[str, str] = {}
        self._validate()

    def _validate(self) -> None:
        known = set(self.cluster.device_ids)
        for name, st in self._per_op.items():
            if name not in self.graph:
                raise StrategyError(f"strategy for unknown op {name!r}")
            for dev in st.devices():
                if dev not in known:
                    raise StrategyError(
                        f"op {name!r} placed on unknown device {dev!r}"
                    )

    # ------------------------------------------------------------------ #
    def set(self, op_name: str, strategy: OpStrategy) -> None:
        if op_name not in self.graph:
            raise StrategyError(f"unknown op {op_name!r}")
        self._per_op[op_name] = strategy
        self._demoted.pop(op_name, None)
        self._fingerprints.clear()

    def get(self, op_name: str) -> OpStrategy:
        """Strategy for an op, demoting DP to MP for non-replicable ops."""
        st = self._per_op.get(op_name)
        if st is None:
            raise StrategyError(f"no strategy assigned for op {op_name!r}")
        op = self.graph.op(op_name)
        if st.kind is ParallelKind.DP and not op.is_replicable:
            # Sec. 5: ops without batch-scaled work are never replicated;
            # pin them to the strongest device of the chosen allocation.
            cached = self._demoted.get(op_name)
            if cached is None or cached[0] is not st:
                cached = (st, make_mp_strategy(st.devices()[0]))
                self._demoted[op_name] = cached
            return cached[1]
        return st

    def items(self) -> Iterable:
        return self._per_op.items()

    # ------------------------------------------------------------------ #
    def strategy_mix(self) -> Dict[str, float]:
        """Fraction of ops per strategy label (Tables 2 and 3)."""
        counts: Dict[str, int] = {}
        total = 0
        for name in self.graph.op_names:
            label = self.get(name).label()
            counts[label] = counts.get(label, 0) + 1
            total += 1
        return {k: v / total for k, v in counts.items()}


def uniform_strategy(graph: ComputationGraph, cluster: Cluster,
                     op_strategy: OpStrategy) -> Strategy:
    """Apply one strategy to every op (the DP baselines of Sec. 6.1)."""
    return Strategy(graph, cluster,
                    {name: op_strategy for name in graph.op_names})


def single_device_strategy(graph: ComputationGraph, cluster: Cluster,
                           device: Optional[str] = None) -> Strategy:
    """Everything on one GPU — the original single-device deployment."""
    target = device or cluster.device_ids[0]
    return uniform_strategy(graph, cluster, make_mp_strategy(target))
