"""The four data-parallel baselines of Sec. 6.1.

- EV-PS: one replica per device, PS gradient synchronization;
- EV-AR: one replica per device, AllReduce;
- CP-PS: replicas proportional to compute power, PS;
- CP-AR: replicas proportional to compute power, AllReduce.
"""

from __future__ import annotations

from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..parallel.strategy import (
    CommMethod,
    ReplicaAllocation,
    Strategy,
    make_dp_strategy,
    uniform_strategy,
)

DP_BASELINES = ("EV-PS", "EV-AR", "CP-PS", "CP-AR")

_SPEC = {
    "EV-PS": (ReplicaAllocation.EVEN, CommMethod.PS),
    "EV-AR": (ReplicaAllocation.EVEN, CommMethod.ALLREDUCE),
    "CP-PS": (ReplicaAllocation.PROPORTIONAL, CommMethod.PS),
    "CP-AR": (ReplicaAllocation.PROPORTIONAL, CommMethod.ALLREDUCE),
}


def dp_strategy(name: str, graph: ComputationGraph,
                cluster: Cluster) -> Strategy:
    """Build one of the named DP baseline strategies."""
    try:
        allocation, comm = _SPEC[name]
    except KeyError:
        raise ValueError(
            f"unknown DP baseline {name!r}; choose from {DP_BASELINES}"
        ) from None
    return uniform_strategy(graph, cluster,
                            make_dp_strategy(cluster, allocation, comm))
