"""HetPipe-style baseline (Park et al., 2020).

HetPipe "uses heuristics to divide GPUs into multiple virtual workers,
utilizes layer-level pipeline parallelism within each virtual worker and
data parallelism across different virtual workers, but does not consider
operation-level optimization" (paper Sec. 6.8).

Reproduction at that scope:

- virtual workers (VWs) = the homogeneous GPU groups of each server;
- inside a VW, layers are partitioned into contiguous blocks across the
  VW's GPUs, balanced by FLOPs (layer-level model placement — the
  steady-state pipeline behaviour without micro-batch semantics, which
  HeteroG's synchronous setting doesn't allow anyway);
- across VWs, data parallelism with PS synchronization, batch shares
  proportional to VW aggregate compute power.

Per op this yields a DP strategy whose replica set contains one device
per VW — the device owning the op's layer block in that VW.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..parallel.strategy import (
    CommMethod,
    OpStrategy,
    ParallelKind,
    Strategy,
)


def virtual_workers(cluster: Cluster) -> List[List[str]]:
    """One virtual worker per server (homogeneous GPUs within a server)."""
    return [
        [d.device_id for d in cluster.devices_on_server(server)]
        for server in cluster.server_names()
    ]


def _layer_blocks(graph: ComputationGraph, num_blocks: int) -> Dict[str, int]:
    """Assign every op to one of ``num_blocks`` contiguous layer blocks.

    Blocks are FLOP-balanced over the *forward* ops; each backward/apply
    op is colocated with its forward op's block (the standard pipeline
    layout — splitting forward and backward across devices would move
    every activation twice).
    """
    from ..graph.op import OpPhase
    order = [n for n in graph.topological_order()
             if graph.op(n).phase in (OpPhase.INPUT, OpPhase.FORWARD,
                                      OpPhase.LOSS)]
    flops = np.asarray([max(graph.op(n).flops, 1.0) for n in order])
    cumulative = np.cumsum(flops)
    total = cumulative[-1]
    block_of: Dict[str, int] = {}
    for i, name in enumerate(order):
        block_of[name] = min(int(cumulative[i] / total * num_blocks),
                             num_blocks - 1)
    for name in graph.op_names:
        if name in block_of:
            continue
        ref = graph.op(name).forward_ref
        block_of[name] = block_of.get(ref, num_blocks - 1)
    return block_of


def strip_gradient_sync(dist):
    """Remove the synchronous gradient path (pushes, aggregation, apply,
    pulls) from a compiled graph, returning (stripped graph, bytes of
    gradient traffic removed).

    HetPipe synchronizes with *bounded staleness* (WSP): parameter pushes
    and pulls overlap the following iterations instead of gating this one,
    at the cost of the exact synchronous-SGD semantics HeteroG preserves.
    The steady-state iteration time is then
    ``max(compute-pipeline makespan, background gradient traffic time)``
    — see :func:`hetpipe_iteration_time`.
    """
    from ..parallel.distgraph import DistGraph, DistOp, DistOpKind

    # ops reachable *forward* from any parameter-gradient output form the
    # sync path: PS pushes, AGGREGATE, APPLY, pulls, AllReduce
    drop = set()
    for name in dist.topological_order():
        op = dist.op(name)
        if op.kind in (DistOpKind.AGGREGATE, DistOpKind.APPLY,
                       DistOpKind.ALLREDUCE):
            drop.add(name)
        elif any(p in drop for p in dist.predecessors(name)):
            drop.add(name)
        elif op.kind is DistOpKind.TRANSFER:
            preds = dist.predecessors(name)
            if preds and all(
                dist.op(p).source_op is not None
                and dist.op(p).source_op.produces_param_gradient
                for p in preds
            ):
                drop.add(name)  # gradient push

    stripped = DistGraph(f"{dist.name}:async")
    grad_bytes = 0.0
    for name in dist.topological_order():
        if name in drop:
            op = dist.op(name)
            if op.is_communication:
                grad_bytes += op.size_bytes
            continue
        op = dist.op(name)
        deps = [p for p in dist.predecessors(name) if p not in drop]
        stripped.add(DistOp(
            name=op.name, kind=op.kind, source_op=op.source_op,
            device=op.device, src_device=op.src_device,
            dst_device=op.dst_device, devices=op.devices,
            size_bytes=op.size_bytes, batch_fraction=op.batch_fraction,
            hierarchical=op.hierarchical,
            extra_resources=op.extra_resources,
        ), deps)
    stripped.validate()
    return stripped, grad_bytes


def aggregate_nic_bandwidth(cluster: Cluster) -> float:
    """Total inter-server bandwidth available for background sync."""
    return sum(min(s.nic.bandwidth, cluster.switch_bandwidth)
               for s in cluster.servers)


def hetpipe_iteration_time(compute_makespan: float, grad_bytes: float,
                           cluster: Cluster) -> float:
    """Steady-state HetPipe iteration time under bounded staleness:
    compute pipeline and background parameter traffic overlap fully, so
    the slower of the two paces training."""
    background = grad_bytes / max(aggregate_nic_bandwidth(cluster), 1.0)
    return max(compute_makespan, background)


def hetpipe_strategy(graph: ComputationGraph, cluster: Cluster) -> Strategy:
    """HetPipe deployment: layer blocks inside each virtual worker, DP (PS) across workers weighted by aggregate compute power."""
    vws = virtual_workers(cluster)
    # batch share per VW ~ aggregate compute power, expressed as integer
    # replica counts with the weakest VW normalized to 1
    powers = np.asarray([
        sum(cluster.device(d).compute_power for d in vw) for vw in vws
    ])
    weights = np.maximum(1, np.round(powers / powers.min()).astype(int))

    per_op: Dict[str, OpStrategy] = {}
    blocks_per_vw = [_layer_blocks(graph, len(vw)) for vw in vws]
    for name in graph.op_names:
        replicas: Dict[str, int] = {}
        for vw, weight, blocks in zip(vws, weights, blocks_per_vw):
            owner = vw[blocks[name]]
            replicas[owner] = replicas.get(owner, 0) + int(weight)
        per_op[name] = OpStrategy(
            ParallelKind.DP,
            replicas=replicas,
            comm=CommMethod.PS,
        )
    return Strategy(graph, cluster, per_op)
