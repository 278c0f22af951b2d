"""Gradient fusion: bucketing small AllReduces into larger collectives.

Horovod's "tensor fusion" and TF's ScopedAllocator both exist because a
ring AllReduce has a fixed launch/synchronization cost per collective
(modelled by ``NCCL_LAUNCH_OVERHEAD`` plus per-step latencies): a deep
model with hundreds of small gradients pays that cost hundreds of times.
Fusing consecutive gradients into buckets trades a little extra waiting
(the bucket starts only when all its gradients are ready) for far fewer
collectives.

This is an optional post-pass over the compiled distributed graph; the
fusion ablation benchmark sweeps the bucket size.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import CompileError
from .distgraph import DistGraph, DistOp, DistOpKind

DEFAULT_BUCKET_BYTES = 64 * 1024 * 1024


def fuse_allreduces(dist: DistGraph, bucket_bytes: int = DEFAULT_BUCKET_BYTES
                    ) -> DistGraph:
    """Fuse AllReduce collectives over the same device ring into buckets.

    Collectives are packed greedily in topological order; a bucket closes
    when adding the next gradient would exceed ``bucket_bytes`` (a single
    oversized gradient still gets its own collective).  Dependencies and
    the per-device apply ops are re-wired onto the fused node.  Returns a
    new graph; the input is unmodified.
    """
    if bucket_bytes <= 0:
        raise CompileError(f"bucket_bytes must be positive: {bucket_bytes}")

    topo = dist.topological_order()
    topo_pos = {name: i for i, name in enumerate(topo)}

    # bucket AllReduce ops per participating device ring
    by_ring: Dict[tuple, List[str]] = {}
    for name in topo:
        op = dist.op(name)
        if op.kind is DistOpKind.ALLREDUCE:
            by_ring.setdefault(op.devices, []).append(name)

    bucket_of: Dict[str, int] = {}
    buckets: List[List[str]] = []
    for ring, names in by_ring.items():
        names.sort(key=lambda n: topo_pos[n])
        current: List[str] = []
        current_bytes = 0.0
        for name in names:
            size = dist.op(name).size_bytes
            if current and current_bytes + size > bucket_bytes:
                buckets.append(current)
                current, current_bytes = [], 0.0
            current.append(name)
            current_bytes += size
        if current:
            buckets.append(current)
    for i, bucket in enumerate(buckets):
        for name in bucket:
            bucket_of[name] = i

    out = DistGraph(f"{dist.name}:fused")
    fused_name: Dict[int, str] = {}

    # pass 1: create every node (fused collectives, plus the input's
    # other ops as they are)
    for idx, members in enumerate(buckets):
        rep = dist.op(members[0])
        fused = DistOp(
            name=(members[0] if len(members) == 1
                  else f"fused_ar:{idx}(x{len(members)})"),
            kind=DistOpKind.ALLREDUCE,
            devices=rep.devices,
            size_bytes=sum(dist.op(m).size_bytes for m in members),
            hierarchical=rep.hierarchical,
            extra_resources=rep.extra_resources,
        )
        out.add(fused)
        fused_name[idx] = fused.name
    for name in topo:
        op = dist.op(name)
        if op.kind is not DistOpKind.ALLREDUCE:
            out.add(op)

    # pass 2: re-wire edges through the fused nodes
    def mapped(name: str) -> str:
        if name in bucket_of:
            return fused_name[bucket_of[name]]
        return name

    for src, dst_list in ((n, dist.successors(n)) for n in topo):
        for dst in dst_list:
            out.add_edge(mapped(src), mapped(dst))

    out.validate()
    return out


def count_collectives(dist: DistGraph) -> int:
    """Number of AllReduce nodes in a distributed graph."""
    return sum(1 for o in dist if o.kind is DistOpKind.ALLREDUCE)
