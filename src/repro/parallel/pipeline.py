"""Micro-batch pipelining on top of a compiled distributed graph.

Paper Sec. 7: "If retaining model training semantics was not a concern,
HeteroG can be readily integrated with a pipelining design: after
producing the distributed training graph, we can further split a
mini-batch into micro-batches, carry out pipelined training across
operations deployed on different devices, and augment our execution
order scheduling algorithm to handle such micro-batches."

This module implements exactly that (GPipe-style *synchronous* pipeline,
so parameter semantics are still preserved — gradients from all
micro-batches are summed before one apply):

- every batch-scaled compute op (and the batched transfers between them)
  is cloned per micro-batch at 1/k of the batch share;
- parameter-gradient micro-clones feed a per-device micro-sum, after
  which the original PS/AllReduce aggregation runs once, unchanged;
- the existing rank-based order scheduler handles the pipelined graph
  as-is (micro-batches are just more nodes), giving the 1F1B-like
  interleaving automatically.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import CompileError
from .distgraph import DistGraph, DistOp, DistOpKind


def _splittable_compute(op: DistOp) -> bool:
    """Compute ops whose work scales with the batch share."""
    if op.kind in (DistOpKind.SPLIT, DistOpKind.CONCAT):
        return True
    if op.kind is not DistOpKind.COMPUTE:
        return False
    if op.source_op is None:
        return False
    return bool(op.source_op.batch_scaled)


def _is_micro_grad(op: DistOp) -> bool:
    """Batch-scaled compute producing a full-size parameter gradient."""
    return (op.kind is DistOpKind.COMPUTE
            and op.source_op is not None
            and op.source_op.produces_param_gradient)


def pipeline_graph(dist: DistGraph, num_microbatches: int) -> DistGraph:
    """Clone batch-scaled work per micro-batch; keep aggregation single.

    Returns a new :class:`DistGraph`; the input graph is not modified.
    """
    if num_microbatches < 1:
        raise CompileError(
            f"num_microbatches must be >= 1, got {num_microbatches}"
        )
    if num_microbatches == 1:
        return dist

    k = num_microbatches
    split: Dict[str, bool] = {}
    for name in dist.op_names:
        split[name] = _splittable_compute(dist.op(name))
    # a transfer splits iff both endpoints split (per-micro-batch slices);
    # gradient pushes/pulls and collective payloads stay whole
    for name in dist.op_names:
        op = dist.op(name)
        if op.kind is DistOpKind.TRANSFER:
            preds = dist.predecessors(name)
            succs = dist.successors(name)
            split[name] = bool(preds) and bool(succs) and all(
                split[p] for p in preds
            ) and all(split[s] for s in succs)

    out = DistGraph(f"{dist.name}:pipeline{k}")

    def clone(op: DistOp, suffix: str, fraction_scale: float,
              size_scale: float) -> DistOp:
        return DistOp(
            name=f"{op.name}{suffix}",
            kind=op.kind,
            source_op=op.source_op,
            device=op.device,
            src_device=op.src_device,
            dst_device=op.dst_device,
            devices=op.devices,
            size_bytes=op.size_bytes * size_scale,
            batch_fraction=op.batch_fraction * fraction_scale,
            hierarchical=op.hierarchical,
            extra_resources=op.extra_resources,
        )

    # instance names per original dist-op: either [name] or k micro names
    instances: Dict[str, List[str]] = {}
    # for micro-grads: the name of the micro-sum node consumers attach to
    microsum_of: Dict[str, str] = {}

    for name in dist.topological_order():
        op = dist.op(name)
        if split[name]:
            names = []
            for m in range(k):
                micro = clone(op, f"~mb{m}", 1.0 / k,
                              1.0 / k if op.kind is DistOpKind.TRANSFER
                              or op.kind in (DistOpKind.SPLIT,
                                             DistOpKind.CONCAT)
                              else 1.0)
                deps = _micro_deps(dist, out, instances, microsum_of,
                                   name, m)
                out.add(micro, deps)
                names.append(micro.name)
            instances[name] = names
            if _is_micro_grad(op):
                # sum the k partial gradients on-device before aggregation
                grad_bytes = float(op.source_op.output.size_bytes)
                microsum = DistOp(
                    name=f"{name}~microsum",
                    kind=DistOpKind.AGGREGATE,
                    device=op.device,
                    size_bytes=grad_bytes * k,
                )
                out.add(microsum, names)
                microsum_of[name] = microsum.name
        else:
            single = clone(op, "", 1.0, 1.0)
            deps: List[str] = []
            for pred in dist.predecessors(name):
                deps.extend(_attach_points(instances, microsum_of, pred))
            out.add(single, deps)
            instances[name] = [single.name]

    out.validate()
    return out


def _attach_points(instances: Dict[str, List[str]],
                   microsum_of: Dict[str, str], pred: str) -> List[str]:
    """What a non-split consumer of ``pred`` must wait for."""
    if pred in microsum_of:
        return [microsum_of[pred]]
    return instances[pred]


def _micro_deps(dist: DistGraph, out: DistGraph,
                instances: Dict[str, List[str]],
                microsum_of: Dict[str, str],
                name: str, m: int) -> List[str]:
    """Dependencies of micro-batch ``m`` of op ``name``."""
    deps: List[str] = []
    for pred in dist.predecessors(name):
        pred_instances = instances[pred]
        if len(pred_instances) > 1:
            deps.append(pred_instances[m])  # same micro-batch lane
        else:
            deps.extend(_attach_points(instances, microsum_of, pred))
    return deps


def pipeline_ladder_strategy(graph, cluster, stages: Optional[int] = None):
    """A model-parallel pipeline ladder: forward ops are partitioned into
    contiguous FLOP-balanced stages across devices; each backward/apply op
    is colocated with its forward op's stage (the standard pipeline
    layout: activations flow down the ladder, gradients flow back up)."""
    import numpy as np

    from ..graph.op import OpPhase
    from .strategy import Strategy, make_mp_strategy

    stages = stages or cluster.num_devices
    stages = min(stages, cluster.num_devices)
    order = [n for n in graph.topological_order()
             if graph.op(n).phase in (OpPhase.INPUT, OpPhase.FORWARD,
                                      OpPhase.LOSS)]
    flops = np.asarray([max(graph.op(n).flops, 1.0) for n in order])
    cumulative = np.cumsum(flops)
    total = cumulative[-1]
    stage_of: Dict[str, int] = {}
    for i, name in enumerate(order):
        stage_of[name] = min(int(cumulative[i] / total * stages), stages - 1)
    per = {}
    for name in graph.op_names:
        op = graph.op(name)
        if name in stage_of:
            stage = stage_of[name]
        elif op.forward_ref is not None and op.forward_ref in stage_of:
            stage = stage_of[op.forward_ref]
        else:
            stage = stages - 1  # loss gradient etc.
        per[name] = make_mp_strategy(cluster.device_ids[stage])
    return Strategy(graph, cluster, per)


def pipeline_speedup_estimate(num_stages: int, num_microbatches: int
                              ) -> float:
    """Ideal pipeline efficiency: k / (k + s - 1) for s stages."""
    if num_stages < 1 or num_microbatches < 1:
        raise CompileError("stages and micro-batches must be >= 1")
    return num_microbatches / (num_microbatches + num_stages - 1)
