"""Test-only oracle: the original string-keyed graph compiler.

:class:`ReferenceCompiler` is the compiler as it was before compiles
were lowered into simulation-kernel arrays at emission time: every op
goes through ``DistGraph.add`` with string dependencies, per-op
strategies are re-resolved on every use, and ``dist.validate()`` lowers
the finished graph in a second walk.  The code is unchanged apart from
its name and imports (absolute, unused ones dropped), and it keeps the old per-call contract
(``compiler.resident_bytes`` after ``compile``).  It also holds the
reference AllReduce bucketing (``bucket_bytes``): pending gradients are
kept per ring as ``(op, apply op, instance names)`` entries and fused
into one ``DistOp`` when their ring's bucket closes.
``tests/test_compile_oracle.py`` pairs :class:`repro.parallel.GraphCompiler`
against it field for field.

Original module docstring:

Graph Compiler (paper Sec. 3.4 / Sec. 5, Fig. 7).

Applies a Part-I strategy to the single-GPU training DAG and produces the
distributed training graph:

- **Operation replication** — one compute instance per device holding
  replicas; multiple replicas of an op on the same device are merged into
  one instance carrying their combined batch share (cost-equivalent: work
  is linear in the batch share).
- **Split/Concat insertion** — when adjacent ops have mismatched replica
  allocations, outputs are gathered (Concat) on one device, re-partitioned
  (Split) and the slices shipped to the consumers, exactly as Fig. 7.
- **Gradient aggregation** — parameter-gradient ops get PS push/aggregate/
  apply/pull chains or NCCL AllReduce collectives, per the strategy's
  communication method.  The PS is colocated with the replica device that
  minimizes aggregation completion time; AllReduce picks ring vs
  hierarchical per collective.

Parameter-gradient and ApplyGradient ops are canonicalized to follow the
*forward* op's placement (parameters live where the forward replicas are;
cf. Table 2's observation that heavy layers and "the operations to compute
their gradients" are placed together).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.topology import Cluster
from repro.errors import CompileError
from repro.graph.dag import ComputationGraph
from repro.graph.op import Operation, OpPhase
from repro.profiling.cost_model import op_resident_bytes
from repro.profiling.profiler import Profile
from repro.parallel.aggregation import (LinkLookup, choose_allreduce,
                                        choose_ps_device)
from repro.parallel.compiler import ALLREDUCE_BUCKET_BYTES
from repro.parallel.distgraph import DistGraph, DistOp, DistOpKind
from repro.parallel.strategy import OpStrategy, Strategy

_SHARE_TOL = 1e-9


class ReferenceCompiler:
    """Compiles (graph, strategy) -> :class:`DistGraph`."""

    def __init__(self, cluster: Cluster, profile: Optional[Profile] = None,
                 bucket_bytes: Optional[int] = ALLREDUCE_BUCKET_BYTES):
        self.cluster = cluster
        self.profile = profile
        self.bucket_bytes = bucket_bytes
        self._lookup = self._make_lookup()
        self._nic_cache: Dict[Tuple[str, str], Tuple[str, ...]] = {}

    def _make_lookup(self) -> LinkLookup:
        if self.profile is not None:
            profile = self.profile

            def lookup(src: str, dst: str) -> Tuple[float, float]:
                model = profile.link_models.get((src, dst))
                if model is None:
                    link = self.cluster.link(src, dst)
                    return link.bandwidth, link.latency
                return model.bandwidth, model.latency

            return lookup

        def lookup(src: str, dst: str) -> Tuple[float, float]:
            link = self.cluster.link(src, dst)
            return link.bandwidth, link.latency

        return lookup

    # ------------------------------------------------------------------ #
    def compile(self, graph: ComputationGraph, strategy: Strategy) -> DistGraph:
        dist = DistGraph(f"{graph.name}:distributed")
        self._dist = dist
        self._counter = 0
        self._route_cache: Dict[Tuple, str] = {}
        # bytes of parameters already hosted per PS device (round-robin
        # balancing of PS roles, like TF's variable placement)
        self._ps_load: Dict[str, float] = {}
        # device -> resident bytes (parameters + optimizer state)
        self.resident_bytes: Dict[str, int] = {d: 0 for d in self.cluster.device_ids}
        # device ring -> gradients waiting for its next collective
        self._pending: Dict[Tuple[str, ...],
                            List[Tuple[Operation, Operation, List[str]]]] = {}

        topo = graph.topological_order()
        for name in topo:
            op = graph.op(name)
            if op.phase is OpPhase.APPLY:
                continue  # generated by the aggregation lowering below
            if any(graph.op(p).phase is OpPhase.APPLY
                   for p in graph.predecessors(name)):
                self._close_all()  # its applies must exist first
            st = self._resolved_strategy(graph, strategy, op)
            if op.produces_param_gradient:
                self._lower_param_gradient(graph, strategy, op, st)
            else:
                self._lower_regular(graph, strategy, op, st)
        self._close_all()

        dist.validate()
        return dist

    # ------------------------------------------------------------------ #
    def _resolved_strategy(self, graph: ComputationGraph, strategy: Strategy,
                           op: Operation) -> OpStrategy:
        """Canonical strategy: param-grad/apply ops follow their forward op."""
        if op.forward_ref is not None and (
            op.produces_param_gradient or op.phase is OpPhase.APPLY
        ):
            return strategy.get(op.forward_ref)
        return strategy.get(op.name)

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}#{self._counter}"

    def _comm_resources(self, src: str, dst: str) -> Tuple[str, ...]:
        """NIC ports seized by an inter-server path (shared bottleneck of
        all flows entering/leaving a machine)."""
        cached = self._nic_cache.get((src, dst))
        if cached is not None:
            return cached
        a = self.cluster.device(src).server
        b = self.cluster.device(dst).server
        ports = () if a == b else (f"nic_out:{a}", f"nic_in:{b}")
        self._nic_cache[(src, dst)] = ports
        return ports

    def _ring_resources(self, devices) -> Tuple[str, ...]:
        out = []
        n = len(devices)
        for i in range(n):
            res = self._comm_resources(devices[i], devices[(i + 1) % n])
            for r in res:
                if r not in out:
                    out.append(r)
        return tuple(out)

    # ------------------------------------------------------------------ #
    # instance creation and input routing
    # ------------------------------------------------------------------ #
    def _lower_regular(self, graph: ComputationGraph, strategy: Strategy,
                       op: Operation, st: OpStrategy) -> None:
        shares = st.batch_shares()
        instance_names: List[str] = []
        for device, fraction in shares.items():
            inst = DistOp(
                name=f"{op.name}@{device}",
                kind=DistOpKind.COMPUTE,
                source_op=op,
                device=device,
                batch_fraction=fraction,
            )
            deps = self._route_inputs(graph, strategy, op, device, fraction)
            self._dist.add(inst, deps)
            instance_names.append(inst.name)
        self._dist.instances[op.name] = instance_names
        # parameters (and optimizer state) are resident wherever the op is
        if op.param_bytes > 0 and op.phase in (OpPhase.FORWARD, OpPhase.LOSS):
            for device in shares:
                self.resident_bytes[device] += op_resident_bytes(op)

    def _route_inputs(self, graph: ComputationGraph, strategy: Strategy,
                      op: Operation, device: str, fraction: float
                      ) -> List[str]:
        """Dependencies of one instance of ``op`` on ``device``."""
        deps: List[str] = []
        for pred_name in graph.predecessors(op.name):
            pred = graph.op(pred_name)
            provider = self._tensor_at(graph, strategy, pred, device, fraction)
            deps.append(provider)
        return deps

    def _tensor_at(self, graph: ComputationGraph, strategy: Strategy,
                   pred: Operation, device: str, fraction: float) -> str:
        """Dist-op whose completion makes ``pred``'s output (the consumer's
        batch share of it) available on ``device``."""
        # many consumer instances route the same (producer, device, share)
        # triple; the whole resolution is deterministic and every op it
        # might create is itself route-cached, so memoize the answer
        memo_key = (pred.name, device, fraction)
        cached = self._route_cache.get(memo_key)
        if cached is not None:
            return cached
        provider = self._tensor_at_uncached(graph, strategy, pred, device,
                                            fraction)
        self._route_cache[memo_key] = provider
        return provider

    def _tensor_at_uncached(self, graph: ComputationGraph, strategy: Strategy,
                            pred: Operation, device: str, fraction: float
                            ) -> str:
        pred_st = self._resolved_strategy(graph, strategy, pred)
        pred_shares = pred_st.batch_shares()
        pred_instances = self._dist.instances[pred.name]
        full_bytes = float(pred.output.size_bytes)

        # unbatched tensor: single producer broadcasts the full tensor
        if pred.output.batch_dim is None:
            if len(pred_instances) != 1:
                raise CompileError(
                    f"replicated unbatched op {pred.name!r} has a consumer "
                    "outside gradient aggregation"
                )
            return self._materialize(pred_instances[0],
                                     next(iter(pred_shares)), device,
                                     full_bytes, key=(pred.name, device, "bc"))

        # aligned allocations: direct replica-to-replica connection
        if device in pred_shares and abs(pred_shares[device] - fraction) < _SHARE_TOL:
            return f"{pred.name}@{device}"

        # mismatched allocations: concat on a gather device, split, ship
        gather_dev, split_name = self._gather_and_split(
            pred, pred_shares, full_bytes
        )
        slice_bytes = full_bytes * fraction
        return self._materialize(split_name, gather_dev, device, slice_bytes,
                                 key=(pred.name, device, "slice",
                                      round(fraction, 12)))

    def _gather_and_split(self, pred: Operation,
                          pred_shares: Dict[str, float],
                          full_bytes: float) -> Tuple[str, str]:
        """Concat ``pred``'s replica outputs on one device and split there.

        Returns (gather_device, name of the dist-op producing the splits).
        Cached per producer so many consumers share one concat/split pair.
        """
        key = (pred.name, "split")
        if key in self._route_cache:
            dev = self._route_cache[(pred.name, "gather_dev")]
            return dev, self._route_cache[key]

        # gather on the producer device carrying the largest share
        gather_dev = max(pred_shares, key=lambda d: (pred_shares[d], d))
        if len(pred_shares) == 1:
            concat_name = f"{pred.name}@{gather_dev}"
        else:
            transfers: List[str] = []
            for dev, share in pred_shares.items():
                if dev == gather_dev:
                    continue
                t = self._materialize(
                    f"{pred.name}@{dev}", dev, gather_dev,
                    full_bytes * share,
                    key=(pred.name, dev, "gather"),
                )
                transfers.append(t)
            concat = DistOp(
                name=self._fresh(f"concat:{pred.name}"),
                kind=DistOpKind.CONCAT,
                device=gather_dev,
                size_bytes=full_bytes,
            )
            self._dist.add(
                concat, [f"{pred.name}@{gather_dev}"] + transfers
            )
            concat_name = concat.name

        split = DistOp(
            name=self._fresh(f"split:{pred.name}"),
            kind=DistOpKind.SPLIT,
            device=gather_dev,
            size_bytes=full_bytes,
        )
        self._dist.add(split, [concat_name])
        self._route_cache[key] = split.name
        self._route_cache[(pred.name, "gather_dev")] = gather_dev
        return gather_dev, split.name

    def _materialize(self, producer: str, src_dev: str, dst_dev: str,
                     size_bytes: float, key: Tuple) -> str:
        """Make ``producer``'s output available on ``dst_dev``; returns the
        dist-op to depend on (the producer itself if already local)."""
        if src_dev == dst_dev:
            return producer
        if key in self._route_cache:
            return self._route_cache[key]
        transfer = DistOp(
            name=self._fresh(f"t:{producer}->{dst_dev}"),
            kind=DistOpKind.TRANSFER,
            src_device=src_dev,
            dst_device=dst_dev,
            size_bytes=size_bytes,
            extra_resources=self._comm_resources(src_dev, dst_dev),
        )
        self._dist.add(transfer, [producer])
        self._route_cache[key] = transfer.name
        return transfer.name

    # ------------------------------------------------------------------ #
    # gradient aggregation lowering
    # ------------------------------------------------------------------ #
    def _lower_param_gradient(self, graph: ComputationGraph, strategy: Strategy,
                              op: Operation, st: OpStrategy) -> None:
        """Lower a parameter-gradient op plus its ApplyGradient consumer."""
        # the gradient compute replicas themselves
        self._lower_regular(graph, strategy, op, st)
        instances = self._dist.instances[op.name]
        devices = st.devices()
        grad_bytes = float(op.output.size_bytes)

        apply_ops = [
            graph.op(s) for s in graph.successors(op.name)
            if graph.op(s).phase is OpPhase.APPLY
        ]
        if len(apply_ops) != 1:
            raise CompileError(
                f"param gradient {op.name!r} must feed exactly one "
                f"ApplyGradient, found {len(apply_ops)}"
            )
        apply_op = apply_ops[0]

        if len(devices) == 1:
            # MP (or single-device DP): no aggregation needed
            self._add_apply(apply_op, devices[0], deps=instances)
            return

        if st.comm is None:
            raise CompileError(
                f"replicated gradient {op.name!r} has no comm method"
            )
        from repro.parallel.strategy import CommMethod
        if st.comm is CommMethod.PS:
            self._lower_ps(op, apply_op, st, instances, grad_bytes)
        else:
            self._lower_allreduce(op, apply_op, st, instances, grad_bytes)

    def _add_apply(self, apply_op: Operation, device: str,
                   deps: List[str]) -> str:
        inst = DistOp(
            name=f"{apply_op.name}@{device}",
            kind=DistOpKind.APPLY,
            source_op=apply_op,
            device=device,
        )
        self._dist.add(inst, deps)
        self._dist.instances.setdefault(apply_op.name, []).append(inst.name)
        return inst.name

    def _lower_ps(self, op: Operation, apply_op: Operation, st: OpStrategy,
                  instances: List[str], grad_bytes: float) -> None:
        """PS chain: push gradients -> aggregate -> apply -> pull params."""
        devices = st.devices()
        ps_dev = choose_ps_device(devices, grad_bytes, self._lookup,
                                   load=self._ps_load)

        pushes: List[str] = []
        local: List[str] = []
        for inst_name in instances:
            inst = self._dist.op(inst_name)
            if inst.device == ps_dev:
                local.append(inst_name)
                continue
            push = DistOp(
                name=self._fresh(f"push:{op.name}@{inst.device}"),
                kind=DistOpKind.TRANSFER,
                src_device=inst.device,
                dst_device=ps_dev,
                size_bytes=grad_bytes,
                extra_resources=self._comm_resources(inst.device, ps_dev),
            )
            self._dist.add(push, [inst_name])
            pushes.append(push.name)

        agg = DistOp(
            name=self._fresh(f"ga:{op.name}"),
            kind=DistOpKind.AGGREGATE,
            device=ps_dev,
            size_bytes=grad_bytes * len(devices),
        )
        self._dist.add(agg, local + pushes)
        apply_name = self._add_apply(apply_op, ps_dev, deps=[agg.name])

        # parameter pull back to the other replica devices
        for dev in devices:
            if dev == ps_dev:
                continue
            pull = DistOp(
                name=self._fresh(f"pull:{op.name}->{dev}"),
                kind=DistOpKind.TRANSFER,
                src_device=ps_dev,
                dst_device=dev,
                size_bytes=float(op.param_bytes),
                extra_resources=self._comm_resources(ps_dev, dev),
            )
            self._dist.add(pull, [apply_name])

    def _lower_allreduce(self, op: Operation, apply_op: Operation,
                         st: OpStrategy, instances: List[str],
                         grad_bytes: float) -> None:
        """AllReduce collective followed by a local apply on every device:
        queued on the ring's bucket, emitted when the bucket closes."""
        ring = tuple(st.devices())
        pending = self._pending.setdefault(ring, [])
        if self.bucket_bytes is not None and pending and (
                self._bucket_bytes(pending) + grad_bytes > self.bucket_bytes):
            self._close(ring, pending)
            pending = self._pending[ring] = []
        pending.append((op, apply_op, instances))
        if self.bucket_bytes is None:
            self._close(ring, pending)
            del self._pending[ring]

    @staticmethod
    def _bucket_bytes(pending) -> float:
        return sum(float(op.output.size_bytes) for op, _, _ in pending)

    def _close_all(self) -> None:
        for ring, pending in self._pending.items():
            self._close(ring, pending)
        self._pending = {}

    def _close(self, ring: Tuple[str, ...], pending) -> None:
        """One collective for every gradient in ``pending``."""
        grad_bytes = self._bucket_bytes(pending)
        hierarchical, _ = choose_allreduce(list(ring), grad_bytes,
                                           self._lookup, self.cluster)
        label = pending[0][0].name
        if len(pending) > 1:
            label += f"(x{len(pending)})"
        collective = DistOp(
            name=self._fresh(f"ar:{label}"),
            kind=DistOpKind.ALLREDUCE,
            devices=ring,
            size_bytes=grad_bytes,
            hierarchical=hierarchical,
            extra_resources=self._ring_resources(ring),
        )
        self._dist.add(collective,
                       [inst for _, _, insts in pending for inst in insts])
        for _, apply_op, _ in pending:
            for dev in ring:
                self._add_apply(apply_op, dev, deps=[collective.name])
