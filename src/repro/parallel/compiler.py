"""Graph Compiler (paper Sec. 3.4 / Sec. 5, Fig. 7).

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
- **Gradient fusion** — AllReduced gradients are bucketed per device
  ring, as Horovod's Tensor Fusion does (Sergeev & Del Balso 2018): each
  collective pays a launch overhead and waits for the NCCL token, so one
  collective per bucket of up to :data:`ALLREDUCE_BUCKET_BYTES` replaces
  one per gradient.

Parameter-gradient and ApplyGradient ops are canonicalized to follow the
*forward* op's placement (parameters live where the forward replicas are;
cf. Table 2's observation that heavy layers and "the operations to compute
their gradients" are placed together).

The compiler runs once per candidate the Strategy Maker evaluates, so it
compiles straight into the simulation kernel's arrays in one pass and
creates no :class:`DistOp`: per emitted dist-op it records a name, a
recipe tuple of plain values
(:data:`~repro.parallel.distgraph.RECIPE_FIELDS`) and a tuple of
predecessor ids, all lowered at once
(:meth:`~repro.simulation.kernel.Lowering.append`) and priced there
too, under the planner's cost model, so a compile against a limit
stops as soon as one resource's load proves the candidate loses.
Successors are derived from the predecessor tuples at the end, and
the result is a
:class:`DistGraph` view of its :class:`~repro.simulation.kernel.SimKernel`
that builds ``DistOp`` objects only if something asks for them, so
``lower(dist)`` is a lookup and a cached plan keeps a few dozen objects
for the garbage collector to track instead of one per dist-op.  What
depends only on the training graph (topological order, predecessor
tuples, strategy keys, activation sizes) is tabulated once
per graph and reused by every compile; per-compile state (route cache,
name counter, PS load, resident bytes) lives in a :class:`_Compilation`
that ends with the call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import CompileError
from ..graph.dag import ComputationGraph
from ..graph.op import Operation, OpPhase
from ..profiling.cost_model import op_memory_bytes, op_resident_bytes
from ..simulation.costs import ProfileCostModel
from ..simulation.kernel import Lowering, SimKernel
from .aggregation import choose_ps_device
from .distgraph import DistGraph
from .strategy import CommMethod, OpStrategy, Strategy

_SHARE_TOL = 1e-9

#: Byte limit of one fused AllReduce bucket, the same for every plan.
#: A bucket closes when the next gradient of its ring would push it past
#: the limit; a larger gradient gets a bucket of its own.
ALLREDUCE_BUCKET_BYTES = 4 * 1024 * 1024


class _OpInfo:
    """What the compiler needs of one training-graph op, per graph."""

    __slots__ = ("index", "op", "name", "preds", "ref", "pgrad", "applies",
                 "resident", "full_bytes", "batched", "param_bytes",
                 "act_bytes")

    def __init__(self, index: int, op: Operation):
        self.index = index
        self.op = op
        self.name = op.name
        self.preds: Tuple["_OpInfo", ...] = ()
        self.pgrad = op.produces_param_gradient
        # canonical strategy key: param-grad/apply ops follow their
        # forward op
        self.ref = (op.forward_ref if op.forward_ref is not None and (
            self.pgrad or op.phase is OpPhase.APPLY) else op.name)
        self.applies: List["_OpInfo"] = []
        # parameters (and optimizer state) are resident wherever a
        # forward/loss op holding them is placed
        self.resident = (op_resident_bytes(op) if op.param_bytes > 0 and
                         op.phase in (OpPhase.FORWARD, OpPhase.LOSS) else 0)
        self.full_bytes = float(op.output.size_bytes)
        self.batched = op.output.batch_dim is not None
        self.param_bytes = float(op.param_bytes)
        # batch fraction -> activation bytes of one instance
        self.act_bytes: Dict[float, float] = {}

    def activation_bytes(self, fraction: float) -> float:
        """``output_bytes`` of an instance processing ``fraction``."""
        nbytes = self.act_bytes.get(fraction)
        if nbytes is None:
            nbytes = float(op_memory_bytes(self.op, fraction))
            self.act_bytes[fraction] = nbytes
        return nbytes


class _GraphTables:
    """Per-graph tables shared by every compile of one training graph."""

    def __init__(self, graph: ComputationGraph):
        self.graph = graph
        order = graph.topological_order()
        infos = [_OpInfo(i, graph.op(name)) for i, name in enumerate(order)]
        by_name = {info.name: info for info in infos}
        for info in infos:
            info.preds = tuple(by_name[p] for p in graph.predecessors(info.name))
            if info.pgrad:
                info.applies = [by_name[s] for s in graph.successors(info.name)
                                if by_name[s].op.phase is OpPhase.APPLY]
        self.ops = infos
        # the training-op table every compile's recipes index into
        self.source_ops = [info.op for info in infos]
        # APPLY ops are emitted by the aggregation lowering of their
        # parameter gradient, not on their own
        self.lowered = [info for info in infos
                        if info.op.phase is not OpPhase.APPLY]
        # ops that read an apply's output: the open AllReduce buckets
        # are flushed before routing them, so the applies exist
        self.reads_apply = frozenset(
            info.index for info in self.lowered
            if any(p.op.phase is OpPhase.APPLY for p in info.preds))


class GraphCompiler:
    """Compiles (graph, strategy) -> :class:`DistGraph`.

    ``cost`` is the planner's cost model: the compiler reads the cluster
    from it, places each PS with its :meth:`~ProfileCostModel.link_lookup`,
    asks it each collective's structure
    (:meth:`~ProfileCostModel.hierarchical`), and prices every dist-op
    with it as it emits it, so every compiled kernel arrives priced.
    One compiler serves any number of compiles; it keeps only tables
    that depend on the context (per-graph op tables, and per device
    pair or tuple the NIC ports and ring resources), never state of one
    call.

    ``bucket_bytes`` is the AllReduce bucket limit; ``None`` emits one
    collective per gradient.
    """

    def __init__(self, cost: ProfileCostModel,
                 bucket_bytes: Optional[int] = ALLREDUCE_BUCKET_BYTES):
        if bucket_bytes is not None and bucket_bytes <= 0:
            raise CompileError(f"bucket_bytes must be positive: {bucket_bytes}")
        self.cost = cost
        self.cluster = cost.cluster
        self.bucket_bytes = bucket_bytes
        self._nic_cache: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        self._ring_cache: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._tables: Optional[_GraphTables] = None

    # ------------------------------------------------------------------ #
    def compile(self, graph: ComputationGraph, strategy: Strategy, *,
                prune_above: Optional[float] = None) -> DistGraph:
        """The distributed graph of ``strategy``, with its simulation
        kernel attached, its durations and resource loads cached under
        :attr:`cost`, and its per-device resident bytes in
        ``resident_bytes``.

        With ``prune_above``, the compile stops with
        :class:`~repro.simulation.kernel.LoadExceeded` as soon as one
        resource's load exceeds ``prune_above`` beyond
        :data:`~repro.simulation.kernel.PRUNE_GUARD`."""
        tables = self._tables
        if tables is None or tables.graph is not graph:
            tables = self._tables = _GraphTables(graph)
        return _Compilation(self, tables, strategy, self.cost,
                            prune_above).run()

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

    def _ring_resources(self, devices: Tuple[str, ...]) -> Tuple[str, ...]:
        cached = self._ring_cache.get(devices)
        if cached is not None:
            return cached
        out = []
        n = len(devices)
        for i in range(n):
            res = self._comm_resources(devices[i], devices[(i + 1) % n])
            for r in res:
                if r not in out:
                    out.append(r)
        cached = self._ring_cache[devices] = tuple(out)
        return cached


class _Bucket:
    """Replicated gradients of one ring waiting for their AllReduce."""

    __slots__ = ("nbytes", "grads", "preds")

    def __init__(self):
        self.nbytes = 0.0
        # (gradient, its apply) pairs, in emission order
        self.grads: List[Tuple[_OpInfo, _OpInfo]] = []
        # ids of the gradients' instances
        self.preds: List[int] = []

    def add(self, grad: _OpInfo, apply: _OpInfo, instances: List[int]) -> None:
        self.nbytes += grad.full_bytes
        self.grads.append((grad, apply))
        self.preds.extend(instances)


class _Compilation:
    """State of one compile: the graph being emitted, its lowering, the
    route caches, the name counter, PS load, resident bytes and the open
    AllReduce buckets.

    Dist-ops are referred to by their integer id (emission order)."""

    def __init__(self, compiler: GraphCompiler, tables: _GraphTables,
                 strategy: Strategy, cost: ProfileCostModel,
                 prune_above: Optional[float]):
        self.compiler = compiler
        self.tables = tables
        self.strategy = strategy
        self.lowering = Lowering(tables.source_ops, cost, prune_above)
        self.names = self.lowering.names
        # each dist-op's predecessor ids
        self.preds: List[Tuple[int, ...]] = []
        self.counter = 0
        self.route_cache: Dict[tuple, int] = {}
        # producer index -> (gather device, id of its Split)
        self.gathered: Dict[int, Tuple[str, int]] = {}
        # bytes of parameters already hosted per PS device (round-robin
        # balancing of PS roles, like TF's variable placement)
        self.ps_load: Dict[str, float] = {}
        # device -> resident bytes (parameters + optimizer state)
        self.resident = {d: 0 for d in compiler.cluster.device_ids}
        n = len(tables.ops)
        # per training op (by table index): resolved strategy, instance ids
        self.strategies: List[Optional[OpStrategy]] = [None] * n
        self.instance_ids: List[Optional[List[int]]] = [None] * n
        # (training-op index, device) -> id of its compute/apply instance
        self.instance_at: Dict[Tuple[int, str], int] = {}
        # device ring -> its open bucket, in the order rings first appeared
        self.buckets: Dict[Tuple[str, ...], _Bucket] = {}

    def run(self) -> DistGraph:
        reads_apply = self.tables.reads_apply
        for info in self.tables.lowered:
            if info.index in reads_apply:
                self.flush()
            st = self.resolve(info)
            if info.pgrad:
                self.lower_param_gradient(info, st)
            else:
                self.lower_regular(info, st)
        self.flush()
        preds = self.preds
        succ: List[list] = [[] for _ in preds]
        for i, ps in enumerate(preds):
            for p in ps:
                succ[p].append(i)
        # each op and each distinct edge bumped the mutation stamp once
        # when graphs were built op by op; keep the same stamp
        version = len(preds) + sum(map(len, preds))
        names = self.names
        id_of = dict(zip(names, range(len(names))))
        if len(id_of) != len(names):
            seen = set()
            for name in names:
                if name in seen:
                    raise CompileError(f"duplicate dist-op name {name!r}")
                seen.add(name)
        dist = DistGraph.view(f"{self.tables.graph.name}:distributed",
                              id_of, version, self.resident)
        dist._sim_kernel = SimKernel(dist, self.lowering, preds,
                                     list(map(tuple, succ)))
        dist.validate()
        return dist

    # ------------------------------------------------------------------ #
    def resolve(self, info: _OpInfo) -> OpStrategy:
        """Canonical strategy of ``info`` (resolved once per compile)."""
        st = self.strategies[info.index]
        if st is None:
            st = self.strategies[info.index] = self.strategy.get(info.ref)
        return st

    def emit(self, name: str, recipe: tuple, preds: List[int],
             nbytes: Optional[float] = None) -> int:
        """Add the dist-op ``recipe`` describes after ``preds`` and lower
        it; returns its id.  Repeated predecessors count once (first
        occurrence kept).  Names are checked for duplicates once the
        compile finishes."""
        i = len(self.preds)
        if len(preds) > 1 and len(set(preds)) != len(preds):
            preds = dict.fromkeys(preds)
        self.preds.append(tuple(preds))
        self.lowering.append(name, recipe, nbytes)
        return i

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}#{self.counter}"

    def instance(self, info: _OpInfo, device: str) -> int:
        """Id of ``info``'s compute (or apply) instance on ``device``."""
        i = self.instance_at.get((info.index, device))
        if i is None:
            raise KeyError(f"{info.name}@{device}")
        return i

    # ------------------------------------------------------------------ #
    # instance creation and input routing
    # ------------------------------------------------------------------ #
    def lower_regular(self, info: _OpInfo, st: OpStrategy) -> List[int]:
        shares = st.batch_shares()
        ids: List[int] = []
        index = info.index
        preds = info.preds
        tensor_at = self.tensor_at
        instance_at = self.instance_at
        for device, fraction in shares.items():
            name = f"{info.name}@{device}"
            deps = [tensor_at(pred, device, fraction, name)
                    for pred in preds]
            i = self.emit(name, ("compute", index, device, None, None, (),
                                 0.0, fraction, False, ()),
                          deps, info.activation_bytes(fraction))
            instance_at[(index, device)] = i
            ids.append(i)
        self.instance_ids[index] = ids
        if info.resident:
            resident = self.resident
            for device in shares:
                resident[device] += info.resident
        return ids

    def tensor_at(self, pred: _OpInfo, device: str, fraction: float,
                  consumer: str) -> int:
        """Dist-op whose completion makes ``pred``'s output (the consumer's
        batch share of it) available on ``device``."""
        # many consumer instances route the same (producer, device, share)
        # triple; the whole resolution is deterministic and every op it
        # might create is itself route-cached, so memoize the answer
        memo_key = (pred.index, device, fraction)
        provider = self.route_cache.get(memo_key)
        if provider is None:
            provider = self.tensor_at_uncached(pred, device, fraction,
                                               consumer)
            self.route_cache[memo_key] = provider
        return provider

    def tensor_at_uncached(self, pred: _OpInfo, device: str, fraction: float,
                           consumer: str) -> int:
        pred_shares = self.resolve(pred).batch_shares()
        pred_instances = self.instance_ids[pred.index]
        if pred_instances is None:
            raise KeyError(pred.name)
        full_bytes = pred.full_bytes

        # unbatched tensor: single producer broadcasts the full tensor
        if not pred.batched:
            if len(pred_instances) != 1:
                raise CompileError(
                    f"replicated unbatched op {pred.name!r} has a consumer "
                    "outside gradient aggregation"
                )
            return self.materialize(pred_instances[0],
                                    next(iter(pred_shares)), device,
                                    full_bytes, key=(pred.index, device, "bc"))

        # aligned allocations: direct replica-to-replica connection
        if device in pred_shares and abs(pred_shares[device] - fraction) < _SHARE_TOL:
            provider = self.instance_at.get((pred.index, device))
            if provider is None:
                raise CompileError(
                    f"edge references unknown dist-op: "
                    f"{pred.name}@{device}->{consumer}")
            return provider

        # mismatched allocations: concat on a gather device, split, ship
        gather_dev, split = self.gather_and_split(pred, pred_shares,
                                                  full_bytes)
        return self.materialize(split, gather_dev, device, full_bytes * fraction,
                                key=(pred.index, device, "slice",
                                     round(fraction, 12)))

    def gather_and_split(self, pred: _OpInfo, pred_shares: Dict[str, float],
                         full_bytes: float) -> Tuple[str, int]:
        """Concat ``pred``'s replica outputs on one device and split there.

        Returns (gather_device, id of the dist-op producing the splits).
        Cached per producer so many consumers share one concat/split pair.
        """
        cached = self.gathered.get(pred.index)
        if cached is not None:
            return cached

        # gather on the producer device carrying the largest share
        gather_dev = max(pred_shares, key=lambda d: (pred_shares[d], d))
        local = self.instance(pred, gather_dev)
        if len(pred_shares) == 1:
            concat = local
        else:
            deps = [local]
            for dev, share in pred_shares.items():
                if dev == gather_dev:
                    continue
                deps.append(self.materialize(
                    self.instance(pred, dev), dev, gather_dev,
                    full_bytes * share, key=(pred.index, dev, "gather")))
            concat = self.emit(self.fresh(f"concat:{pred.name}"), (
                "concat", -1, gather_dev, None, None, (), full_bytes, 1.0,
                False, ()), deps)

        split = self.emit(self.fresh(f"split:{pred.name}"), (
            "split", -1, gather_dev, None, None, (), full_bytes, 1.0, False,
            ()), [concat])
        self.gathered[pred.index] = (gather_dev, split)
        return gather_dev, split

    def materialize(self, producer: int, src_dev: str, dst_dev: str,
                    size_bytes: float, key: tuple) -> int:
        """Make ``producer``'s output available on ``dst_dev``; returns the
        dist-op to depend on (the producer itself if already local)."""
        if src_dev == dst_dev:
            return producer
        cached = self.route_cache.get(key)
        if cached is not None:
            return cached
        transfer = self.emit(
            self.fresh(f"t:{self.names[producer]}->{dst_dev}"),
            self.transfer(src_dev, dst_dev, size_bytes), [producer])
        self.route_cache[key] = transfer
        return transfer

    def transfer(self, src_dev: str, dst_dev: str,
                 size_bytes: float) -> tuple:
        """Recipe of a transfer over the ``src_dev -> dst_dev`` link."""
        return ("transfer", -1, None, src_dev, dst_dev, (), size_bytes, 1.0,
                False, self.compiler._comm_resources(src_dev, dst_dev))

    # ------------------------------------------------------------------ #
    # gradient aggregation lowering
    # ------------------------------------------------------------------ #
    def lower_param_gradient(self, info: _OpInfo, st: OpStrategy) -> None:
        """Lower a parameter-gradient op plus its ApplyGradient consumer."""
        # the gradient compute replicas themselves
        instances = self.lower_regular(info, st)
        devices = st.devices()

        if len(info.applies) != 1:
            raise CompileError(
                f"param gradient {info.name!r} must feed exactly one "
                f"ApplyGradient, found {len(info.applies)}"
            )
        apply = info.applies[0]

        if len(devices) == 1:
            # MP (or single-device DP): no aggregation needed
            self.add_apply(apply, devices[0], instances)
            return

        if st.comm is None:
            raise CompileError(
                f"replicated gradient {info.name!r} has no comm method"
            )
        if st.comm is CommMethod.PS:
            self.lower_ps(info, apply, devices, instances)
        else:
            self.lower_allreduce(info, apply, devices, instances)

    def add_apply(self, apply: _OpInfo, device: str, deps: List[int]) -> int:
        index = apply.index
        i = self.emit(f"{apply.name}@{device}", (
            "apply", index, device, None, None, (), 0.0, 1.0, False, ()),
            deps, apply.activation_bytes(1.0))
        self.instance_at[(index, device)] = i
        ids = self.instance_ids[index]
        if ids is None:
            ids = self.instance_ids[index] = []
        ids.append(i)
        return i

    def lower_ps(self, info: _OpInfo, apply: _OpInfo, devices: List[str],
                 instances: List[int]) -> None:
        """PS chain: push gradients -> aggregate -> apply -> pull params."""
        compiler = self.compiler
        grad_bytes = info.full_bytes
        ps_dev = choose_ps_device(devices, grad_bytes,
                                  compiler.cost.link_lookup,
                                  load=self.ps_load)

        pushes: List[int] = []
        local: List[int] = []
        # instances follow the strategy's device order
        for inst_id, inst_dev in zip(instances, devices):
            if inst_dev == ps_dev:
                local.append(inst_id)
                continue
            pushes.append(self.emit(
                self.fresh(f"push:{info.name}@{inst_dev}"),
                self.transfer(inst_dev, ps_dev, grad_bytes),
                [inst_id]))

        agg = self.emit(self.fresh(f"ga:{info.name}"), (
            "aggregate", -1, ps_dev, None, None, (),
            grad_bytes * len(devices), 1.0, False, ()), local + pushes)
        apply_id = self.add_apply(apply, ps_dev, [agg])

        # parameter pull back to the other replica devices
        for dev in devices:
            if dev == ps_dev:
                continue
            self.emit(self.fresh(f"pull:{info.name}->{dev}"),
                      self.transfer(ps_dev, dev, info.param_bytes),
                      [apply_id])

    def lower_allreduce(self, info: _OpInfo, apply: _OpInfo,
                        devices: List[str], instances: List[int]) -> None:
        """Add the gradient to its ring's bucket; the collective and the
        local applies on every device follow when the bucket closes."""
        ring = tuple(devices)
        limit = self.compiler.bucket_bytes
        bucket = self.buckets.get(ring)
        if bucket is not None and bucket.nbytes + info.full_bytes > limit:
            self.close(ring, bucket)
            bucket = None
        if bucket is None:
            bucket = self.buckets[ring] = _Bucket()
        bucket.add(info, apply, instances)
        if limit is None:
            self.close(ring, self.buckets.pop(ring))

    def flush(self) -> None:
        """Close every open bucket."""
        for ring, bucket in self.buckets.items():
            self.close(ring, bucket)
        self.buckets.clear()

    def close(self, ring: Tuple[str, ...], bucket: _Bucket) -> None:
        """One collective over ``ring`` for the bucket's gradients, then
        each gradient's apply on every device."""
        compiler = self.compiler
        grads, nbytes = bucket.grads, bucket.nbytes
        name = grads[0][0].name
        if len(grads) > 1:
            name = f"{name}(x{len(grads)})"
        collective = self.emit(self.fresh(f"ar:{name}"), (
            "allreduce", -1, None, None, None, ring, nbytes, 1.0,
            compiler.cost.hierarchical(ring, nbytes),
            compiler._ring_resources(ring)), bucket.preds)
        for _, apply in grads:
            for dev in ring:
                self.add_apply(apply, dev, [collective])
