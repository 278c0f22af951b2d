"""Array lowering of a :class:`DistGraph` for the simulation kernel.

The dict-based event loop paid a per-run tax that dwarfed the actual
event processing: rebuilding ``Dict[str, ...]`` tables of dependencies
and resources, re-deriving every op's exclusive-resource tuple, hashing
op-name strings in every heap operation, and recomputing activation
sizes (``memory.output_bytes``) on every start/free.  All of that is a
pure function of the graph, so :func:`lower` computes it **once** into a
:class:`SimKernel` of flat integer-indexed arrays:

- ops, durations-by-op-index, per-op resource-id tuples;
- CSR-style successor/predecessor adjacency;
- memory lowering (charge-device index + output bytes per op);
- a Kahn topological order shared with the ranking pass.

The kernel is cached on the graph itself (invalidated by a mutation
version stamp) and on the :class:`~repro.plan.plan.ExecutionPlan`, so
one lowering serves ranking, both candidate-order simulations in
:class:`~repro.scheduling.list_scheduler.ListScheduler`, and every later
re-simulation of the plan.

Durations are only pre-evaluated for *deterministic* cost providers
(``cost.deterministic`` is True).  Stochastic providers — the truth
model's per-execution jitter — are still queried lazily in start order,
which keeps the jitter RNG draw sequence, and therefore the results,
bit-identical to the dict-based loop of the test oracle
(``tests/oracle``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..parallel.distgraph import (NCCL_RESOURCE, DistGraph, DistOp,
                                  DistOpKind)
from .costs import CostProvider
from .memory import output_bytes

#: max distinct cost providers whose duration arrays one kernel retains
_DURATION_CACHE_SLOTS = 4


class SimKernel:
    """A :class:`DistGraph` lowered to integer-indexed flat arrays.

    Instances are immutable snapshots: ``version`` records the graph
    mutation stamp at lowering time, and :func:`lower` re-lowers when
    the graph has changed since.  All arrays are indexed by *op index*
    (the graph's insertion order, matching ``graph.op_names``) or by
    *resource id* (first-use order over ops).
    """

    __slots__ = (
        "graph", "version", "n", "names", "index", "ops",
        "succ", "pred", "pred_count", "succ_count", "sources",
        "resource_names", "res_ids", "is_link",
        "is_compute", "is_comm", "kind_values",
        "charge_dev", "out_bytes", "mem_dev_names", "mem_dev_index",
        "topo", "has_cycle", "_dur_cache", "_topo_pos", "_bound_cache",
        "_tail_cache",
    )

    def __init__(self, graph: DistGraph):
        self.graph = graph
        self.version = graph.version
        # lowering reads the graph's internal tables directly: it runs once
        # per compiled graph on the cold-evaluation path, so the defensive
        # copies of the public accessors are pure overhead here
        ops = list(graph._ops.values())
        self.ops: List[DistOp] = ops
        names = [op.name for op in ops]
        self.names: List[str] = names
        index = {name: i for i, name in enumerate(names)}
        self.index: Dict[str, int] = index
        n = len(names)
        self.n = n

        # adjacency (list-of-lists keeps the graph's edge order, which the
        # engine relies on for memory refcount release order).  The graph
        # maintains an integer mirror in lock-step with add/add_edge;
        # copy it unless code mutated the string dicts directly (tests
        # craft cycles that way), in which case fall back to mapping the
        # authoritative string adjacency through the name table.
        succ_map = graph._succ
        pred_map = graph._pred
        succ_ids = graph._succ_ids
        pred_ids = graph._pred_ids
        if (list(map(len, succ_ids)) == list(map(len, succ_map.values()))
                and list(map(len, pred_ids))
                == list(map(len, pred_map.values()))):
            self.succ: List[Tuple[int, ...]] = list(map(tuple, succ_ids))
            self.pred: List[Tuple[int, ...]] = list(map(tuple, pred_ids))
        else:
            to_index = index.__getitem__
            self.succ = [
                tuple(map(to_index, succ_map[name])) for name in names
            ]
            self.pred = [
                tuple(map(to_index, pred_map[name])) for name in names
            ]
        self.pred_count: List[int] = [len(p) for p in self.pred]
        self.succ_count: List[int] = [len(s) for s in self.succ]
        self.sources: List[int] = [
            i for i, c in enumerate(self.pred_count) if c == 0
        ]

        # One fused pass per op computes kinds, resources (interned to
        # integer ids in first-use order) and the memory lowering (charge
        # device + output bytes, charge_device/output_bytes inlined).
        # Resources are interned by *structure* — link endpoints, device
        # name — so the "link:a->b" strings are built once per distinct
        # resource (~100s) rather than once per op (~1000s); the name
        # table comes out identical to interning op.resources() strings.
        resource_ids: Dict[str, int] = {}
        resource_names: List[str] = []
        link_ids: Dict[Tuple[str, str], int] = {}
        res_ids: List[Tuple[int, ...]] = []
        kinds: List[DistOpKind] = []
        is_compute: List[bool] = []
        is_comm: List[bool] = []
        mem_dev_index: Dict[str, int] = {}
        mem_dev_names: List[str] = []
        charge_dev: List[int] = []
        out_bytes: List[float] = []

        def intern(r: str) -> int:
            rid = resource_ids.get(r)
            if rid is None:
                rid = len(resource_names)
                resource_ids[r] = rid
                resource_names.append(r)
            return rid

        compute_k = DistOpKind.COMPUTE
        split_k = DistOpKind.SPLIT
        concat_k = DistOpKind.CONCAT
        transfer_k = DistOpKind.TRANSFER
        allreduce_k = DistOpKind.ALLREDUCE

        for op in ops:
            k = op.kind
            kinds.append(k)
            if (k is compute_k or k is split_k or k is concat_k
                    or k is DistOpKind.AGGREGATE or k is DistOpKind.APPLY):
                is_compute.append(True)
                is_comm.append(False)
                res_ids.append((intern(op.device),))
                mem_device = op.device
            elif k is transfer_k:
                is_compute.append(False)
                is_comm.append(True)
                key = (op.src_device, op.dst_device)
                rid = link_ids.get(key)
                if rid is None:
                    rid = intern(f"link:{key[0]}->{key[1]}")
                    link_ids[key] = rid
                extras = op.extra_resources
                if extras:
                    res_ids.append((rid,) + tuple(map(intern, extras)))
                else:
                    res_ids.append((rid,))
                mem_device = op.dst_device
            elif k is allreduce_k:
                is_compute.append(False)
                is_comm.append(True)
                devices = op.devices
                m = len(devices)
                rids: List[int] = []
                for j in range(m):
                    a, b = devices[j], devices[(j + 1) % m]
                    if a != b:
                        rid = link_ids.get((a, b))
                        if rid is None:
                            rid = intern(f"link:{a}->{b}")
                            link_ids[(a, b)] = rid
                        rids.append(rid)
                rids.extend(map(intern, op.extra_resources))
                rids.append(intern(NCCL_RESOURCE))
                res_ids.append(tuple(rids))
                mem_device = None
            else:  # pragma: no cover - no further kinds exist
                is_compute.append(op.is_compute)
                is_comm.append(op.is_communication)
                res_ids.append(tuple(map(intern, op.resources())))
                mem_device = None

            if mem_device is None:
                charge_dev.append(-1)
                out_bytes.append(0.0)
                continue
            di = mem_dev_index.get(mem_device)
            if di is None:
                di = len(mem_dev_names)
                mem_dev_index[mem_device] = di
                mem_dev_names.append(mem_device)
            charge_dev.append(di)
            out_bytes.append(output_bytes(op))

        self.resource_names = resource_names
        self.res_ids = res_ids
        self.is_link: List[bool] = [
            r.startswith("link:") for r in resource_names
        ]
        self.is_compute = is_compute
        self.is_comm = is_comm
        self.kind_values: List[str] = [k.value for k in kinds]
        self.mem_dev_names = mem_dev_names
        self.mem_dev_index = mem_dev_index
        self.charge_dev = charge_dev
        self.out_bytes = out_bytes

        # Kahn topological order (same tie-breaking as
        # DistGraph.topological_order: insertion order among ready ops).
        # A cyclic graph yields a partial order and sets ``has_cycle``;
        # the engine still runs it and reports the deadlock exactly as
        # the dict-based oracle loop does.
        indeg = list(self.pred_count)
        topo: List[int] = [i for i in range(n) if indeg[i] == 0]
        head = 0
        while head < len(topo):
            node = topo[head]
            head += 1
            for s in self.succ[node]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    topo.append(s)
        self.topo = topo
        self.has_cycle = len(topo) != n

        # cost provider -> per-op duration array (deterministic providers)
        self._dur_cache: Dict[int, Tuple[CostProvider, List[float]]] = {}
        # op index -> topo position, built on first use (the kernel is an
        # immutable snapshot, so no further invalidation is needed)
        self._topo_pos: Optional[List[int]] = None
        # cost provider -> admissible makespan lower bound
        self._bound_cache: Dict[int, Tuple[CostProvider, float]] = {}
        # cost provider -> per-op downstream-chain durations (tails)
        self._tail_cache: Dict[int, Tuple[CostProvider, List[float]]] = {}

    # ------------------------------------------------------------------ #
    def durations_for(self, cost: CostProvider) -> Optional[List[float]]:
        """Per-op durations under ``cost``, or None for stochastic costs.

        Deterministic providers (``cost.deterministic`` truthy) are
        evaluated once per (kernel, provider) and cached, so ranking and
        every simulation of the same lowering share one pricing pass.
        """
        if not getattr(cost, "deterministic", False):
            return None
        key = id(cost)
        entry = self._dur_cache.get(key)
        if entry is not None and entry[0] is cost:
            return entry[1]
        durations = list(map(cost.duration, self.ops))
        if len(self._dur_cache) >= _DURATION_CACHE_SLOTS:
            self._dur_cache.clear()
        self._dur_cache[key] = (cost, durations)
        return durations

    def tails_for(self, cost: CostProvider) -> Optional[List[float]]:
        """Per-op *exclusive tail*: the duration-weighted longest chain of
        successors that must still execute after the op finishes.

        ``tail[i] = max over succ s of (dur[s] + tail[s])`` (0 at sinks).
        Whatever the schedule, once op ``i`` completes at time ``t`` the
        makespan is at least ``t + tail[i]`` — the engine's mid-simulation
        abort and :func:`kernel_lower_bound` both build on this array.
        ``None`` for stochastic cost providers (same contract and caching
        discipline as :meth:`durations_for`).
        """
        durations = self.durations_for(cost)
        if durations is None:
            return None
        key = id(cost)
        entry = self._tail_cache.get(key)
        if entry is not None and entry[0] is cost:
            return entry[1]
        succ_of = self.succ
        tails = [0.0] * self.n
        for i in reversed(self.topo):
            tail = 0.0
            for s in succ_of[i]:
                t = durations[s] + tails[s]
                if t > tail:
                    tail = t
            tails[i] = tail
        if len(self._tail_cache) >= _DURATION_CACHE_SLOTS:
            self._tail_cache.clear()
        self._tail_cache[key] = (cost, tails)
        return tails

    def topo_positions(self) -> List[int]:
        """Op index -> position in the topological order (memoized)."""
        pos = self._topo_pos
        if pos is None:
            pos = [0] * self.n
            for p, i in enumerate(self.topo):
                pos[i] = p
            self._topo_pos = pos
        return pos

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SimKernel({self.graph.name!r}, {self.n} ops, "
                f"{len(self.resource_names)} resources)")


#: relative slack applied to every bound-vs-threshold comparison before
#: pruning a candidate.  The bounds (static kernel bound, the mid-sim
#: tail bound) are sums over op chains whose floating-point
#: rounding differs from the event loop's own accumulation, so a bound
#: can exceed the true makespan by a few ulps (~n*eps relative) — and a
#: threshold sitting within that noise of the true makespan (the
#: scheduler's internal rank-vs-earliest race produces exactly this)
#: would fire a false cut and shift the winner by one ulp.  Requiring a
#: violation by more than this margin keeps every cut sound in floating
#: point: a candidate inside the margin is simply evaluated in full.
#: n*eps stays far below 1e-9 for any graph this repo can lower.
PRUNE_GUARD = 1e-9


def kernel_lower_bound(kernel: SimKernel,
                       cost: CostProvider) -> Optional[float]:
    """Admissible makespan lower bound for ``kernel`` under ``cost``.

    The bound is the max of two quantities no schedule can beat:

    - the **critical path**: the longest duration-weighted path through
      the precedence DAG (raw durations, no comm-weight inflation);
    - the **busiest resource**: for each device, link and token, the sum
      of durations of every op that holds it — ops hold all their
      resources exclusively for their whole duration, so this is
      per-device assigned work / throughput and per-link bytes /
      bandwidth in one pass.

    Returns ``None`` for stochastic cost providers: pricing the graph
    would consume jitter RNG draws and perturb later simulations, and a
    jittered "bound" would not be admissible anyway.  The bound is
    cached per (kernel, provider) like the duration arrays.
    """
    durations = kernel.durations_for(cost)
    if durations is None:
        return None
    key = id(cost)
    entry = kernel._bound_cache.get(key)
    if entry is not None and entry[0] is cost:
        return entry[1]

    # longest path: dur[i] + exclusive tail, maximized over all ops (the
    # tails array is shared with the engine's mid-simulation abort)
    tails = kernel.tails_for(cost)
    best = 0.0
    for i in range(kernel.n):
        total = durations[i] + tails[i]
        if total > best:
            best = total

    # busiest exclusive resource
    res_busy = [0.0] * len(kernel.resource_names)
    for i, rids in enumerate(kernel.res_ids):
        d = durations[i]
        for r in rids:
            res_busy[r] += d
    if res_busy:
        busiest = max(res_busy)
        if busiest > best:
            best = busiest

    if len(kernel._bound_cache) >= _DURATION_CACHE_SLOTS:
        kernel._bound_cache.clear()
    kernel._bound_cache[key] = (cost, best)
    return best


def lower(graph: DistGraph) -> SimKernel:
    """Lower ``graph`` once; reuse the cached kernel until it mutates."""
    cached = getattr(graph, "_sim_kernel", None)
    if cached is not None and cached.version == graph.version:
        return cached
    kernel = SimKernel(graph)
    graph._sim_kernel = kernel
    return kernel
