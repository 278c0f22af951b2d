"""Array lowering of a :class:`DistGraph` for the simulation kernel.

The dict-based event loop paid a per-run tax that dwarfed the actual
event processing: rebuilding ``Dict[str, ...]`` tables of dependencies
and resources, re-deriving every op's exclusive-resource tuple, hashing
op-name strings in every heap operation, and recomputing activation
sizes (``memory.output_bytes``) on every start/free.  All of that is a
pure function of the graph, so it is computed **once** into a
:class:`SimKernel` of flat integer-indexed arrays:

- names and one recipe per op (the plain values its ``DistOp`` is
  built from, :data:`~repro.parallel.distgraph.RECIPE_FIELDS`), per-op
  resource-id tuples, durations-by-op-index;
- CSR-style successor/predecessor adjacency;
- memory lowering (charge-device index + output bytes per op);
- a Kahn topological order shared with the ranking pass.

:meth:`Lowering.append` is the one per-op lowering routine.  The graph
compiler runs it on each dist-op as it emits it, from the op's name and
recipe, and returns the finished kernel wrapped in a ``DistGraph``
view, so a compiled graph *is* its kernel: :func:`lower` on it is a
lookup, and its ``DistOp`` objects (:attr:`SimKernel.ops`) are built
only if something asks for them.  ``SimKernel(graph)`` runs the same
routine, through :meth:`Lowering.add`, over a graph built by hand or
mutated after compiling.  The kernel is cached on the graph itself
(invalidated by a mutation version stamp) and on the
:class:`~repro.plan.plan.ExecutionPlan`, so one lowering serves
ranking, both candidate-order simulations in
:class:`~repro.scheduling.list_scheduler.ListScheduler`, and every later
re-simulation of the plan.

Durations are only cached on the kernel for *deterministic* cost
providers (``cost.deterministic`` is True), in one price record per
provider: durations, and once asked, tails, loads and the complete
lower bound.  Every compiled kernel arrives priced: the compiler holds
the planner's cost, whose ``price(recipe, source_op)`` the lowering
calls on each op as it is emitted, so the kernel is built with its
record holding the duration and load arrays (and the compile can stop
at a limit, :class:`LoadExceeded`).  A kernel built by hand, or priced
under another provider, is priced from its recipes on first use by
``cost.prices(kernel)``, which gives the same bits.  The stochastic
truth model prices the same recipes per run instead
(``TruthCostModel.draw``): its base durations
are cached on the provider per fault overlay, and its jitter is one
batch per run that the event loop reads in start order.  That keeps
the jitter draw sequence, and therefore the results, bit-identical to
the dict-based loop of the test oracle (``tests/oracle``), which
prices one op at a time and draws once per op.
"""

from __future__ import annotations

import itertools
import operator
import weakref
from typing import Dict, List, Optional, Tuple

from ..graph.op import Operation
from ..parallel.distgraph import NCCL_RESOURCE, DistGraph, DistOp
from .costs import CostProvider, ProfileCostModel
from .memory import output_bytes

#: max distinct cost providers whose price records one kernel retains
_PRICE_RECORD_SLOTS = 4


class LoadExceeded(Exception):
    """A priced :class:`Lowering` stopped: one resource's running load
    passed the limit.  ``bound`` is that load, an admissible lower bound
    on the makespan; ``emitted`` is the number of ops lowered so far,
    the one that crossed included."""

    def __init__(self, bound: float, emitted: int):
        super().__init__(f"resource load {bound!r} after {emitted} ops")
        self.bound = bound
        self.emitted = emitted


class Lowering:
    """Per-op array lowering, built one op at a time in insertion order.

    :meth:`append` is the one lowering routine.  It takes an op's name
    and its recipe (:data:`~repro.parallel.distgraph.RECIPE_FIELDS`):
    the :class:`~repro.parallel.compiler.GraphCompiler` calls it for
    each dist-op the moment it emits it, and :meth:`add` adapts a
    :class:`DistOp` of a graph built by hand or transformed after
    compiling.  Per op it records the name, the recipe, the
    exclusive-resource ids (interned in first-use order) and the memory
    lowering (charge-device index and output bytes).  Resources
    are interned by *structure* (device, link endpoints plus extra
    ports), so each distinct resource tuple is built once rather than
    once per op.  This is the one rule for which resources an op holds:
    its device for a compute op, ``link:src->dst`` plus the extra
    ports for a transfer, and for an AllReduce the ring's directed
    links, the extra ports and the NCCL token.

    ``source_ops`` is the training-op table recipes index into: the
    compiler passes its per-graph table, :meth:`add` fills a table of
    its own (do not mix the two on one lowering).

    With a ``cost``, :meth:`append` also prices each op
    (``durations``) and adds its duration to the load of every resource
    it holds (``loads``, by resource id).  Op and resource ids are
    emission order, so both arrays come out bit for bit as
    ``cost.prices(kernel)`` and :meth:`SimKernel.loads_for` compute
    them, and the kernel is built with them in its price record.  With
    ``prune_above`` as well, the first load to pass
    ``prune_above * (1 + PRUNE_GUARD)`` raises :class:`LoadExceeded`:
    durations are non-negative, so a load only grows, and the
    busiest-resource term of :func:`kernel_lower_bound` is already
    proved to exceed the limit.
    """

    __slots__ = (
        "names", "recipes", "source_ops", "resource_names", "res_ids",
        "mem_dev_names", "mem_dev_index", "charge_dev", "out_bytes",
        "device_ids", "cost", "durations", "loads", "_over",
        "_resource_ids", "_placed", "_source_index",
    )

    def __init__(self, source_ops: Optional[List[Operation]] = None,
                 cost: Optional[ProfileCostModel] = None,
                 prune_above: Optional[float] = None) -> None:
        self.names: List[str] = []
        self.recipes: List[tuple] = []
        self.source_ops: List[Operation] = (
            source_ops if source_ops is not None else [])
        self.resource_names: List[str] = []
        self.res_ids: List[Tuple[int, ...]] = []
        self.mem_dev_names: List[str] = []
        self.mem_dev_index: Dict[str, int] = {}
        self.charge_dev: List[int] = []
        self.out_bytes: List[float] = []
        # resource ids compute ops hold: their devices
        self.device_ids: set = set()
        self.cost = cost
        # with a cost: per op its duration, per resource id its load
        self.durations: List[float] = []
        self.loads: List[float] = []
        self._over = (float("inf") if prune_above is None
                      else prune_above * (1.0 + PRUNE_GUARD))
        self._resource_ids: Dict[str, int] = {}
        # placement key -> (resource-id tuple, charge-device index)
        self._placed: Dict[tuple, Tuple[Tuple[int, ...], int]] = {}
        # id(source op) -> its index in source_ops (add only)
        self._source_index: Dict[int, int] = {}

    def _intern(self, resource: str) -> int:
        rid = self._resource_ids.get(resource)
        if rid is None:
            rid = len(self.resource_names)
            self._resource_ids[resource] = rid
            self.resource_names.append(resource)
            self.loads.append(0.0)
        return rid

    def _mem_dev(self, device: str) -> int:
        di = self.mem_dev_index.get(device)
        if di is None:
            di = len(self.mem_dev_names)
            self.mem_dev_index[device] = di
            self.mem_dev_names.append(device)
        return di

    def append(self, name: str, recipe: tuple,
               nbytes: Optional[float] = None) -> None:
        """Lower the op ``recipe`` describes.  ``nbytes`` is its
        ``output_bytes``; None stands for ``size_bytes`` (right for
        every kind but compute and apply, whose callers pass it).
        With a cost, price it and count its load, raising
        :class:`LoadExceeded` once a load passes the limit."""
        kind = recipe[0]
        if kind == "transfer":
            key = (recipe[3], recipe[4], recipe[9])
            placed = self._placed.get(key)
            if placed is None:
                rids = (self._intern(f"link:{key[0]}->{key[1]}"),)
                rids += tuple(map(self._intern, key[2]))
                placed = self._placed[key] = (rids, self._mem_dev(key[1]))
        elif kind == "allreduce":
            key = (recipe[5], recipe[9])
            placed = self._placed.get(key)
            if placed is None:
                devices = key[0]
                m = len(devices)
                rids = tuple(
                    self._intern(f"link:{devices[j]}->{devices[(j + 1) % m]}")
                    for j in range(m) if devices[j] != devices[(j + 1) % m])
                rids += tuple(map(self._intern, key[1]))
                rids += (self._intern(NCCL_RESOURCE),)
                # allreduce works in place on the gradient buffers
                placed = self._placed[key] = (rids, -1)
            nbytes = 0.0
        else:  # every other kind computes on one device
            device = recipe[2]
            placed = self._placed.get(device)
            if placed is None:
                rid = self._intern(device)
                self.device_ids.add(rid)
                placed = self._placed[device] = (
                    (rid,), self._mem_dev(device))
        if nbytes is None:
            nbytes = float(recipe[6])
        self.names.append(name)
        self.recipes.append(recipe)
        self.res_ids.append(placed[0])
        self.charge_dev.append(placed[1])
        self.out_bytes.append(nbytes)
        cost = self.cost
        if cost is None:
            return
        source = recipe[1]
        d = cost.price(recipe,
                       self.source_ops[source] if source >= 0 else None)
        self.durations.append(d)
        loads, over = self.loads, self._over
        for r in placed[0]:
            load = loads[r] = loads[r] + d
            if load > over:
                raise LoadExceeded(load, len(self.names))

    def add(self, op: DistOp) -> None:
        """:meth:`append` for a :class:`DistOp`."""
        source = -1
        if op.source_op is not None:
            source = self._source_index.get(id(op.source_op))
            if source is None:
                source = self._source_index[id(op.source_op)] = len(
                    self.source_ops)
                self.source_ops.append(op.source_op)
        self.append(op.name, op.recipe(source), output_bytes(op))


class _PriceRecord:
    """What a kernel knows under one deterministic cost provider: the
    per-op durations, and once asked, the per-op tails, the
    per-resource loads and the complete makespan lower bound."""

    __slots__ = ("cost", "durations", "tails", "loads", "bound")

    def __init__(self, cost: CostProvider, durations: List[float]):
        self.cost = cost
        self.durations = durations
        self.tails: Optional[List[float]] = None
        self.loads: Optional[List[float]] = None
        self.bound: Optional[float] = None


class SimKernel:
    """A :class:`DistGraph` lowered to integer-indexed flat arrays.

    Instances are immutable snapshots: ``version`` records the graph
    mutation stamp at lowering time, and :func:`lower` re-lowers when
    the graph has changed since.  All arrays are indexed by *op index*
    (the graph's insertion order, matching ``graph.op_names``) or by
    *resource id* (first-use order over ops).

    ``lowering``, ``pred`` and ``succ`` are the arrays of exactly
    ``graph``'s ops when the caller built them while emitting the ops
    (the graph compiler does; the kernel is then the only copy of the
    graph, which is a view of it).  Otherwise every op of ``graph`` is
    lowered here.
    """

    __slots__ = (
        "_graph", "version", "n", "names", "recipes", "source_ops",
        "succ", "pred", "pred_count", "succ_count", "sources",
        "resource_names", "res_ids", "is_link", "is_device",
        "is_compute", "is_comm", "kind_values",
        "charge_dev", "out_bytes", "mem_dev_names", "mem_dev_index",
        "topo", "has_cycle", "_topo_pos", "_records",
    )

    def __init__(self, graph: DistGraph,
                 lowering: Optional[Lowering] = None,
                 pred: Optional[List[Tuple[int, ...]]] = None,
                 succ: Optional[List[Tuple[int, ...]]] = None):
        # weak: a graph owns its kernel (``lower`` caches it on the
        # graph), so a strong link back would make every dropped plan a
        # reference cycle, freed only at the next cyclic collection
        self._graph = weakref.ref(graph)
        self.version = graph.version
        if lowering is None:
            # lowering reads the graph's internal tables directly: the
            # defensive copies of the public accessors are pure overhead
            lowering = Lowering()
            for op in graph._materialize():
                lowering.add(op)
            pred = list(map(tuple, graph._pred_ids))
            succ = list(map(tuple, graph._succ_ids))
        self.names: List[str] = lowering.names
        self.recipes = lowering.recipes
        self.source_ops = lowering.source_ops
        n = len(self.names)
        self.n = n

        # adjacency as int tuples, in the graph's edge order (the engine
        # relies on it for memory refcount release order)
        self.succ: List[Tuple[int, ...]] = succ
        self.pred: List[Tuple[int, ...]] = pred
        self.pred_count: List[int] = list(map(len, pred))
        self.succ_count: List[int] = list(map(len, succ))
        self.sources: List[int] = [
            i for i, c in enumerate(self.pred_count) if c == 0
        ]

        self.resource_names = lowering.resource_names
        self.res_ids = lowering.res_ids
        self.is_link: List[bool] = [
            r.startswith("link:") for r in self.resource_names
        ]
        # a compute op holds only its device; every other resource
        # (links, NIC ports, the NCCL token) is held by comm ops alone
        self.is_device: List[bool] = [
            r in lowering.device_ids for r in range(len(self.resource_names))
        ]
        self.kind_values: List[str] = [r[0] for r in self.recipes]
        self.is_comm: List[bool] = [
            k == "transfer" or k == "allreduce" for k in self.kind_values]
        self.is_compute: List[bool] = [not c for c in self.is_comm]
        self.mem_dev_names = lowering.mem_dev_names
        self.mem_dev_index = lowering.mem_dev_index
        self.charge_dev = lowering.charge_dev
        self.out_bytes = lowering.out_bytes

        # Kahn topological order (same tie-breaking as
        # DistGraph.topological_order: insertion order among ready ops).
        # A cyclic graph yields a partial order and sets ``has_cycle``;
        # the engine still runs it and reports the deadlock exactly as
        # the dict-based oracle loop does.
        indeg = list(self.pred_count)
        topo: List[int] = list(self.sources)
        head = 0
        while head < len(topo):
            node = topo[head]
            head += 1
            for s in succ[node]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    topo.append(s)
        self.topo = topo
        self.has_cycle = len(topo) != n

        # op index -> topo position, built on first use (the kernel is an
        # immutable snapshot, so no further invalidation is needed)
        self._topo_pos: Optional[List[int]] = None
        # id(deterministic cost provider) -> what the kernel knows under it
        self._records: Dict[int, _PriceRecord] = {}
        cost = lowering.cost
        if cost is not None:
            # a priced lowering arrives with its durations and loads
            record = self._records[id(cost)] = _PriceRecord(
                cost, lowering.durations)
            record.loads = lowering.loads

    @property
    def graph(self) -> DistGraph:
        """The lowered graph (held weakly: keep the graph, not only its
        kernel)."""
        graph = self._graph()
        if graph is None:
            raise ReferenceError("the kernel's graph was freed")
        return graph

    def __getstate__(self) -> dict:
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_graph"] = self.graph
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._graph = weakref.ref(state["_graph"])

    @property
    def ops(self) -> List[DistOp]:
        """The graph's :class:`DistOp` objects, by op index (built on a
        compiled graph's first request; the search loop never asks)."""
        return self.graph._materialize()

    # ------------------------------------------------------------------ #
    def record_for(self, cost: CostProvider) -> Optional[_PriceRecord]:
        """The kernel's price record under ``cost``, or None for
        stochastic costs.

        Deterministic providers (``cost.deterministic`` truthy) price
        the recipes once per (kernel, provider), unless the compile
        already did, so ranking, bounding and every simulation of the
        same lowering share one pricing pass.  At most
        ``_PRICE_RECORD_SLOTS`` providers' records are kept.
        """
        if not cost.deterministic:
            return None
        record = self._records.get(id(cost))
        if record is None or record.cost is not cost:
            if len(self._records) >= _PRICE_RECORD_SLOTS:
                self._records.clear()
            record = self._records[id(cost)] = _PriceRecord(
                cost, cost.prices(self))
        return record

    def durations_for(self, cost: CostProvider) -> Optional[List[float]]:
        """Per-op durations under ``cost``, or None for stochastic costs."""
        record = self.record_for(cost)
        return None if record is None else record.durations

    def tails_for(self, cost: CostProvider) -> Optional[List[float]]:
        """Per-op *exclusive tail*: the duration-weighted longest chain of
        successors that must still execute after the op finishes.

        ``tail[i] = max over succ s of (dur[s] + tail[s])`` (0 at sinks).
        Whatever the schedule, once op ``i`` completes at time ``t`` the
        makespan is at least ``t + tail[i]`` — the engine's mid-simulation
        abort and :func:`kernel_lower_bound` both build on this array.
        ``None`` for stochastic cost providers; kept in the price record
        like the durations.
        """
        record = self.record_for(cost)
        if record is None:
            return None
        if record.tails is None:
            durations, succ_of = record.durations, self.succ
            tails = [0.0] * self.n
            for i in reversed(self.topo):
                tail = 0.0
                for s in succ_of[i]:
                    t = durations[s] + tails[s]
                    if t > tail:
                        tail = t
                tails[i] = tail
            record.tails = tails
        return record.tails

    def loads_for(self, cost: CostProvider) -> Optional[List[float]]:
        """Per-resource *load*: the summed duration of every op that
        holds the resource, by resource id, summed in op-index order.

        Ops hold each of their resources exclusively for their whole
        duration, so a resource that frees at ``t`` with load ``L`` still
        unstarted on it proves a makespan of at least ``t + L``: the
        engine's remaining-load cut counts this array down, and
        :func:`kernel_lower_bound` builds its per-resource terms on it.
        ``None`` for stochastic cost providers; kept in the price record
        like the durations.
        """
        record = self.record_for(cost)
        if record is None:
            return None
        if record.loads is None:
            loads = [0.0] * len(self.resource_names)
            for rids, d in zip(self.res_ids, record.durations):
                for r in rids:
                    loads[r] += d
            record.loads = loads
        return record.loads

    def heads_for(self, cost: CostProvider) -> Optional[List[float]]:
        """Per-op *head*: the duration-weighted longest chain of
        predecessors that must run before the op can start, the mirror
        of :meth:`tails_for` (``head[i] = max over pred p of
        (head[p] + dur[p])``, 0 at sources).  Not cached:
        :func:`kernel_lower_bound` caches what it builds on it.
        """
        durations = self.durations_for(cost)
        if durations is None:
            return None
        pred_of = self.pred
        heads = [0.0] * self.n
        for i in self.topo:
            head = 0.0
            for p in pred_of[i]:
                h = heads[p] + durations[p]
                if h > head:
                    head = h
            heads[i] = head
        return heads

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


def kernel_lower_bound(kernel: SimKernel, cost: CostProvider,
                       limit: Optional[float] = None) -> Optional[float]:
    """Admissible makespan lower bound for ``kernel`` under ``cost``.

    The bound is the max of three quantities no schedule can beat:

    - the **busiest resource**: for each device, link and token, its
      load (:meth:`SimKernel.loads_for`) — ops hold all their resources
      exclusively for their whole duration, so this is per-device
      assigned work / throughput and per-link bytes / bandwidth in one
      pass;
    - the **critical path**: the longest duration-weighted path through
      the precedence DAG (raw durations, no comm-weight inflation);
    - the **one-machine terms** (release + processing + delivery): for
      each resource that is not a device (a link, NIC port or the NCCL
      token, held by communication ops alone), the earliest any of its
      ops can start (min head, :meth:`SimKernel.heads_for`) plus its
      load plus the shortest chain that must still run after its last
      op (min tail).  Such a resource cannot start its first transfer
      before the compute chain producing that tensor has run, where the
      busiest-resource term counts it busy from time zero.  Devices are
      left out, which keeps the pass to the communication ops, a small
      share of a kernel.

    With ``limit``, the terms are taken cheapest first and the first one
    that proves the makespan exceeds ``limit`` beyond
    :data:`PRUNE_GUARD` is returned at once.  The one-machine pass is
    skipped when an upper estimate of its terms (load plus critical
    path) cannot get there, and its head pass when a tighter estimate
    cannot.  Either way the value returned is still admissible; only a
    complete bound is cached.

    Returns ``None`` for stochastic cost providers: pricing the graph
    would consume jitter RNG draws and perturb later simulations, and a
    jittered "bound" would not be admissible anyway.  A complete bound
    is kept in the kernel's price record under ``cost``.
    """
    record = kernel.record_for(cost)
    if record is None:
        return None
    if record.bound is not None:
        return record.bound
    durations = record.durations
    over = float("inf") if limit is None else limit * (1.0 + PRUNE_GUARD)

    loads = kernel.loads_for(cost)
    best = max(loads, default=0.0)
    if best > over:
        return best
    # longest path: dur[i] + exclusive tail, maximized over all ops (the
    # tails array is shared with the engine's mid-simulation abort)
    tails = kernel.tails_for(cost)
    path = max(map(operator.add, durations, tails), default=0.0)
    best = max(best, path)
    if best > over:
        return best
    # every op j has head_j + tail_j <= path - dur_j, so a one-machine
    # term is at most its resource's load plus the critical path
    if limit is not None and path + max(
            (load for load, device in zip(loads, kernel.is_device)
             if not device), default=0.0) <= over:
        return best

    # one-machine terms: group the comm ops by the resource tuple they
    # hold (the lowering shares one tuple per placement), then fold the
    # groups into per-resource min tail and max(dur + tail)
    res_ids = kernel.res_ids
    # id(resource tuple) -> [the tuple, its ops, min tail, max(dur + tail)]
    groups: Dict[int, list] = {}
    for i in itertools.compress(range(kernel.n), kernel.is_comm):
        t = tails[i]
        dt = durations[i] + t
        group = groups.get(id(res_ids[i]))
        if group is None:
            groups[id(res_ids[i])] = [res_ids[i], [i], t, dt]
            continue
        group[1].append(i)
        if t < group[2]:
            group[2] = t
        if dt > group[3]:
            group[3] = dt
    # resource id -> [min tail, max(dur + tail), its groups]
    held: Dict[int, list] = {}
    for group in groups.values():
        for r in group[0]:
            if kernel.is_device[r]:
                continue
            acc = held.get(r)
            if acc is None:
                held[r] = [group[2], group[3], [group]]
                continue
            acc[0] = min(acc[0], group[2])
            acc[1] = max(acc[1], group[3])
            acc[2].append(group)
    # and at most load + min tail + min(path - dur - tail) over its ops
    if limit is not None and not any(
            loads[r] + tail + path - dt > over
            for r, (tail, dt, _) in held.items()):
        return best
    heads = kernel.heads_for(cost) if held else []
    for r, (tail, _, on) in held.items():
        head = min(heads[i] for group in on for i in group[1])
        best = max(best, head + loads[r] + tail)

    record.bound = best
    return best


def lower(graph: DistGraph) -> SimKernel:
    """Lower ``graph`` once; reuse the cached kernel until it mutates.

    Compiled graphs arrive with their kernel attached, so this is a
    lookup for them."""
    cached = getattr(graph, "_sim_kernel", None)
    if cached is not None and cached.version == graph.version:
        return cached
    kernel = SimKernel(graph)
    graph._sim_kernel = kernel
    return kernel
