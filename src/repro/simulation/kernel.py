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
providers (``cost.deterministic`` is True), priced from the recipes by
``cost.prices(kernel)``.  The stochastic truth model prices the same
recipes per run instead (``TruthCostModel.draw``): its base durations
are cached on the provider per fault overlay, and its jitter is one
batch per run that the event loop reads in start order.  That keeps
the jitter draw sequence, and therefore the results, bit-identical to
the dict-based loop of the test oracle (``tests/oracle``), which
prices one op at a time and draws once per op.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..graph.op import Operation
from ..parallel.distgraph import NCCL_RESOURCE, DistGraph, DistOp
from .costs import CostProvider
from .memory import output_bytes

#: max distinct cost providers whose duration arrays one kernel retains
_DURATION_CACHE_SLOTS = 4


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
    once per op; the name table comes out identical to interning
    ``op.resources()`` strings op by op.

    ``source_ops`` is the training-op table recipes index into: the
    compiler passes its per-graph table, :meth:`add` fills a table of
    its own (do not mix the two on one lowering).
    """

    __slots__ = (
        "names", "recipes", "source_ops", "resource_names", "res_ids",
        "mem_dev_names", "mem_dev_index", "charge_dev", "out_bytes",
        "_resource_ids", "_placed", "_source_index",
    )

    def __init__(self, source_ops: Optional[List[Operation]] = None) -> None:
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
        every kind but compute and apply, whose callers pass it)."""
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
                placed = self._placed[device] = (
                    (self._intern(device),), self._mem_dev(device))
        if nbytes is None:
            nbytes = float(recipe[6])
        self.names.append(name)
        self.recipes.append(recipe)
        self.res_ids.append(placed[0])
        self.charge_dev.append(placed[1])
        self.out_bytes.append(nbytes)

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
        "graph", "version", "n", "names", "recipes", "source_ops",
        "succ", "pred", "pred_count", "succ_count", "sources",
        "resource_names", "res_ids", "is_link",
        "is_compute", "is_comm", "kind_values",
        "charge_dev", "out_bytes", "mem_dev_names", "mem_dev_index",
        "topo", "has_cycle", "_dur_cache", "_topo_pos", "_bound_cache",
        "_tail_cache",
    )

    def __init__(self, graph: DistGraph,
                 lowering: Optional[Lowering] = None,
                 pred: Optional[List[Tuple[int, ...]]] = None,
                 succ: Optional[List[Tuple[int, ...]]] = None):
        self.graph = graph
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

        # cost provider -> per-op duration array (deterministic providers)
        self._dur_cache: Dict[int, Tuple[CostProvider, List[float]]] = {}
        # op index -> topo position, built on first use (the kernel is an
        # immutable snapshot, so no further invalidation is needed)
        self._topo_pos: Optional[List[int]] = None
        # cost provider -> admissible makespan lower bound
        self._bound_cache: Dict[int, Tuple[CostProvider, float]] = {}
        # cost provider -> per-op downstream-chain durations (tails)
        self._tail_cache: Dict[int, Tuple[CostProvider, List[float]]] = {}

    @property
    def ops(self) -> List[DistOp]:
        """The graph's :class:`DistOp` objects, by op index (built on a
        compiled graph's first request; the search loop never asks)."""
        return self.graph._materialize()

    # ------------------------------------------------------------------ #
    def durations_for(self, cost: CostProvider) -> Optional[List[float]]:
        """Per-op durations under ``cost``, or None for stochastic costs.

        Deterministic providers (``cost.deterministic`` truthy) price
        the recipes once per (kernel, provider), cached, so ranking and
        every simulation of the same lowering share one pricing pass.
        """
        if not cost.deterministic:
            return None
        key = id(cost)
        entry = self._dur_cache.get(key)
        if entry is not None and entry[0] is cost:
            return entry[1]
        durations = cost.prices(self)
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
    """Lower ``graph`` once; reuse the cached kernel until it mutates.

    Compiled graphs arrive with their kernel attached, so this is a
    lookup for them."""
    cached = getattr(graph, "_sim_kernel", None)
    if cached is not None and cached.version == graph.version:
        return cached
    kernel = SimKernel(graph)
    graph._sim_kernel = kernel
    return kernel
