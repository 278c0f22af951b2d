"""The distributed training graph produced by the Graph Compiler.

Nodes are :class:`DistOp` instances: compute ops pinned to a GPU, and
communication ops pinned to one or more links ("we further treat a link
between two GPUs as a device", Sec. 4.2).  Durations are *not* stored on
the nodes — a cost provider (the Strategy Maker's profile-based simulator,
or the ground-truth execution engine) computes them, so the same compiled
graph serves both.

A graph built with :meth:`DistGraph.add` holds its ops from the start.
A compiled graph is a *view* of its
:class:`~repro.simulation.kernel.SimKernel`: the compiler emits only the
kernel's flat arrays, one :data:`RECIPE_FIELDS` tuple of plain values
per dist-op among them, and the view builds its :class:`DistOp` objects,
adjacency lists and ``instances`` once, on first access.  Its name,
length, membership, ``op_names``, ``version``, ``resident_bytes`` and
:meth:`~DistGraph.validate` never build them, and neither does the
search loop (compile, bound, schedule, simulate), which reads the
kernel.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, fields
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import CompileError
from ..graph.op import Operation

NCCL_RESOURCE = "nccl"


class DistOpKind(enum.Enum):
    """Node kinds of the distributed training graph."""
    COMPUTE = "compute"        # replica of an original op
    SPLIT = "split"            # batch re-partitioning (compute, tiny)
    CONCAT = "concat"          # batch gathering (compute, tiny)
    TRANSFER = "transfer"      # tensor over one directed link
    ALLREDUCE = "allreduce"    # NCCL collective over a ring of links
    AGGREGATE = "aggregate"    # PS-side gradient sum (compute)
    APPLY = "apply"            # parameter update (compute)


#: every kind except TRANSFER and ALLREDUCE executes on a single GPU
_COMPUTE_KINDS = frozenset({
    DistOpKind.COMPUTE, DistOpKind.SPLIT, DistOpKind.CONCAT,
    DistOpKind.AGGREGATE, DistOpKind.APPLY,
})

#: A dist-op's *recipe*: the values a :class:`DistOp` is built from, in
#: its field order after the name.  ``kind`` is the kind's value string
#: and ``source`` an index into a training-op table (-1: none), so a
#: recipe holds only strings, numbers and tuples of strings, which the
#: garbage collector stops tracking.
RECIPE_FIELDS = ("kind", "source", "device", "src_device", "dst_device",
                 "devices", "size_bytes", "batch_fraction", "hierarchical",
                 "extra_resources")

# guards the one-time publication of a view's materialised tables
_MATERIALIZE_LOCK = threading.Lock()


def _slotted(cls):
    """Rebuild a dataclass with ``__slots__`` for its fields.

    What ``dataclass(slots=True)`` does on Python >= 3.10; the package
    also supports 3.9.  The generated ``__init__`` binds the defaults
    itself, so the class-level defaults can go.
    """
    names = tuple(f.name for f in fields(cls))
    body = {k: v for k, v in cls.__dict__.items()
            if k not in names and k not in ("__dict__", "__weakref__")}
    body["__slots__"] = names
    return type(cls)(cls.__name__, cls.__bases__, body)


@_slotted
@dataclass
class DistOp:
    """One node of the distributed training DAG."""

    name: str
    kind: DistOpKind
    source_op: Optional[Operation] = None  # original op (compute/apply)
    device: Optional[str] = None           # compute kinds
    src_device: Optional[str] = None       # transfer
    dst_device: Optional[str] = None       # transfer
    devices: Tuple[str, ...] = ()          # allreduce participants
    size_bytes: float = 0.0                # comm payload / aux-op traffic
    batch_fraction: float = 1.0            # compute share of the mini-batch
    hierarchical: bool = False             # allreduce structure
    # additional exclusive resources (NIC send/recv ports for inter-server
    # paths), filled in by the compiler which knows the topology
    extra_resources: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # identity chains, not frozenset membership: Enum.__hash__ is a
        # Python-level call and this runs once per op on the compile path
        kind = self.kind
        if kind is DistOpKind.TRANSFER:
            if not self.src_device or not self.dst_device:
                raise CompileError(f"transfer {self.name!r} needs src and dst")
            if self.src_device == self.dst_device:
                raise CompileError(
                    f"transfer {self.name!r} must cross devices"
                )
        elif kind is DistOpKind.ALLREDUCE:
            if len(self.devices) < 2:
                raise CompileError(
                    f"allreduce {self.name!r} needs >=2 participants"
                )
        elif not self.device:
            raise CompileError(f"{kind.value} op {self.name!r} needs a device")

    # ------------------------------------------------------------------ #
    @property
    def is_compute(self) -> bool:
        kind = self.kind
        return not (kind is DistOpKind.TRANSFER
                    or kind is DistOpKind.ALLREDUCE)

    @property
    def is_communication(self) -> bool:
        kind = self.kind
        return kind is DistOpKind.TRANSFER or kind is DistOpKind.ALLREDUCE

    def recipe(self, source: int = -1) -> tuple:
        """This op's :data:`RECIPE_FIELDS` values, with ``source`` as the
        index of its source op in whatever table the caller keeps."""
        return (self.kind._value_, source, self.device, self.src_device,
                self.dst_device, self.devices, self.size_bytes,
                self.batch_fraction, self.hierarchical,
                self.extra_resources)

    def resources(self) -> Tuple[str, ...]:
        """Exclusive resources this op occupies while executing."""
        if self.is_compute:
            return (self.device,)  # type: ignore[return-value]
        if self.kind is DistOpKind.TRANSFER:
            return (
                f"link:{self.src_device}->{self.dst_device}",
            ) + self.extra_resources
        # AllReduce: the ring's directed links, plus the global NCCL token
        # (NCCL cannot launch two collectives simultaneously, Sec. 6.2).
        links = []
        n = len(self.devices)
        for i in range(n):
            a, b = self.devices[i], self.devices[(i + 1) % n]
            if a != b:
                links.append(f"link:{a}->{b}")
        return tuple(links) + self.extra_resources + (NCCL_RESOURCE,)


class DistGraph:
    """DAG of :class:`DistOp` nodes with dependency edges.

    The adjacency is stored once, as integer op ids (insertion order):
    ``_succ_ids[i]`` / ``_pred_ids[i]`` list the ids of op ``i``'s
    successors / predecessors in edge-insertion order.  The name-keyed
    accessors derive from it on demand.

    A compiled graph (:meth:`view`) builds ``_ops``, the adjacency lists
    and ``instances`` from its kernel when something first reads them;
    a mutation builds them first.
    """

    def __init__(self, name: str):
        self.name = name
        self._ops: Optional[List[DistOp]] = []
        self._id_of: Dict[str, int] = {}
        self._succ_ids: Optional[List[List[int]]] = []
        self._pred_ids: Optional[List[List[int]]] = []
        # original op name -> its compute instances (per device)
        self._instances: Optional[Dict[str, List[str]]] = {}
        # device -> resident bytes (parameters + optimizer state), filled
        # by the GraphCompiler; empty for hand-built graphs
        self.resident_bytes: Dict[str, int] = {}
        # mutation stamp: lets repro.simulation.kernel cache one array
        # lowering per graph and re-lower only after a change
        self._version = 0
        self._sim_kernel = None

    @classmethod
    def view(cls, name: str, id_of: Dict[str, int], version: int,
             resident_bytes: Dict[str, int]) -> "DistGraph":
        """A compiled graph whose ops are built from the kernel the
        caller attaches as ``_sim_kernel`` (its ``names``, ``recipes``,
        ``source_ops``, ``pred`` and ``succ``), on first access."""
        graph = cls(name)
        graph._ops = graph._succ_ids = graph._pred_ids = None
        graph._instances = None
        graph._id_of = id_of
        graph._version = version
        graph.resident_bytes = resident_bytes
        return graph

    def _materialize(self) -> List[DistOp]:
        """The op list, built from the kernel on a view's first call.

        Everything is built in locals and published once under a lock,
        so concurrent first callers all get the same objects."""
        ops = self._ops
        if ops is not None:
            return ops
        kernel = self._sim_kernel
        sources = kernel.source_ops
        ops = []
        instances: Dict[str, List[str]] = {}
        for name, recipe in zip(kernel.names, kernel.recipes):
            kind, source = recipe[0], recipe[1]
            source_op = sources[source] if source >= 0 else None
            ops.append(DistOp(name, DistOpKind(kind), source_op, *recipe[2:]))
            if kind == "compute" or kind == "apply":
                instances.setdefault(source_op.name, []).append(name)
        pred_ids = list(map(list, kernel.pred))
        succ_ids = list(map(list, kernel.succ))
        with _MATERIALIZE_LOCK:
            if self._ops is None:
                self._pred_ids = pred_ids
                self._succ_ids = succ_ids
                self._instances = instances
                self._ops = ops  # last: readers test this one
        return self._ops

    @property
    def version(self) -> int:
        """Monotone mutation counter (bumped by add/add_edge)."""
        return self._version

    @property
    def instances(self) -> Dict[str, List[str]]:
        """Original op name -> names of its compute (or apply)
        instances, in emission order."""
        self._materialize()
        return self._instances

    # ------------------------------------------------------------------ #
    def add(self, op: DistOp, deps: Sequence[str] = ()) -> DistOp:
        ops = self._materialize()
        name = op.name
        id_of = self._id_of
        if name in id_of:
            raise CompileError(f"duplicate dist-op name {name!r}")
        id_of[name] = len(ops)
        ops.append(op)
        self._succ_ids.append([])
        self._pred_ids.append([])
        self._version += 1
        for dep in deps:
            self.add_edge(dep, name)
        return op

    def add_edge(self, src: str, dst: str) -> None:
        self._materialize()
        id_of = self._id_of
        si = id_of.get(src)
        di = id_of.get(dst)
        if si is None or di is None:
            raise CompileError(f"edge references unknown dist-op: {src}->{dst}")
        preds = self._pred_ids[di]
        if si in preds:
            return
        preds.append(si)
        self._succ_ids[si].append(di)
        self._version += 1

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._id_of)

    def __iter__(self) -> Iterator[DistOp]:
        return iter(self._materialize())

    def __contains__(self, name: str) -> bool:
        return name in self._id_of

    def _id(self, name: str) -> int:
        try:
            return self._id_of[name]
        except KeyError:
            raise CompileError(f"unknown dist-op {name!r}") from None

    def op(self, name: str) -> DistOp:
        return self._materialize()[self._id(name)]

    @property
    def op_names(self) -> List[str]:
        return list(self._id_of)

    def successors(self, name: str) -> List[str]:
        ops = self._materialize()
        return [ops[j].name for j in self._succ_ids[self._id(name)]]

    def predecessors(self, name: str) -> List[str]:
        ops = self._materialize()
        return [ops[j].name for j in self._pred_ids[self._id(name)]]

    def topological_order(self) -> List[str]:
        """Kahn's algorithm, insertion order among ready ops."""
        ops = self._materialize()
        indeg = list(map(len, self._pred_ids))
        order = [i for i, d in enumerate(indeg) if d == 0]
        succ_ids = self._succ_ids
        head = 0
        while head < len(order):
            node = order[head]
            head += 1
            for succ in succ_ids[node]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    order.append(succ)
        if len(order) != len(ops):
            raise CompileError(f"distributed graph {self.name!r} has a cycle")
        return [ops[i].name for i in order]

    def validate(self) -> None:
        # cycle detection via the array lowering: it runs the same Kahn
        # pass on integer ids, and the kernel it builds is cached on the
        # graph for the scheduler/simulator that run right after
        from ..simulation.kernel import lower  # local: distgraph is lower-level
        if lower(self).has_cycle:
            raise CompileError(f"distributed graph {self.name!r} has a cycle")

    # ------------------------------------------------------------------ #
    def counts_by_kind(self) -> Dict[DistOpKind, int]:
        out: Dict[DistOpKind, int] = {}
        for op in self._materialize():
            out[op.kind] = out.get(op.kind, 0) + 1
        return out

    def communication_ops(self) -> List[DistOp]:
        return [o for o in self._materialize() if o.is_communication]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = {k.value: v for k, v in self.counts_by_kind().items()}
        return f"DistGraph({self.name!r}, {len(self)} ops, {kinds})"
