"""Critical-path attribution over a simulated iteration.

Walks a :class:`SimulationResult`'s per-op schedule backwards from the
op that finishes last, following whatever actually delayed each op's
start: either a DAG predecessor (dependency wait) or another op that
held one of its exclusive resources (contention wait).  The result blames every
instant of the makespan on a device, a link, NCCL, or idle gaps —
"where did the iteration time go", the question behind Fig. 8.

The blame fractions partition the makespan: the chain of segments plus
the idle gaps between them covers ``[0, makespan]`` exactly, so the
fractions sum to ~1.0.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..parallel.distgraph import (NCCL_RESOURCE, DistGraph, DistOp,
                                  DistOpKind)
from ..simulation.kernel import lower
from ..simulation.metrics import SimulationResult, union_length

IDLE_KEY = "(idle)"
_EPS = 1e-9


def blame_resource(op: DistOp) -> str:
    """The single resource an op's runtime is blamed on."""
    if op.is_compute:
        return op.device  # type: ignore[return-value]
    if op.kind is DistOpKind.TRANSFER:
        return f"link:{op.src_device}->{op.dst_device}"
    return NCCL_RESOURCE


@dataclass(frozen=True)
class PathSegment:
    """One op on the critical path, plus the idle gap before it started."""

    op: str
    kind: str
    resource: str
    start: float
    end: float
    idle_before: float
    blocked_by: Optional[str]  # op whose finish released this one

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPathReport:
    """Per-resource blame for one simulated iteration."""

    makespan: float
    segments: List[PathSegment] = field(default_factory=list)
    # resource (or IDLE_KEY) -> seconds of the critical path
    blame: Dict[str, float] = field(default_factory=dict)
    # every resource -> total idle seconds over the whole iteration
    per_resource_idle: Dict[str, float] = field(default_factory=dict)
    # every resource -> (gap_start, gap_end) idle windows
    idle_gaps: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=dict)

    def blame_fractions(self) -> Dict[str, float]:
        """Fraction of the makespan blamed on each resource; sums to ~1."""
        if self.makespan <= 0:
            return {k: 0.0 for k in self.blame}
        return {k: v / self.makespan for k, v in self.blame.items()}

    def device_blame(self) -> Dict[str, float]:
        return {k: v for k, v in self.blame.items()
                if not k.startswith("link:") and k not in (IDLE_KEY, "nccl")}

    def straggler(self) -> Optional[str]:
        """The device with the largest critical-path blame."""
        devices = self.device_blame()
        if not devices:
            return None
        return max(sorted(devices), key=lambda d: devices[d])

    def summary(self, top: int = 12) -> str:
        """Human-readable blame table (largest share first)."""
        fractions = self.blame_fractions()
        lines = [f"critical path over {self.makespan * 1e3:.2f} ms "
                 f"({len(self.segments)} ops):"]
        ranked = sorted(fractions.items(), key=lambda kv: (-kv[1], kv[0]))
        for resource, fraction in ranked[:top]:
            seconds = self.blame[resource]
            lines.append(f"  {resource:>26s}  {fraction * 100:5.1f}%  "
                         f"{seconds * 1e3:8.2f} ms")
        if len(ranked) > top:
            lines.append(f"  (+{len(ranked) - top} more resources)")
        straggler = self.straggler()
        if straggler is not None:
            lines.append(f"straggler: {straggler}")
        return "\n".join(lines)


def critical_path(dist: DistGraph,
                  result: SimulationResult) -> CriticalPathReport:
    """Attribute the makespan of a run from its per-op schedule.

    Reads the graph's kernel (names, resources, predecessors, kinds),
    so a compiled graph never builds its ``DistOp`` objects here."""
    schedule = result.schedule
    if not schedule:
        raise ValueError("result has no per-op schedule")

    kernel = lower(dist)
    names = kernel.names
    index = {name: i for i, name in enumerate(names)}
    resource_names = kernel.resource_names
    res_ids = kernel.res_ids
    kinds = kernel.kind_values

    def resources(name: str) -> List[str]:
        return [resource_names[r] for r in res_ids[index[name]]]

    def blamed(name: str) -> str:
        """:func:`blame_resource` of the op called ``name``."""
        i = index[name]
        if kinds[i] == "allreduce":
            return NCCL_RESOURCE
        return resource_names[res_ids[i][0]]

    # resource -> ops that occupy it, sorted by finish time (for the
    # "who held my resource last" lookup)
    holders: Dict[str, List[Tuple[float, str]]] = {}
    for name, (start, end) in schedule.items():
        for r in resources(name):
            holders.setdefault(r, []).append((end, name))
    for entries in holders.values():
        entries.sort()
    holder_ends: Dict[str, List[float]] = {
        r: [end for end, _ in entries] for r, entries in holders.items()
    }

    def latest_holder(resource: str, before: float,
                      exclude: str) -> Optional[Tuple[float, str]]:
        """Last op on ``resource`` finishing at or before ``before``."""
        entries = holders.get(resource)
        if not entries:
            return None
        idx = bisect_right(holder_ends[resource], before + _EPS) - 1
        while idx >= 0:
            end, name = entries[idx]
            if name != exclude:
                return end, name
            idx -= 1
        return None

    def find_blocker(name: str) -> Optional[Tuple[float, str]]:
        """Whoever delayed ``name``: the latest-finishing predecessor or
        prior holder of one of its resources."""
        start = schedule[name][0]
        best: Optional[Tuple[float, str]] = None
        for pred in map(names.__getitem__, kernel.pred[index[name]]):
            if pred in schedule:
                cand = (schedule[pred][1], pred)
                if best is None or cand > best:
                    best = cand
        for r in resources(name):
            cand = latest_holder(r, start, name)
            if cand is not None and (best is None or cand > best):
                best = cand
        return best

    # start from the op that finishes last (ties broken deterministically)
    current = max(schedule, key=lambda n: (schedule[n][1], schedule[n][0], n))
    segments: List[PathSegment] = []
    visited = set()
    while current is not None and current not in visited:
        visited.add(current)
        start, end = schedule[current]
        blocker = find_blocker(current)
        if blocker is not None and blocker[0] > start + _EPS:
            blocker = None  # only zero-duration artefacts reach here
        idle_before = start - blocker[0] if blocker is not None else start
        segments.append(PathSegment(
            op=current,
            kind=kinds[index[current]],
            resource=blamed(current),
            start=start,
            end=end,
            idle_before=max(0.0, idle_before),
            blocked_by=blocker[1] if blocker is not None else None,
        ))
        current = blocker[1] if blocker is not None else None
    segments.reverse()

    makespan = result.makespan
    blame: Dict[str, float] = {}
    idle = 0.0
    for seg in segments:
        blame[seg.resource] = blame.get(seg.resource, 0.0) + seg.duration
        idle += seg.idle_before
    # a truncated trace (e.g. a device lost mid-iteration) ends before
    # the makespan: blame the uncovered tail on idle so the fractions
    # still partition [0, makespan] and sum to ~1.  For a complete trace
    # the last segment ends exactly at the makespan and this is a no-op.
    tail_gap = makespan - segments[-1].end
    if tail_gap > _EPS:
        idle += tail_gap
    if idle > _EPS:
        blame[IDLE_KEY] = idle

    # whole-iteration idle-gap breakdown, per resource
    intervals: Dict[str, List[Tuple[float, float]]] = {}
    for name, (start, end) in schedule.items():
        intervals.setdefault(blamed(name), []).append(
            (start, end))
    per_resource_idle: Dict[str, float] = {}
    idle_gaps: Dict[str, List[Tuple[float, float]]] = {}
    for resource, ivs in intervals.items():
        busy = union_length(ivs)
        per_resource_idle[resource] = max(0.0, makespan - busy)
        gaps: List[Tuple[float, float]] = []
        cursor = 0.0
        for start, end in sorted(ivs):
            if start > cursor + _EPS:
                gaps.append((cursor, start))
            cursor = max(cursor, end)
        if makespan > cursor + _EPS:
            gaps.append((cursor, makespan))
        idle_gaps[resource] = gaps

    return CriticalPathReport(
        makespan=makespan,
        segments=segments,
        blame=blame,
        per_resource_idle=per_resource_idle,
        idle_gaps=idle_gaps,
    )
