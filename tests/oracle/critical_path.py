"""Test-only oracle: the name-keyed critical-path walk.

:func:`repro.telemetry.critical_path` walks a run on the kernel's arrays
and the run's start order and per-op times, and derives the idle
breakdown on first read.  The original walk survives here as the
reference it is fuzzed against: it reads the run's name-keyed
``schedule`` dict, keeps each resource's holders as sorted
``(finish, name)`` lists, and builds the per-resource idle breakdown
eagerly.  Blame, segments and idle breakdown must match it exactly,
dict key order included.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.parallel.distgraph import NCCL_RESOURCE, DistGraph
from repro.simulation.kernel import lower
from repro.simulation.metrics import union_length
from repro.telemetry.critical_path import IDLE_KEY, PathSegment

_EPS = 1e-9


@dataclass
class ReferenceReport:
    """What the reference walk derives from one run."""

    makespan: float
    segments: List[PathSegment] = field(default_factory=list)
    blame: Dict[str, float] = field(default_factory=dict)
    per_resource_idle: Dict[str, float] = field(default_factory=dict)
    idle_gaps: Dict[str, List[Tuple[float, float]]] = field(
        default_factory=dict)


def reference_critical_path(dist: DistGraph, result) -> ReferenceReport:
    """The name-keyed walk over ``result.schedule``, with the idle
    breakdown computed eagerly."""
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
        """The single resource the op called ``name`` is blamed on: its
        device, its link, or the NCCL token."""
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

    return ReferenceReport(
        makespan=makespan,
        segments=segments,
        blame=blame,
        per_resource_idle=per_resource_idle,
        idle_gaps=idle_gaps,
    )
