"""Critical-path attribution over a simulated iteration.

Walks a run backwards from the op that finishes last, following
whatever actually delayed each op's start: either a DAG predecessor
(dependency wait) or another op that held one of its exclusive
resources (contention wait).  The result blames every instant of the
makespan on a device, a link, NCCL, or idle gaps — "where did the
iteration time go", the question behind Fig. 8.

The blame fractions partition the makespan: the chain of segments plus
the idle gaps between them covers ``[0, makespan]`` exactly, so the
fractions sum to ~1.0.

The walk runs on arrays: the kernel's resources, predecessors and names
by op id, and the run's start order and per-op start and finish times.
Each resource's holders are one slice of a single index array sorted by
(resource, finish); op names are read only to break ties between equal
times and to label the path's segments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

import numpy as np

from ..parallel.distgraph import NCCL_RESOURCE, DistGraph
from ..simulation.kernel import SimKernel, lower
from ..simulation.metrics import union_length

IDLE_KEY = "(idle)"
#: the resources :meth:`CriticalPathReport.summary` lists
SUMMARY_TOP = 12
_EPS = 1e-9


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


def _idle_breakdown(makespan: float,
                    timeline: Iterable[Tuple[str, float, float]]
                    ) -> Tuple[Dict[str, float],
                               Dict[str, List[Tuple[float, float]]]]:
    """Per resource, the idle seconds and the idle windows of a run,
    from its (blamed resource, start, end) per op in start order."""
    intervals: Dict[str, List[Tuple[float, float]]] = {}
    for resource, start, end in timeline:
        intervals.setdefault(resource, []).append((start, end))
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
    return per_resource_idle, idle_gaps


@dataclass
class CriticalPathReport:
    """Per-resource blame for one simulated iteration.

    ``segments``, the ops of the path, and ``per_resource_idle`` and
    ``idle_gaps``, the whole-iteration idle breakdown, are derived from
    the walk and the run on first read."""

    makespan: float
    # resource (or IDLE_KEY) -> seconds of the critical path
    blame: Dict[str, float] = field(default_factory=dict)
    # builds the path's segments, first to last
    _path: Callable[[], List[PathSegment]] = field(
        default=list, repr=False, compare=False)
    # the run's (blamed resource, start, end) per op, in start order
    _timeline: Callable[[], Iterable[Tuple[str, float, float]]] = field(
        default=tuple, repr=False, compare=False)

    #: the ops of the critical path, first to last
    segments = cached_property(lambda self: self._path())
    _idle = cached_property(
        lambda self: _idle_breakdown(self.makespan, self._timeline()))
    #: every resource -> total idle seconds over the whole iteration
    per_resource_idle = cached_property(lambda self: self._idle[0])
    #: every resource -> (gap_start, gap_end) idle windows
    idle_gaps = cached_property(lambda self: self._idle[1])

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

    def summary(self) -> str:
        """Human-readable blame table (the :data:`SUMMARY_TOP` largest
        shares first)."""
        top = SUMMARY_TOP
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


def _run_arrays(kernel: SimKernel, result
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, start, finish)`` of a run: the started op ids in start
    order and per-op times.  A :class:`SimulationResult` keeps them; a
    name-keyed ``schedule`` is converted (0.0 for an op it lacks)."""
    times = getattr(result, "_times", None)
    if times is not None:
        return times.order, times.start, times.finish
    schedule: Mapping[str, Tuple[float, float]] = result.schedule
    index = {name: i for i, name in enumerate(kernel.names)}
    order = np.fromiter(map(index.__getitem__, schedule), np.intp,
                        len(schedule))
    start = np.zeros(kernel.n)
    finish = np.zeros(kernel.n)
    if len(order):
        start[order], finish[order] = np.array(list(schedule.values()),
                                               dtype=float).T
    return order, start, finish


def _holders(kernel: SimKernel, present: np.ndarray, finish: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(holder, holder_end, bounds)``: every (op, resource) row of the
    kernel sorted by resource, then by finish.  Resource r's holders are
    ``holder[bounds[r]:bounds[r + 1]]``, finishing at ``holder_end`` of
    the same slice; an op that never started ends at inf, so it sorts
    last and no search finds it."""
    res_ids = kernel.res_ids
    row_op = np.repeat(np.arange(kernel.n), list(map(len, res_ids)))
    row_res = np.fromiter(itertools.chain.from_iterable(res_ids), np.intp,
                          len(row_op))
    row_end = np.where(present[row_op], finish[row_op], np.inf)
    rows = np.lexsort((row_end, row_res))
    bounds = np.searchsorted(row_res[rows],
                             np.arange(len(kernel.resource_names) + 1))
    return row_op[rows], row_end[rows], bounds


def _rank_blockers(kernel: SimKernel, present: np.ndarray,
                   start: np.ndarray, finish: np.ndarray,
                   holder: np.ndarray, holder_end: np.ndarray,
                   bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every op's blocker, ranked on arrays: ``(blocker, needs_names)``.

    ``blocker[i]`` is the candidate that finished last (-1 without
    one).  ``needs_names[i]`` marks an op whose pick the finish times
    alone do not settle: two candidates finish together, or on one of
    its resources the last holder is the op itself or ties with the one
    before it."""
    n = kernel.n
    # per holder row: the last row of its resource that finished by its
    # op's start (within _EPS), when there is one
    query = start[holder] + _EPS
    last = np.empty(len(holder), dtype=np.intp)
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        last[lo:hi] = holder_end[lo:hi].searchsorted(
            query[lo:hi], "right") + (lo - 1)
    first = np.repeat(bounds[:-1], np.diff(bounds))
    found = last >= first
    h_op = holder[found]
    h_last = last[found]
    h_cand = holder[h_last]
    unsettled = (h_cand == h_op) | (
        (h_last > first[found])
        & (holder_end[np.maximum(h_last - 1, 0)] == holder_end[h_last]))

    # every (op, candidate) pair: started predecessors, then holders
    p_op = np.repeat(np.arange(n), kernel.pred_count)
    p_cand = np.fromiter(itertools.chain.from_iterable(kernel.pred),
                         np.intp, len(p_op))
    started = present[p_cand]
    c_op = np.concatenate((p_op[started], h_op))
    c_cand = np.concatenate((p_cand[started], h_cand))
    c_end = finish[c_cand]
    latest = np.full(n, -np.inf)
    np.maximum.at(latest, c_op, c_end)
    top = c_end == latest[c_op]
    lowest = np.full(n, n)
    np.minimum.at(lowest, c_op[top], c_cand[top])
    blocker = np.full(n, -1)
    np.maximum.at(blocker, c_op[top], c_cand[top])
    needs_names = (blocker >= 0) & (lowest != blocker)
    needs_names[h_op[unsettled]] = True
    return blocker, needs_names


def critical_path(dist: DistGraph, result) -> CriticalPathReport:
    """Attribute the makespan of a run.

    ``result`` is a :class:`~repro.simulation.metrics.SimulationResult`,
    whose start order and per-op times are read as arrays, or any object
    with ``makespan`` and a name-keyed ``schedule`` (op -> (start, end),
    in start order), converted to the same arrays first.  Ops missing
    from the schedule (a truncated trace) neither block nor hold
    anything.  The graph's kernel supplies names, resources,
    predecessors and kinds, so a compiled graph never builds its
    ``DistOp`` objects here.

    An op's blocker candidates are its started predecessors and, on
    each of its resources, the last other holder finished by its start;
    its blocker is the candidate that finished last, on equal finishes
    the one with the greater name.  Every op's blocker is ranked on
    arrays at once; an op whose pick needs names is ranked one
    candidate at a time when the walk reaches it."""
    kernel = lower(dist)
    order, start, finish = _run_arrays(kernel, result)
    if not len(order):
        raise ValueError("result has no per-op schedule")
    names = kernel.names
    resource_names = kernel.resource_names
    res_ids = kernel.res_ids
    kinds = kernel.kind_values
    present = np.zeros(kernel.n, dtype=bool)
    present[order] = True
    holder, holder_end, bounds = _holders(kernel, present, finish)
    blocker_of, needs_names = _rank_blockers(
        kernel, present, start, finish, holder, holder_end, bounds)
    begun = start.tolist()
    finished = finish.tolist()

    def later(end: float, i: int, best: Optional[Tuple[float, int]]) -> bool:
        """Whether ``(end, op i)`` outranks ``best``: later finish, then
        greater name."""
        return best is None or end > best[0] or (
            end == best[0] and names[i] > names[best[1]])

    def latest_holder(r: int, before: float,
                      exclude: int) -> Optional[Tuple[float, int]]:
        """Last op other than ``exclude`` on resource ``r`` finishing at
        or before ``before`` (equal finishes: the greatest name)."""
        lo = int(bounds[r])
        ends = holder_end[lo:bounds[r + 1]]
        hi = int(ends.searchsorted(before + _EPS, "right"))
        while hi > 0:
            end = float(ends[hi - 1])
            tied = int(ends[:hi].searchsorted(end))
            best: Optional[Tuple[float, int]] = None
            for i in holder[lo + tied:lo + hi].tolist():
                if i != exclude and later(end, i, best):
                    best = (end, i)
            if best is not None:
                return best
            hi = tied
        return None

    def find_blocker(i: int) -> int:
        """Op ``i``'s blocker (-1 without one), ranked one candidate at
        a time, by finish and then by name."""
        best: Optional[Tuple[float, int]] = None
        for p in kernel.pred[i]:
            if present[p] and later(finished[p], p, best):
                best = (finished[p], p)
        for r in res_ids[i]:
            cand = latest_holder(r, begun[i], i)
            if cand is not None and later(cand[0], cand[1], best):
                best = cand
        return best[1] if best is not None else -1

    def blamed(i: int) -> str:
        """The single resource op ``i``'s runtime is blamed on: its
        device, its link, or the NCCL token."""
        if kinds[i] == "allreduce":
            return NCCL_RESOURCE
        return resource_names[res_ids[i][0]]

    # walk back from the op that finishes last (ties: the later start,
    # then the greater name); each step is (op, its blocker or -1)
    ends = finish[order]
    last_ops = order[ends == ends.max()]
    last_ops = last_ops[start[last_ops] == start[last_ops].max()].tolist()
    current = max(last_ops, key=names.__getitem__)
    path: List[Tuple[int, int]] = []
    visited = set()
    named = needs_names.tolist()
    blockers = blocker_of.tolist()
    while current >= 0 and current not in visited:
        visited.add(current)
        b = find_blocker(current) if named[current] else blockers[current]
        if b >= 0 and finished[b] > begun[current] + _EPS:
            b = -1  # only zero-duration artefacts reach here
        path.append((current, b))
        current = b
    path.reverse()

    makespan = result.makespan
    blame: Dict[str, float] = {}
    idle = 0.0
    for i, b in path:
        begin = begun[i]
        resource = blamed(i)
        blame[resource] = blame.get(resource, 0.0) + (finished[i] - begin)
        idle += max(0.0, begin - finished[b] if b >= 0 else begin)
    # a truncated trace (e.g. a device lost mid-iteration) ends before
    # the makespan: blame the uncovered tail on idle so the fractions
    # still partition [0, makespan] and sum to ~1.  For a complete trace
    # the last segment ends exactly at the makespan and this is a no-op.
    tail_gap = makespan - finished[path[-1][0]]
    if tail_gap > _EPS:
        idle += tail_gap
    if idle > _EPS:
        blame[IDLE_KEY] = idle

    def segments() -> List[PathSegment]:
        return [PathSegment(
            op=names[i], kind=kinds[i], resource=blamed(i),
            start=begun[i], end=finished[i],
            idle_before=max(0.0, begun[i] - finished[b]
                            if b >= 0 else begun[i]),
            blocked_by=names[b] if b >= 0 else None) for i, b in path]

    return CriticalPathReport(
        makespan=makespan,
        blame=blame,
        _path=segments,
        _timeline=lambda: ((blamed(i), begun[i], finished[i])
                           for i in order.tolist()),
    )
