"""Simulation results and derived metrics (per-iteration time, breakdowns)."""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np


def union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals = sorted(intervals)
    total = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    total += cur_end - cur_start
    return total


class RunTimes:
    """What a simulator run keeps to derive its result's breakdowns.

    ``order`` holds the op ids in start order; ``start`` and ``finish``
    are per op id (0.0 for an op that never started or, at a prune cut,
    never finished); ``in_flight`` names the ops still running at a cut.
    The kernel tables the derivation reads come along by reference, but
    never the kernel itself, so a cached result does not keep its
    lowering alive.
    """

    __slots__ = ("order", "start", "finish", "in_flight", "names",
                 "res_ids", "is_compute", "is_link", "resource_names")

    def __init__(self, kernel, order: np.ndarray, start: np.ndarray,
                 finish: np.ndarray, in_flight: Sequence[int]):
        self.order = order
        self.start = start
        self.finish = finish
        self.in_flight = tuple(in_flight)
        self.names: List[str] = kernel.names
        self.res_ids: List[Tuple[int, ...]] = kernel.res_ids
        self.is_compute: List[bool] = kernel.is_compute
        self.is_link: List[bool] = kernel.is_link
        self.resource_names: List[str] = kernel.resource_names

    def _completed(self) -> np.ndarray:
        """Completed op ids in completion order.

        Ops complete in (finish, start order) order: the completion
        heap pops by (time, counter), and an op's counter is drawn when
        it starts."""
        order = self.order
        if self.in_flight:
            order = order[~np.isin(order, self.in_flight)]
        return order[np.argsort(self.finish[order], kind="stable")]

    def resource_busy(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``device_busy`` and ``link_busy``, as the event loop used to
        accumulate them completion by completion: sums accumulate
        sequentially in completion order and the dicts keep
        first-completion order, bit for bit."""
        completed = self._completed()
        res_ids, is_compute, is_link = (self.res_ids, self.is_compute,
                                        self.is_link)
        device_busy: Dict[int, float] = {}
        link_intervals: Dict[int, List[Tuple[float, float]]] = {}
        for i, begin, end in zip(completed.tolist(),
                                 self.start[completed].tolist(),
                                 self.finish[completed].tolist()):
            resources = res_ids[i]
            if is_compute[i]:
                device = resources[0]
                busy = device_busy.get(device)
                device_busy[device] = (end - begin) if busy is None \
                    else busy + (end - begin)
            else:
                for r in resources:
                    if is_link[r]:
                        intervals = link_intervals.get(r)
                        if intervals is None:
                            intervals = link_intervals[r] = []
                        intervals.append((begin, end))
        names = self.resource_names
        return ({names[r]: busy for r, busy in device_busy.items()},
                {names[r]: union_length(intervals)
                 for r, intervals in link_intervals.items()})

    def walls(self) -> Tuple[float, float]:
        """``communication_time`` and ``computation_wall``: the union
        lengths of the completed communication and compute intervals."""
        completed = self._completed()
        is_compute = self.is_compute
        comm: List[Tuple[float, float]] = []
        compute: List[Tuple[float, float]] = []
        for i, interval in zip(completed.tolist(),
                               zip(self.start[completed].tolist(),
                                   self.finish[completed].tolist())):
            (compute if is_compute[i] else comm).append(interval)
        return union_length(comm), union_length(compute)

    def schedule(self) -> Dict[str, Tuple[float, float]]:
        """Op name -> (start, finish), in start order."""
        order = self.order
        return dict(zip(map(self.names.__getitem__, order.tolist()),
                        zip(self.start[order].tolist(),
                            self.finish[order].tolist())))

    def start_order(self) -> np.ndarray:
        """Per-op priorities (int32, by op id) that replay the run: ops
        ranked by start, then finish, ties kept in start order."""
        order = self.order
        n = len(self.names)
        if len(order) != n:
            raise ValueError("start_order needs a run that started every op")
        ranked = order[np.lexsort((self.finish[order], self.start[order]))]
        prio = np.empty(n, dtype=np.int32)
        prio[ranked] = np.arange(n, dtype=np.int32)
        return prio


class SimulationResult:
    """Outcome of executing one distributed training iteration.

    Built by the simulator from the run's start order and per-op start
    and finish times (:class:`RunTimes`).  It derives ``device_busy``,
    ``link_busy``, ``communication_time`` and ``computation_wall`` from
    them the first time one of them is read, and ``schedule`` on every
    read; the search reads none of them.

    ``pruned``: the run aborted cooperatively after ``makespan``
    exceeded the caller's ``prune_above`` threshold; every other field
    is partial and ``makespan`` is a *lower bound* on the true
    iteration time.
    """

    def __init__(self, times: RunTimes, *, makespan: float,
                 peak_memory: Dict[str, float], oom_devices: List[str],
                 pruned: bool):
        self.makespan = makespan
        self.peak_memory = peak_memory
        self.oom_devices = oom_devices
        self.pruned = pruned
        self._times = times

    def start_order(self) -> np.ndarray:
        """Per-op priorities (int32, by op id) that replay this run:
        ops ranked by start, then finish, ties kept in start order."""
        return self._times.start_order()

    # derived pairwise on first read (a failure detector reads the busy
    # dicts every step and never the walls)
    _resource_busy = cached_property(
        lambda self: self._times.resource_busy())
    _walls = cached_property(lambda self: self._times.walls())
    #: per-GPU total busy compute seconds
    device_busy = cached_property(lambda self: self._resource_busy[0])
    #: per-link busy seconds (union of its transfer intervals)
    link_busy = cached_property(lambda self: self._resource_busy[1])
    #: wall-clock during which >=1 communication op was in flight
    communication_time = cached_property(lambda self: self._walls[0])
    #: wall-clock during which >=1 GPU was computing
    computation_wall = cached_property(lambda self: self._walls[1])

    @property
    def schedule(self) -> Dict[str, Tuple[float, float]]:
        """Op name -> (start, end), in start order; built on every read
        and not kept, so a cached result whose schedule was read once
        holds no dict of it."""
        return self._times.schedule()

    @property
    def oom(self) -> bool:
        return bool(self.oom_devices)

    @property
    def computation_time(self) -> float:
        """Max per-GPU busy compute time — the Fig. 8 'Computation' bar."""
        if not self.device_busy:
            return 0.0
        return max(self.device_busy.values())

    @property
    def overlap_ratio(self) -> float:
        """(computation + communication) / per-iteration time (Sec. 6.7);
        > 1 indicates computation/communication overlap."""
        if self.makespan <= 0:
            return 0.0
        return (self.computation_time + self.communication_time) / self.makespan

    def summary(self) -> Dict[str, float]:
        return {
            "makespan": self.makespan,
            "computation_time": self.computation_time,
            "communication_time": self.communication_time,
            "overlap_ratio": self.overlap_ratio,
            "oom": float(self.oom),
        }
