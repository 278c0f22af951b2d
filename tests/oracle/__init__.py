"""Test-only oracle: the original dict-keyed simulation event loop.

``Simulator.run`` must match :func:`run_reference` bit for bit on every
observable: makespan, per-op start/finish, busy/overlap metrics, peak
memory, the OOM set, the prune verdict and partial makespan, and
deadlock error text.  :func:`reference_simulator` swaps it in for
``Simulator.run`` so whole pipelines can be paired against it too.
The loop prices one op at a time with :func:`op_duration`, drawing one
scalar jitter factor per op, and returns a plain
:class:`ReferenceResult`.

The original string-keyed graph compiler lives next to it, as
``ReferenceCompiler`` in :mod:`tests.oracle.compiler`, and the original
dense masked-attention GAT layer as ``DenseGATLayer`` in
:mod:`tests.oracle.gat`, and candidate evaluation with every pruning
layer off as ``unpruned_outcome`` in :mod:`tests.oracle.unpruned`, and
the per-fit profiling loop as ``reference_profile`` in
:mod:`tests.oracle.profile`.  :func:`reference_busy` is the one-pass
derivation of a run's busy dicts and walls.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from repro.errors import DeviceLostError, SimulationError
from repro.parallel.distgraph import DistGraph, DistOp
from repro.simulation.costs import (
    CostProvider,
    MappingCostModel,
    ProfileCostModel,
)
from repro.simulation.engine import Simulator
from repro.simulation.kernel import PRUNE_GUARD
from repro.simulation.memory import MemoryTracker
from repro.simulation.metrics import RunTimes, union_length


def op_duration(cost: CostProvider, op: DistOp) -> float:
    """One op's duration under ``cost``, priced on its own: what
    ``cost.prices`` gives for it, and under a jittered truth model one
    scalar log-normal draw per call, the factor ``cost.draw`` batches.
    Raises :class:`DeviceLostError` for an op on a crashed device."""
    if isinstance(cost, MappingCostModel):
        if op.name in cost.durations:
            return float(cost.durations[op.name])
        if cost.default is not None:
            return float(cost.default)
        raise SimulationError(f"no duration registered for {op.name!r}")
    if isinstance(cost, ProfileCostModel):
        return cost._price(op.recipe(), op.source_op)
    device, base = cost._price(op.recipe(), op.source_op)
    if device is not None:
        raise DeviceLostError(device, op.name)
    if cost.jitter_sigma <= 0:
        return base
    return base * float(cost._rng.lognormal(0.0, cost.jitter_sigma))


@dataclass
class ReferenceResult:
    """The observables of one :func:`run_reference` iteration, each
    meaning what it means on a :class:`SimulationResult`."""

    makespan: float
    device_busy: Dict[str, float]
    link_busy: Dict[str, float]
    communication_time: float
    computation_wall: float
    peak_memory: Dict[str, float]
    oom_devices: List[str]
    schedule: Dict[str, Tuple[float, float]]
    pruned: bool


def run_reference(
    cost: CostProvider,
    graph: DistGraph,
    *,
    order: Optional[Sequence[int]] = None,
    resident_bytes: Optional[Dict[str, int]] = None,
    capacities: Optional[Dict[str, int]] = None,
    strict: bool = False,
    prune_above: Optional[float] = None,
) -> ReferenceResult:
    """Simulate one iteration of ``graph`` under ``cost``; the arguments
    mean what they mean for :meth:`Simulator.run`.  The loop keys
    everything by op name, ``order`` too."""
    if strict and order is None:
        raise SimulationError("strict mode requires an order")
    priorities: Optional[Dict[str, int]] = None
    if order is not None:
        priorities = dict(zip(graph.op_names, np.asarray(order).tolist()))
    prune_limit = float("inf") if prune_above is None else prune_above
    # see the kernel engine: tail cuts must violate by more than the
    # fp guard margin; the clock check stays exact
    tail_limit = prune_limit * (1.0 + PRUNE_GUARD)
    was_pruned = False

    ops: Dict[str, DistOp] = {name: graph.op(name)
                              for name in graph.op_names}
    resources_of: Dict[str, Tuple[str, ...]] = {
        name: op.resources() for name, op in ops.items()
    }
    pending_deps: Dict[str, int] = {
        name: len(graph.predecessors(name)) for name in ops
    }

    # strict mode: per-resource queues in priority order; an op may only
    # start while it is at the head of every one of its resource queues
    if strict:
        strict_queues: Dict[str, List[str]] = {}
        for name in ops:
            for r in resources_of[name]:
                strict_queues.setdefault(r, []).append(name)
        for r, names in strict_queues.items():
            names.sort(key=lambda n: priorities.get(n, 0))
        head_index: Dict[str, int] = {r: 0 for r in strict_queues}

        def is_head(name: str) -> bool:
            return all(
                strict_queues[r][head_index[r]] == name
                for r in resources_of[name]
            )

        def advance_heads(name: str) -> None:
            for r in resources_of[name]:
                head_index[r] += 1
    else:
        def is_head(name: str) -> bool:  # noqa: ARG001
            return True

        def advance_heads(name: str) -> None:  # noqa: ARG001
            return None

    # tail-based abort mirror of the kernel engine: same recursion,
    # same float accumulation order (successor list order), so pruned
    # partial results stay bit-identical across engines
    tails: Optional[Dict[str, float]] = None
    if (prune_above is not None
            and getattr(cost, "deterministic", False)):
        try:
            topo = graph.topological_order()
        except Exception:
            topo = None  # cyclic: deadlock detection handles it
        if topo is not None:
            tails = {}
            for name in reversed(topo):
                tail = 0.0
                for s in graph.successors(name):
                    t = op_duration(cost, ops[s]) + tails[s]
                    if t > tail:
                        tail = t
                tails[name] = tail

    memory = MemoryTracker(graph, resident_bytes or {})
    use_fifo = priorities is None
    counter = itertools.count()

    def priority_of(name: str) -> float:
        return next(counter) if use_fifo else priorities.get(name, 0)

    resource_busy: Dict[str, bool] = {}
    # per-resource priority heap of (priority, tiebreak, name) waiters
    waiting: Dict[str, List[Tuple[float, int, str]]] = {}
    now = 0.0
    completions: List[Tuple[float, int, str]] = []
    started: Dict[str, float] = {}
    finished: Dict[str, float] = {}
    device_busy: Dict[str, float] = {}
    link_intervals: Dict[str, List[Tuple[float, float]]] = {}
    comm_intervals: List[Tuple[float, float]] = []
    compute_intervals: List[Tuple[float, float]] = []
    in_wait_queue: Dict[str, bool] = {}

    def try_start(name: str, prio: float) -> None:
        """Start ``name`` if possible; otherwise park it on the first
        busy resource it needs (or the strict-order head block)."""
        op = ops[name]
        blocked_on: Optional[str] = None
        for r in resources_of[name]:
            if resource_busy.get(r, False):
                blocked_on = r
                break
        if blocked_on is None and not is_head(name):
            # strict mode: wait on the first resource where this op is
            # not at the head of the queue
            for r in resources_of[name]:
                if strict_queues[r][head_index[r]] != name:
                    blocked_on = r
                    break
        if blocked_on is not None:
            heapq.heappush(
                waiting.setdefault(blocked_on, []),
                (prio, next(counter), name),
            )
            in_wait_queue[name] = True
            return

        advance_heads(name)
        for r in resources_of[name]:
            resource_busy[r] = True
        duration = op_duration(cost, op)
        if duration < 0:
            raise SimulationError(
                f"negative duration for {name}: {duration}"
            )
        memory.on_start(op)
        started[name] = now
        heapq.heappush(completions,
                       (now + duration, next(counter), name))

    def release_resource(resource: str) -> None:
        """Free a resource and retry its waiters in priority order."""
        resource_busy[resource] = False
        queue = waiting.get(resource)
        if not queue:
            return
        # retry all current waiters; those still blocked re-park on
        # whatever resource now blocks them (possibly this one again)
        current, waiting[resource] = queue, []
        for prio, _, name in sorted(current):
            in_wait_queue[name] = False
            try_start(name, prio)

    # kick off sources in priority order
    initial = sorted(
        (priority_of(name), next(counter), name)
        for name, deps in pending_deps.items() if deps == 0
    )
    for prio, _, name in initial:
        try_start(name, prio)

    executed = 0
    total = len(ops)
    while completions:
        now, _, name = heapq.heappop(completions)
        if now > prune_limit:
            was_pruned = True
            break
        if tails is not None and now + tails[name] > tail_limit:
            was_pruned = True
            now += tails[name]
            break
        op = ops[name]
        finished[name] = now
        executed += 1
        memory.on_finish(op)

        begin = started[name]
        if op.is_compute:
            device_busy[op.device] = device_busy.get(op.device, 0.0) + (
                now - begin
            )
            compute_intervals.append((begin, now))
        else:
            comm_intervals.append((begin, now))
            for r in resources_of[name]:
                if r.startswith("link:"):
                    link_intervals.setdefault(r, []).append((begin, now))

        # new ready successors first (so a freed resource sees them)
        for succ in graph.successors(name):
            pending_deps[succ] -= 1
            if pending_deps[succ] == 0:
                try_start(succ, priority_of(succ))

        for r in resources_of[name]:
            release_resource(r)

    if executed != total and not was_pruned:
        stuck = [n for n, d in pending_deps.items() if d > 0][:5]
        waiting_named = [n for n, w in in_wait_queue.items() if w][:5]
        raise SimulationError(
            f"deadlock: executed {executed}/{total} ops; "
            f"stuck deps on {stuck}; parked {waiting_named}"
        )

    capacities = capacities or {}
    return ReferenceResult(
        makespan=now,
        device_busy=device_busy,
        link_busy={
            r: union_length(iv) for r, iv in link_intervals.items()
        },
        communication_time=union_length(comm_intervals),
        computation_wall=union_length(compute_intervals),
        peak_memory=dict(memory.peak),
        oom_devices=memory.oom_devices(capacities),
        schedule={n: (started[n], finished.get(n, 0.0)) for n in started},
        pruned=was_pruned,
    )


def reference_busy(times: RunTimes) -> Tuple[Dict[str, float],
                                              Dict[str, float], float, float]:
    """``device_busy``, ``link_busy``, ``communication_time`` and
    ``computation_wall`` of a run, derived in one pass over its
    completions, as ``RunTimes.busy`` did before the busy dicts and the
    two walls were split apart."""
    order = times.order
    finish = times.finish
    if times.in_flight:
        order = order[~np.isin(order, times.in_flight)]
    completed = order[np.argsort(finish[order], kind="stable")]
    res_ids, is_compute, is_link = (times.res_ids, times.is_compute,
                                    times.is_link)
    device_busy: Dict[int, float] = {}
    link_intervals: Dict[int, List[Tuple[float, float]]] = {}
    comm: List[Tuple[float, float]] = []
    compute: List[Tuple[float, float]] = []
    for i, begin, end in zip(completed.tolist(),
                             times.start[completed].tolist(),
                             finish[completed].tolist()):
        resources = res_ids[i]
        if is_compute[i]:
            device = resources[0]
            busy = device_busy.get(device)
            device_busy[device] = (end - begin) if busy is None \
                else busy + (end - begin)
            compute.append((begin, end))
        else:
            comm.append((begin, end))
            for r in resources:
                if is_link[r]:
                    intervals = link_intervals.get(r)
                    if intervals is None:
                        intervals = link_intervals[r] = []
                    intervals.append((begin, end))
    names = times.resource_names
    return ({names[r]: busy for r, busy in device_busy.items()},
            {names[r]: union_length(intervals)
             for r, intervals in link_intervals.items()},
            union_length(comm), union_length(compute))


def trace_order(names: Sequence[str],
                schedule: Dict[str, Tuple[float, float]]) -> List[int]:
    """Per-op priorities, by the op index of ``names``, that replay a
    run: its ops sorted by (start, finish), ties kept in the schedule's
    start order."""
    ordered = sorted(schedule, key=schedule.__getitem__)
    position = {name: i for i, name in enumerate(ordered)}
    return [position[name] for name in names]


@contextlib.contextmanager
def reference_simulator() -> Iterator[None]:
    """Route every ``Simulator.run`` call to :func:`run_reference`,
    ignoring the kernel-only ``kernel`` argument."""
    def run(self, graph, *, kernel=None, **kw):
        return run_reference(self.cost, graph, **kw)

    with mock.patch.object(Simulator, "run", run):
        yield
