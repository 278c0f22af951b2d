"""Discrete-event simulator of one distributed training iteration.

Implements the execution model of Sec. 4.2 / Sec. 5: every GPU runs at
most one computation op at a time; every link carries at most one tensor
at a time; an AllReduce seizes its whole ring of links plus the global
NCCL token.  Ready ops on a contended resource are started in priority
order (the Scheduler's computed order, or FIFO ready-arrival order as
TensorFlow's default engine does).

The same engine serves as the Strategy Maker's internal simulator (with
:class:`ProfileCostModel`) and as the testbed stand-in (with
:class:`TruthCostModel`); see DESIGN.md.

Work-conserving scheduling is implemented with per-resource wait queues:
a ready-but-blocked op parks on the first busy resource it needs, in a
heap ordered by (priority, tie-break counter), and is retried in
priority order when that resource frees.  A completion touches only the
queues of the resources it frees, never every blocked op.

Parking invariant: outside strict mode, every parked op sits on a
resource that is busy at that moment, and an op can start only when all
of its resources are free.

When priorities are distinct and the mode is not strict, draining a
freed resource *z* stops early.  Its heap is popped in priority order;
a waiter that is still blocked moves verbatim to its first busy
resource; the first waiter whose resources are all free starts and
thereby takes *z* again (every waiter parked on *z* needs *z*).  The
rest of the heap stays parked on *z*.  This is exact — the same ops
start in the same order as when every waiter is re-examined:

- by the invariant, every op that could start while *z* drains is
  parked on *z*, whichever busy resource the blocked ops chose;
- after *z* is taken again every remaining entry needs *z*, so it is
  parked on a busy resource and the invariant still holds;
- with distinct priorities the tie-break counter, which goes stale when
  an entry moves, is never compared.

A drain thus pops only the blocked waiters ahead of the one that starts.
Two cases keep the full re-scan, where every waiter goes back through
``try_start``: strict mode, where an op also parks on a *free* resource
when it is not at the head of that resource's queue, so the invariant
does not hold; and tied priorities, where the order among equal
priorities follows the counter drawn at each re-park.

The event loop runs on a :class:`SimKernel` array lowering of the graph:
integer op/resource ids, precomputed adjacency, resources, activation
sizes and (for deterministic cost providers) durations.  One lowering
is shared across ranking, both candidate-order simulations and every
re-simulation of a plan.  A stochastic provider prices the kernel from
arrays too (:meth:`TruthCostModel.draw`): base durations once per fault
overlay, and one batch of jitter per run, read in start order.

The loop is paired against the original string-keyed event loop, which
lives only in the test suite (``tests/oracle``), on every observable
output: makespan, per-op start/finish, busy/overlap metrics, peak
memory, the OOM device set, the prune verdict and partial makespan,
and deadlock error text.  The oracle re-examines every waiter on each
free.  Wherever they affect those outputs, the loop keeps the oracle's
event order, the relative order of its tie-breaking counter draws,
float arithmetic order and result-table insertion order.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..errors import DeviceLostError, SimulationError
from ..parallel.distgraph import DistGraph
from .costs import CostProvider
from .kernel import PRUNE_GUARD, SimKernel, lower
from .metrics import RunTimes, SimulationResult


class Simulator:
    """Executes a :class:`DistGraph` under a cost provider."""

    def __init__(self, cost: CostProvider):
        self.cost = cost

    def run(
        self,
        graph: DistGraph,
        *,
        order: Optional[Sequence[int]] = None,
        resident_bytes: Optional[Dict[str, int]] = None,
        capacities: Optional[Dict[str, int]] = None,
        strict: bool = False,
        kernel: Optional[SimKernel] = None,
        prune_above: Optional[float] = None,
    ) -> SimulationResult:
        """Simulate one iteration.

        ``order``: one priority per op index of the kernel (a
        :class:`~repro.scheduling.Schedule`'s ``order``); smaller number
        = runs earlier on a contended resource.  It must have one entry
        per op.  With None, FIFO (ready-arrival order) is used.

        ``strict``: enforce the priority order *per resource* even when the
        next-in-order op is not ready yet (non-work-conserving — the exact
        discipline analyzed by the paper's appendix).  Requires the
        order to be a linear extension of the DAG order (upward ranks
        are); the default work-conserving mode skips blocked ops.

        ``kernel``: a pre-lowered :class:`SimKernel` for ``graph`` (e.g.
        the one cached on an ExecutionPlan).  When omitted, the kernel is
        taken from the graph's own lowering cache.

        ``prune_above``: cooperative mid-simulation pruning.  The event
        loop aborts as soon as it can prove the makespan strictly
        exceeds this threshold — either the simulated clock itself
        passes it, or a completing op's downstream chain
        (:meth:`SimKernel.tails_for`) pushes ``now + tail`` past it,
        which fires long before the clock does on a losing schedule —
        and returns a partial result with ``pruned=True`` whose
        ``makespan`` is a lower bound on the true one.  Under a
        stochastic provider only the clock check fires (there is no
        tail array), and the provider keeps exactly the jitter draws of
        the ops started before the cut.
        """
        if kernel is None:
            kernel = lower(graph)
        if order is not None:
            if len(order) != kernel.n:
                raise SimulationError(
                    f"order has {len(order)} entries for {kernel.n} ops")
            if isinstance(order, np.ndarray):
                order = order.tolist()
        with telemetry.span("simulate", graph=graph.name, ops=len(graph)):
            result = self._run_kernel(
                kernel, order=order, resident_bytes=resident_bytes,
                capacities=capacities, strict=strict,
                prune_above=prune_above)
        tel = telemetry.active()
        if tel is not None:
            _observe_run(tel.registry, kernel, result)
        return result

    # ------------------------------------------------------------------ #
    # event loop: integer-indexed arrays, one lowering per graph
    # ------------------------------------------------------------------ #
    def _run_kernel(
        self,
        kernel: SimKernel,
        *,
        order: Optional[Sequence[int]],
        resident_bytes: Optional[Dict[str, int]],
        capacities: Optional[Dict[str, int]],
        strict: bool,
        prune_above: Optional[float] = None,
    ) -> SimulationResult:
        """Run the event loop under per-op-index priorities ``order``
        (FIFO when None).  The result keeps the op ids in start order,
        the start and finish times per op id and the ops still running
        at a prune cut; its breakdowns derive from those."""
        if strict and order is None:
            raise SimulationError("strict mode requires an order")
        prune_limit = float("inf") if prune_above is None else prune_above
        # the tail bound's fp rounding differs from the event loop's own
        # accumulation; require violation beyond the guard margin so a
        # cut is sound in floating point (the clock check stays exact —
        # ``now`` IS a completion time of the run being bounded)
        tail_limit = prune_limit * (1.0 + PRUNE_GUARD)
        was_pruned = False

        n = kernel.n
        names = kernel.names
        res_of = kernel.res_ids
        nres = len(kernel.resource_names)
        succ_of = kernel.succ
        pred_of = kernel.pred
        pending = list(kernel.pred_count)

        use_fifo = order is None
        prio: Sequence[float] = [] if use_fifo else order
        counter = itertools.count()
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Distinct priorities (always true for FIFO, whose priorities are
        # fresh counter draws, and for every scheduler-built order) never
        # tie, so the waiter heaps never compare their tie-break
        # counters; outside strict mode that lets drain_waiters stop
        # early (see the module docstring).
        early_stop = not strict and (use_fifo or len(set(prio)) == n)

        # durations[i] (times jitter[k] for the k-th op started) is op
        # i's duration; a stochastic provider prices the ops that touch
        # a crashed device at -inf and names the device in ``lost``, and
        # must be told how many jitter factors the run used
        cost = self.cost
        durations = kernel.durations_for(cost)
        lost = jitter = None
        if durations is None:
            durations, lost, jitter = cost.draw(kernel)
        # tail-based abort: once op i completes at t, the makespan is at
        # least t + tails[i] (its downstream chain must still run), so a
        # losing simulation is detected long before the clock itself
        # crosses the threshold.  Only priced for deterministic costs.
        tails = (kernel.tails_for(self.cost)
                 if prune_above is not None else None)

        # strict mode: per-resource queues in priority order; an op may only
        # start while it is at the head of every one of its resource queues
        if strict:
            strict_queues: List[List[int]] = [[] for _ in range(nres)]
            for i in range(n):
                for r in res_of[i]:
                    strict_queues[r].append(i)
            for queue in strict_queues:
                queue.sort(key=prio.__getitem__)
            head_index = [0] * nres

        # memory state, lowered: run-local device table seeded from the
        # resident map, extended in first-charge order (replicating the
        # MemoryTracker's dict insertion order for peaks and OOM reports)
        charge_dev = kernel.charge_dev
        out_bytes = kernel.out_bytes
        run_dev_of = [-1] * len(kernel.mem_dev_names)
        run_dev_names: List[str] = []
        mem_cur: List[float] = []
        mem_peak: List[float] = []
        if resident_bytes:
            mem_dev_index = kernel.mem_dev_index
            for dev, b in resident_bytes.items():
                ki = mem_dev_index.get(dev)
                if ki is not None:
                    run_dev_of[ki] = len(run_dev_names)
                run_dev_names.append(dev)
                mem_cur.append(float(b))
                mem_peak.append(float(b))
        refs = list(kernel.succ_count)

        resource_busy = [False] * nres
        # per-resource priority heap of (priority, tiebreak, op) waiters
        waiting: List[Optional[List[Tuple[float, int, int]]]] = [None] * nres
        now = 0.0
        completions: List[Tuple[float, int, int]] = []
        started = [0.0] * n
        start_order: List[int] = []
        finished = [0.0] * n
        in_wait_queue = [False] * n
        wait_seen = [False] * n
        wait_order: List[int] = []
        mem_dev_names = kernel.mem_dev_names

        def try_start(i: int, p: float) -> None:
            """Start op ``i`` if possible; otherwise park it on the first
            busy resource it needs (or the strict-order head block)."""
            blocked = -1
            for r in res_of[i]:
                if resource_busy[r]:
                    blocked = r
                    break
            if blocked < 0 and strict:
                # wait on the first resource where this op is not at the
                # head of the queue
                for r in res_of[i]:
                    if strict_queues[r][head_index[r]] != i:
                        blocked = r
                        break
            if blocked >= 0:
                queue = waiting[blocked]
                if queue is None:
                    queue = waiting[blocked] = []
                heappush(queue, (p, next(counter), i))
                in_wait_queue[i] = True
                if not wait_seen[i]:
                    wait_seen[i] = True
                    wait_order.append(i)
                return

            if strict:
                for r in res_of[i]:
                    head_index[r] += 1
            for r in res_of[i]:
                resource_busy[r] = True
            duration = durations[i] if jitter is None \
                else durations[i] * jitter[len(start_order)]
            if duration < 0:
                if lost is not None and i in lost:
                    cost.settle(len(start_order))
                    raise DeviceLostError(lost[i], names[i])
                raise SimulationError(
                    f"negative duration for {names[i]}: {duration}"
                )
            # memory on start: charge the op's output to its device
            ki = charge_dev[i]
            if ki >= 0:
                size = out_bytes[i]
                if size > 0:
                    ri = run_dev_of[ki]
                    if ri < 0:
                        ri = len(run_dev_names)
                        run_dev_of[ki] = ri
                        run_dev_names.append(mem_dev_names[ki])
                        mem_cur.append(0.0)
                        mem_peak.append(0.0)
                    current = mem_cur[ri] + size
                    mem_cur[ri] = current
                    if current > mem_peak[ri]:
                        mem_peak[ri] = current
            started[i] = now
            start_order.append(i)
            heappush(completions, (now + duration, next(counter), i))

        def drain_waiters(resource: int, queue: List[Tuple[float, int, int]]
                          ) -> None:
            """Retry a freed resource's waiters in priority order."""
            waiting[resource] = None
            if not early_stop:
                # full re-scan: every waiter goes back through try_start
                # and re-parks on whatever now blocks it, drawing a new
                # tie-break counter
                for p, _, i in (queue if len(queue) == 1 else sorted(queue)):
                    in_wait_queue[i] = False
                    try_start(i, p)
                return
            while queue:
                entry = heappop(queue)
                i = entry[2]
                blocked = -1
                for r in res_of[i]:
                    if resource_busy[r]:
                        blocked = r
                        break
                if blocked < 0:
                    # it starts and takes this resource again, which every
                    # waiter left needs: the rest of the heap stays
                    # parked here as it is
                    in_wait_queue[i] = False
                    try_start(i, entry[0])
                    if queue:
                        waiting[resource] = queue
                    return
                # still blocked: move the entry verbatim to its first busy
                # resource (only its never-compared tie-break counter goes
                # stale)
                queue2 = waiting[blocked]
                if queue2 is None:
                    queue2 = waiting[blocked] = []
                heappush(queue2, entry)

        # kick off sources in priority order
        initial = sorted(
            ((next(counter) if use_fifo else prio[i]), next(counter), i)
            for i in kernel.sources
        )
        for p, _, i in initial:
            try_start(i, p)

        executed = 0
        while completions:
            now, _, i = heappop(completions)
            if now > prune_limit:
                # cooperative abort: every remaining completion is at or
                # after ``now``, so the true makespan strictly exceeds
                # the threshold and ``now`` is an admissible lower bound
                was_pruned = True
                break
            if tails is not None and now + tails[i] > tail_limit:
                # ``i``'s downstream chain alone pushes the makespan past
                # the threshold; report the violated bound as the partial
                # makespan (still admissible, strictly tighter than now)
                was_pruned = True
                now += tails[i]
                break
            finished[i] = now
            executed += 1
            # memory on finish: release one reference on each input; a
            # producer's output is freed when its last consumer finishes
            # (an op with no consumers frees its own output immediately)
            for p in pred_of[i]:
                left = refs[p]
                if left <= 0:
                    raise SimulationError(
                        f"refcount underflow on {names[p]!r}"
                    )
                refs[p] = left - 1
                if left == 1:
                    kp = charge_dev[p]
                    if kp >= 0:
                        size = out_bytes[p]
                        if size > 0:
                            mem_cur[run_dev_of[kp]] -= size
            if refs[i] == 0:
                ki = charge_dev[i]
                if ki >= 0:
                    size = out_bytes[i]
                    if size > 0:
                        mem_cur[run_dev_of[ki]] -= size

            # new ready successors first (so a freed resource sees them)
            for s in succ_of[i]:
                left = pending[s] - 1
                pending[s] = left
                if left == 0:
                    try_start(s, next(counter) if use_fifo else prio[s])

            for r in res_of[i]:
                resource_busy[r] = False
                queue = waiting[r]
                if queue:
                    drain_waiters(r, queue)

        if jitter is not None:
            # a cut or a deadlock starts fewer ops than were drawn for
            cost.settle(len(start_order))
        if was_pruned:
            # the op whose completion tripped the cut did not complete
            completions.append((now, 0, i))
        elif executed != n:
            stuck = [names[i] for i in range(n) if pending[i] > 0][:5]
            waiting_named = [names[i] for i in wait_order
                             if in_wait_queue[i]][:5]
            raise SimulationError(
                f"deadlock: executed {executed}/{n} ops; "
                f"stuck deps on {stuck}; parked {waiting_named}"
            )

        capacities = capacities or {}
        # cached plans keep these arrays: int32 ids keep them small
        times = RunTimes(kernel, np.array(start_order, dtype=np.int32),
                         np.array(started), np.array(finished),
                         [entry[2] for entry in completions])
        return SimulationResult(
            times, makespan=now,
            peak_memory={run_dev_names[ri]: mem_peak[ri]
                         for ri in range(len(run_dev_names))},
            oom_devices=[
                run_dev_names[ri] for ri in range(len(run_dev_names))
                if run_dev_names[ri] in capacities
                and mem_peak[ri] > capacities[run_dev_names[ri]]
            ],
            pruned=was_pruned,
        )


def _observe_run(registry, kernel: SimKernel,
                 result: SimulationResult) -> None:
    """Derive one run's metrics from its start and finish times, after
    the event loop.

    An op's queue wait is its start minus its latest predecessor's
    finish (0 for a source).  A positive wait is charged to the op's
    own resource whose previous holder finished last (on a tie, the
    later one in the op's resource list).  Ops still running at a prune
    cut (``in_flight``) did not complete.

    The passes run over arrays.  Observations and per-resource sums go
    in start order, so every total equals a per-op sum in start order,
    bit for bit.
    """
    times = result._times
    order = times.order
    finish = times.finish
    start_order = order.tolist()
    ready = np.zeros(kernel.n)
    np.maximum.at(ready, np.repeat(np.arange(kernel.n), kernel.pred_count),
                  finish[np.fromiter(itertools.chain.from_iterable(
                      kernel.pred), np.intp)])
    waits = (times.start - ready)[order]
    queue_wait = registry.histogram(
        "sim_queue_wait_seconds",
        help="simulated time ops spend ready but blocked")
    for wait in waits.tolist():
        queue_wait.observe(wait)

    # one row per (started op, resource it holds), in start order
    held = [kernel.res_ids[i] for i in start_order]
    row_op = np.repeat(np.arange(len(held)), list(map(len, held)))
    row_res = np.fromiter(itertools.chain.from_iterable(held), np.intp)
    # when each row's resource was released: its previous holder's finish
    by_res = np.argsort(row_res, kind="stable")
    follows = row_res[by_res[1:]] == row_res[by_res[:-1]]
    released = np.full(len(row_res), -np.inf)
    released[by_res[1:][follows]] = finish[order][row_op][by_res[:-1]][follows]
    # each op's row that sorts last by release time; the sort is
    # stable, so a tie goes to the later resource
    by_op = np.lexsort((released, row_op))
    last = by_op[np.flatnonzero(np.diff(row_op[by_op], append=len(held)))]
    charged = last[(waits[row_op[last]] > 0) & (released[last] > -np.inf)]
    totals = np.bincount(row_res[charged], weights=waits[row_op[charged]],
                         minlength=len(kernel.resource_names))
    for r in np.flatnonzero(totals):
        registry.counter(
            "sim_resource_wait_seconds_total",
            labels={"resource": kernel.resource_names[r]},
            help="simulated wait attributed to each resource",
        ).inc(float(totals[r]))

    kinds = kernel.kind_values
    completed = (Counter(map(kinds.__getitem__, start_order))
                 - Counter(map(kinds.__getitem__, times.in_flight)))
    for kind in set(kinds):
        registry.counter("sim_ops_total", labels={"kind": kind},
                         help="dist-ops completed, by kind",
                         ).inc(completed[kind])
    registry.counter("sim_runs_total", help="simulator invocations").inc()
    registry.counter("sim_events_total",
                     help="completion events processed",
                     ).inc(len(start_order) - len(times.in_flight))
    registry.histogram("sim_makespan_seconds",
                       help="simulated iteration makespans",
                       ).observe(result.makespan)
