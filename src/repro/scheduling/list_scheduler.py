"""Rank-based list scheduling (paper Sec. 4.2) and the FIFO baseline.

The Scheduler assigns every dist-op a priority derived from its upward
rank; the execution engine then runs ready ops on each device/link in
priority order.  ``TensorFlow``'s default behaviour — executing ops in the
order they become ready — is the FIFO baseline of Table 7.

Scheduling is *single-pass*: the two candidate-order simulations run on
the graph's shared :class:`SimKernel` lowering, and the winning
candidate's full :class:`SimulationResult` is returned on the
:class:`Schedule` so the plan layer can reuse it instead of simulating
the chosen order a third time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .. import telemetry
from ..parallel.distgraph import DistGraph
from ..simulation.costs import CostProvider
from ..simulation.kernel import SimKernel, lower
from ..simulation.metrics import SimulationResult
from .ranking import kernel_ranks


@dataclass(frozen=True, eq=False)
class Schedule:
    """An execution-order decision: ``order[i]`` is the priority of the
    kernel's op ``i`` (smaller runs first), an int32 permutation."""

    order: np.ndarray
    chosen: Optional[str] = None  # which candidate order won
    # the winning candidate's simulation, when the scheduler already
    # ran it under the caller's resident_bytes/capacities — PlanBuilder
    # reuses this instead of re-simulating the plan
    sim_result: Optional[SimulationResult] = None


class ListScheduler:
    """Computes the HeteroG execution order for a distributed graph.

    Two candidate orders are evaluated in the Strategy Maker's simulator
    and the better one is enforced:

    - ``rank``: upward-rank priorities with communication inflated by
      ``DEFAULT_COMM_WEIGHT`` — dominant when independent links (PS
      pushes/pulls) carry the traffic and the critical path matters;
    - ``earliest``: the emergent ready-arrival order, captured from a
      simulation's start order into a static order — dominant when a single
      serialized resource (NCCL) is the bottleneck and collectives must
      start as early as possible.

    Both are schedules the paper's Scheduler could emit; simulating
    candidates is exactly what its Simulator component is for (Sec. 3.3).

    The scheduler carries no per-call state, so one instance is safe to
    share across threads.
    """

    def _rank_priorities(self, kernel: SimKernel,
                         cost: CostProvider) -> List[int]:
        """The ``rank`` order: each op's priority, by op index."""
        ranks = kernel_ranks(kernel, cost)
        # higher rank -> runs earlier; ties broken by topological position
        # for determinism (matching the engine's stable heap ordering)
        topo_pos = kernel.topo_positions()
        # C-level sort key: precompute (-rank, topo_pos) tuples and index
        # into them, instead of calling a Python lambda per comparison
        sort_keys = list(zip([-r for r in ranks], topo_pos))
        ordered = sorted(range(kernel.n), key=sort_keys.__getitem__)
        prio_arr = [0] * kernel.n
        for pos, i in enumerate(ordered):
            prio_arr[i] = pos
        return prio_arr

    def schedule(self, graph: DistGraph, cost: CostProvider, *,
                 kernel: Optional[SimKernel] = None,
                 resident_bytes: Optional[Dict[str, int]] = None,
                 capacities: Optional[Dict[str, int]] = None,
                 prune_above: Optional[float] = None) -> Schedule:
        """Choose the better of the two candidate orders.

        ``kernel`` reuses an existing lowering (otherwise taken from the
        graph's cache).  When ``resident_bytes``/``capacities`` are
        given, the candidate simulations account memory under them and
        the winner's result — returned as ``Schedule.sim_result`` — is a
        full evaluation of the chosen order.

        ``prune_above`` aborts both candidate simulations once they
        exceed the caller's best-so-far: when *both* abort, the returned
        Schedule carries a ``pruned`` sim_result whose makespan is a
        lower bound on this strategy's winner (the plan layer turns that
        into a pruned outcome).  Independently, the ``earliest``
        candidate is always raced against the completed ``rank``
        makespan — an earliest run that exceeds it has already lost the
        ``<=`` tie-break, so aborting there returns the identical
        winner.  Both prunings apply only under deterministic cost
        providers (a stochastic provider's RNG draw sequence must not
        depend on pruning).
        """
        from ..simulation.engine import Simulator  # local: avoid cycle
        kernel = kernel if kernel is not None else lower(graph)
        simulator = Simulator(cost)
        can_prune = cost.deterministic
        limit = prune_above if can_prune else None
        with telemetry.span("schedule.ranking", graph=graph.name):
            rank_order = self._rank_priorities(kernel, cost)
        with telemetry.span("schedule.placement", graph=graph.name):
            rank_run = simulator.run(graph, order=rank_order,
                                     resident_bytes=resident_bytes,
                                     capacities=capacities, kernel=kernel,
                                     prune_above=limit)
            # a completed rank run's makespan is itself a prune
            # threshold for the earliest candidate: rank wins ties, so
            # any earliest run that exceeds it has already lost
            if rank_run.pruned:
                earliest_limit = limit
            elif can_prune:
                earliest_limit = rank_run.makespan
            else:
                earliest_limit = None
            earliest_run = simulator.run(graph,
                                         resident_bytes=resident_bytes,
                                         capacities=capacities,
                                         kernel=kernel,
                                         prune_above=earliest_limit)
        if rank_run.pruned and earliest_run.pruned:
            # both candidates exceed the caller's best-so-far: the whole
            # strategy is out of the race; min of the partial makespans
            # is a lower bound on whatever the winner would have been
            pruned_result = (rank_run
                             if rank_run.makespan <= earliest_run.makespan
                             else earliest_run)
            return Schedule(order=np.array(rank_order, dtype=np.int32),
                            sim_result=pruned_result)
        if rank_run.pruned:
            chosen = "earliest"
        elif earliest_run.pruned:
            chosen = "rank"
        else:
            chosen = ("rank" if rank_run.makespan <= earliest_run.makespan
                      else "earliest")
        telemetry.emit_count("sched_chosen_total", labels={"order": chosen},
                             help="which candidate execution order won")
        if chosen == "rank":
            return Schedule(order=np.array(rank_order, dtype=np.int32),
                            chosen="rank",
                            sim_result=rank_run)
        return Schedule(
            order=earliest_run.start_order(),
            chosen="earliest",
            sim_result=earliest_run,
        )


class FifoScheduler:
    """The framework's default execution order (no order enforcement).

    TensorFlow's executor drains its ready queue with a thread pool, so
    the order among simultaneously-ready ops is effectively arbitrary
    and varies run to run.  We model it with seeded random priorities:
    among ready ops, an arbitrary one starts first.  (Strict
    ready-arrival order is an idealized FIFO that is often
    unrealistically good, because the compiler happens to enqueue
    gradient producers right before their consumers.)
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def schedule(self, graph: DistGraph,
                 cost: Optional[CostProvider] = None, *,
                 kernel: Optional[SimKernel] = None,
                 resident_bytes: Optional[Dict[str, int]] = None,
                 capacities: Optional[Dict[str, int]] = None,
                 prune_above: Optional[float] = None) -> Schedule:
        # prune_above is accepted for scheduler interchangeability but
        # moot here: FIFO ordering runs no candidate simulations
        kernel = kernel if kernel is not None else lower(graph)
        order = np.random.default_rng(self.seed).permutation(kernel.n)
        return Schedule(order=order.astype(np.int32))
