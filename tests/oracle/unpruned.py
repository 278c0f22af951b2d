"""Test-only oracle: candidate evaluation with no pruning at all.

:meth:`PlanBuilder.evaluate` always prunes: a static kernel bound and a
mid-simulation abort against the caller's best-so-far, and inside the
scheduler the ``earliest`` candidate order raced against the completed
``rank`` makespan.  Every layer is winner-safe, so the unpruned pipeline
survives only here, as the reference those layers are paired against:
compile through the builder, lower, simulate each candidate order to
completion under the builder's resident bytes and capacities, and keep
the faster one (``rank`` wins ties).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import CompileError
from repro.parallel.strategy import Strategy
from repro.plan import EvalOutcome, PlanBuilder
from repro.scheduling import FifoScheduler, ListScheduler
from repro.simulation import SimulationResult, Simulator, lower

from tests.oracle import trace_order


@dataclass
class UnprunedOutcome(EvalOutcome):
    """An :class:`EvalOutcome` plus the order decision behind it."""

    chosen: Optional[str] = None   # "rank" | "earliest"; None under FIFO
    priorities: Optional[Dict[str, int]] = None
    #: every candidate order's complete simulation, by name
    runs: Dict[str, SimulationResult] = field(default_factory=dict)


def unpruned_outcome(builder: PlanBuilder,
                     strategy: Strategy) -> UnprunedOutcome:
    """Evaluate ``strategy`` in ``builder``'s context without pruning."""
    try:
        dist, resident = builder.compile(strategy)
    except CompileError:
        return UnprunedOutcome(time=float("inf"), dist_ops=0,
                               infeasible=True)
    kernel = lower(dist)
    simulator = Simulator(builder.cost)

    def run(priorities, **kw) -> SimulationResult:
        return simulator.run(dist, priorities=priorities,
                             resident_bytes=resident,
                             capacities=builder.capacities,
                             kernel=kernel, **kw)

    if builder.use_order_scheduling:
        rank_priorities = dict(zip(kernel.names,
                                   ListScheduler()._rank_priorities(
                                       kernel, builder.cost)))
        runs = {"rank": run(rank_priorities), "earliest": run(None)}
        if runs["rank"].makespan <= runs["earliest"].makespan:
            chosen, priorities = "rank", rank_priorities
        else:
            chosen = "earliest"
            priorities = trace_order(runs["earliest"].schedule)
        result = runs[chosen]
    else:
        chosen = None
        priorities = FifoScheduler().schedule(dist).priorities
        result = run(priorities)
        runs = {"fifo": result}
    return UnprunedOutcome(time=result.makespan, dist_ops=len(dist),
                           peak_memory=result.peak_memory,
                           oom_devices=result.oom_devices, chosen=chosen,
                           priorities=priorities, runs=runs)
