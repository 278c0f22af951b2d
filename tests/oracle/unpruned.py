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
from typing import Dict, List, Optional

from repro.errors import CompileError
from repro.parallel.strategy import Strategy
from repro.plan import EvalOutcome, PlanBuilder
from repro.scheduling import FifoScheduler, ListScheduler
from repro.simulation import Simulator, lower

from tests.oracle import trace_order


@dataclass
class UnprunedOutcome(EvalOutcome):
    """An :class:`EvalOutcome` plus the order decision behind it."""

    chosen: Optional[str] = None   # "rank" | "earliest"; None under FIFO
    order: Optional[List[int]] = None   # the chosen priorities, by op index
    #: every candidate order's complete simulation, by name
    runs: Dict[str, object] = field(default_factory=dict)


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

    def run(order):
        return simulator.run(dist, order=order, resident_bytes=resident,
                             capacities=builder.capacities, kernel=kernel)

    if builder.use_order_scheduling:
        rank_order = ListScheduler()._rank_priorities(kernel, builder.cost)
        runs = {"rank": run(rank_order), "earliest": run(None)}
        if runs["rank"].makespan <= runs["earliest"].makespan:
            chosen, order = "rank", rank_order
        else:
            chosen = "earliest"
            order = trace_order(kernel.names, runs["earliest"].schedule)
        result = runs[chosen]
    else:
        chosen = None
        order = FifoScheduler().schedule(dist).order.tolist()
        result = run(order)
        runs = {"fifo": result}
    return UnprunedOutcome(time=result.makespan, dist_ops=len(dist),
                           peak_memory=result.peak_memory,
                           oom_devices=result.oom_devices, chosen=chosen,
                           order=order, runs=runs)


def unpruned_evaluate(builder: PlanBuilder) -> PlanBuilder:
    """Make ``builder.evaluate`` the unpruned pipeline: every candidate
    runs to completion, whatever best-so-far the caller passes."""
    builder.evaluate = (
        lambda strategy, **_: unpruned_outcome(builder, strategy))
    return builder
