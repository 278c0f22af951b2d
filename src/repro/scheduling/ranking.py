"""Operation ranks for list scheduling (paper Sec. 4.2).

``rank(o_i) = p_i + max_{o_j in succ(o_i)} rank(o_j)`` — an op's rank is
the length of the longest remaining path to the sink, counting both
computation and communication durations.  HEFT-style upward rank.

``DEFAULT_COMM_WEIGHT`` implements the "maximal computation-communication
overlap" goal: communication durations are inflated when computing ranks
(not when simulating!), so a cheap compute op that unblocks a large
tensor transfer or collective outranks equally-cheap compute that only
continues the backward chain.  Without it, every parameter-gradient op
(tiny compute, short remaining path) is postponed behind the backward
chain and all gradient aggregations serialize in a tail after BP — the
exact pathology Figs. 1-2 of the paper illustrate.

The computation runs over the graph's :class:`SimKernel` array lowering:
the topological order, per-op durations and successor adjacency are
shared with the simulator instead of being re-derived per call.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import DeviceLostError
from ..parallel.distgraph import DistGraph
from ..simulation.costs import CostProvider
from ..simulation.kernel import SimKernel, lower

#: inflation of communication time in rank computation
DEFAULT_COMM_WEIGHT = 4.0


def kernel_ranks(kernel: SimKernel, cost: CostProvider) -> "list[float]":
    """Upward ranks indexed by kernel op index.

    Shares the kernel's cached duration array when the cost provider is
    deterministic; a stochastic provider's jitter is read in reverse
    topological order (the same draw order the dict implementation
    used).
    """
    if kernel.has_cycle:
        # raise the same CompileError the graph API raises for cycles
        kernel.graph.topological_order()
    durations = kernel.durations_for(cost)
    if durations is None:
        durations = _drawn_durations(kernel, cost)
    is_comm = kernel.is_comm
    succ = kernel.succ
    ranks = [0.0] * kernel.n
    for i in reversed(kernel.topo):
        duration = durations[i]
        if is_comm[i]:
            duration *= DEFAULT_COMM_WEIGHT
        succ_rank = 0.0
        for s in succ[i]:
            rank = ranks[s]
            if rank > succ_rank:
                succ_rank = rank
        ranks[i] = duration + succ_rank
    return ranks


def _drawn_durations(kernel: SimKernel, cost: CostProvider) -> List[float]:
    """One draw of a stochastic provider's durations, its jitter read in
    reverse topological order; raises for the first op in that order
    that touches a crashed device."""
    base, lost, jitter = cost.draw(kernel)
    if lost is not None:
        pos = kernel.topo_positions()
        i = max(lost, key=pos.__getitem__)
        cost.settle(kernel.n - 1 - pos[i])
        raise DeviceLostError(lost[i], kernel.names[i])
    if jitter is None:
        return base
    durations = [0.0] * kernel.n
    for k, i in enumerate(reversed(kernel.topo)):
        durations[i] = base[i] * jitter[k]
    return durations


def compute_ranks(graph: DistGraph, cost: CostProvider, *,
                  kernel: Optional[SimKernel] = None
                  ) -> Dict[str, float]:
    """Upward rank of every dist-op under the given cost model."""
    kernel = kernel if kernel is not None else lower(graph)
    ranks = kernel_ranks(kernel, cost)
    names = kernel.names
    # keyed in reverse topological order, matching the historical
    # insertion order of the dict implementation
    return {names[i]: ranks[i] for i in reversed(kernel.topo)}
