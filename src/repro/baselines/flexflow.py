"""FlexFlow-style baseline (Jia et al., 2018).

FlexFlow searches per-operation parallelization with an MCMC simulated-
annealing loop over a simulator, but (per the paper's Sec. 6.8 critique)
"does not consider gradient aggregation methods or execution order of
operations".  We reproduce that scope: the proposal space per op group is
{MP on device m} U {even replication, proportional replication}; the
communication method is fixed to AllReduce; candidate costing uses the
framework-default FIFO order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..agent.policy import actions_to_strategy
from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..graph.grouping import Grouping, group_operations
from ..parallel.strategy import Strategy
from ..plan import PlanBuilder
from ..profiling.profiler import Profile, Profiler


@dataclass
class MCMCResult:
    """Outcome of one FlexFlow-style MCMC search."""
    strategy: Strategy
    time: float
    evaluations: int
    accepted: int


class FlexFlowSearch:
    """MCMC over the SOAP-like per-group space, AllReduce-only."""

    def __init__(self, graph: ComputationGraph, cluster: Cluster,
                 profile: Optional[Profile] = None, *, max_groups: int = 60,
                 seed: int = 0):
        self.graph = graph
        # no best-so-far pruning: MCMC acceptance needs the proposal's
        # exact finite time (and draws acceptance randomness on finite
        # scores), so pruning would change the walk
        self.cluster = cluster
        self.profile = profile or Profiler(seed=seed).profile(graph, cluster)
        avg = {op.name: op.flops for op in graph}
        self.grouping: Grouping = group_operations(graph, avg, max_groups)
        # the MCMC walk revisits states, so the builder's outcome cache
        # turns repeated proposals into dictionary lookups
        self.builder = PlanBuilder(
            graph, cluster, self.profile,
            use_order_scheduling=False,  # FlexFlow keeps default order
        )
        self.rng = np.random.default_rng(seed)
        m = cluster.num_devices
        # action ids reused from the policy encoding; AllReduce-only DP
        self._allowed: List[int] = list(range(m)) + [m + 1, m + 3]

    def _evaluate(self, actions: np.ndarray) -> float:
        strategy = actions_to_strategy(self.graph, self.cluster,
                                       self.grouping, actions)
        outcome = self.builder.evaluate(strategy)
        if not outcome.feasible:
            return float("inf")
        return outcome.time

    def search(self, iterations: int = 120,
               temperature: float = 0.05) -> MCMCResult:
        m = self.cluster.num_devices
        n = self.grouping.num_groups
        # start from the better of even / proportional AllReduce DP,
        # scored as one evaluate_many population
        candidates = [np.full(n, m + 1, dtype=np.int64),
                      np.full(n, m + 3, dtype=np.int64)]
        outcomes = self.builder.evaluate_many(
            [actions_to_strategy(self.graph, self.cluster, self.grouping, c)
             for c in candidates])
        scored = sorted(
            (o.time if o.feasible else float("inf"), i)
            for i, o in enumerate(outcomes))
        current = candidates[scored[0][1]]
        current_time = scored[0][0]
        best = current.copy()
        best_time = current_time
        accepted = 0
        for _ in range(iterations):
            proposal = current.copy()
            flips = 1 + int(self.rng.integers(0, max(1, n // 20)))
            for _ in range(flips):
                g = int(self.rng.integers(0, n))
                proposal[g] = self._allowed[
                    int(self.rng.integers(0, len(self._allowed)))
                ]
            time = self._evaluate(proposal)
            delta = time - current_time
            scale = max(current_time, 1e-9) * temperature
            if delta <= 0 or (
                np.isfinite(time)
                and self.rng.random() < np.exp(-delta / scale)
            ):
                current, current_time = proposal, time
                accepted += 1
                if time < best_time:
                    best, best_time = proposal.copy(), time
        strategy = actions_to_strategy(self.graph, self.cluster,
                                       self.grouping, best)
        return MCMCResult(strategy=strategy, time=best_time,
                          evaluations=iterations + 1, accepted=accepted)


def flexflow_strategy(graph: ComputationGraph, cluster: Cluster,
                      profile: Optional[Profile] = None, *,
                      iterations: int = 120, seed: int = 0) -> Strategy:
    """Convenience wrapper: run the MCMC search, return its best strategy."""
    search = FlexFlowSearch(graph, cluster, profile, seed=seed)
    return search.search(iterations).strategy
