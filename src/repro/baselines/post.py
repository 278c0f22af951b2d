"""Post-style baseline (Gao et al., 2018).

Post "integrates an online RL algorithm and a batch learning algorithm"
(cross-entropy minimization + proximal policy optimization) to learn
*device placement* of DNN operations; per the paper's Sec. 6.8 critique,
it "only considers operation-to-device placement but not operation-level
data parallelism".

Reproduction at that scope: a cross-entropy-method search over per-group
device assignments (MP only, no replication, no comm-method choice,
default FIFO order), scored on the simulator.
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
from ..plan import BestSoFar, PlanBuilder
from ..profiling.profiler import Profile, Profiler


def sample_placements(rng: np.random.Generator, probs: np.ndarray,
                      samples: int) -> np.ndarray:
    """``samples`` rows of one device draw per group, row ``s`` column
    ``g`` from the distribution ``probs[g]``.

    The same draws, and the same generator state afterwards, as
    ``rng.choice(m, p=probs[g])`` called for each sample and, within it,
    each group: ``choice`` also draws one uniform per call and inverts
    the normalized cumulative sum with ``searchsorted``."""
    n = probs.shape[0]
    u = rng.random((samples, n))
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    draws = np.empty((samples, n), dtype=np.int64)
    for g in range(n):
        draws[:, g] = cdf[g].searchsorted(u[:, g], side="right")
    return draws


@dataclass
class CEMResult:
    """Outcome of one cross-entropy placement search."""
    strategy: Strategy
    time: float
    evaluations: int


class PostSearch:
    """Cross-entropy placement search (device-only action space)."""

    def __init__(self, graph: ComputationGraph, cluster: Cluster,
                 profile: Optional[Profile] = None, *, max_groups: int = 60,
                 seed: int = 0):
        self.graph = graph
        self.cluster = cluster
        self.profile = profile or Profiler(seed=seed).profile(graph, cluster)
        avg = {op.name: op.flops for op in graph}
        self.grouping: Grouping = group_operations(graph, avg, max_groups)
        self.builder = PlanBuilder(
            graph, cluster, self.profile,
            use_order_scheduling=False,
        )
        self.rng = np.random.default_rng(seed)

    def _evaluate(self, placements: np.ndarray) -> float:
        strategy = actions_to_strategy(self.graph, self.cluster,
                                       self.grouping, placements)
        outcome = self.builder.evaluate(strategy)
        return outcome.time if outcome.feasible else float("inf")

    def _evaluate_round(self, batch: List[np.ndarray],
                        best: BestSoFar) -> List[float]:
        strategies = [
            actions_to_strategy(self.graph, self.cluster, self.grouping,
                                draws)
            for draws in batch
        ]
        outcomes = self.builder.evaluate_many(strategies, best=best)
        # pruned outcomes score inf, same as infeasible ones: they are
        # provably outside the elite cut, so their exact time is moot
        return [o.time if o.feasible else float("inf") for o in outcomes]

    def search(self, rounds: int = 8, samples_per_round: int = 12,
               elite_fraction: float = 0.25,
               smoothing: float = 0.7) -> CEMResult:
        m = self.cluster.num_devices
        n = self.grouping.num_groups
        probs = np.full((n, m), 1.0 / m)
        best: Optional[np.ndarray] = None
        best_time = float("inf")
        evaluations = 0
        num_elite = max(1, int(samples_per_round * elite_fraction))
        # branch-and-bound pruning is search-transparent for CEM: the
        # global best-so-far spans rounds; each round layers a
        # keep=num_elite tracker on top so only candidates that can
        # neither win overall nor make the round's elite set are pruned.
        # The elite set, the refit distribution and the final best are
        # bit-identical to the unpruned search.
        global_best = BestSoFar()
        for _ in range(rounds):
            batch = list(sample_placements(self.rng, probs,
                                           samples_per_round))
            round_best = BestSoFar(keep=num_elite, floor=global_best)
            scores = self._evaluate_round(batch, best=round_best)
            evaluations += len(batch)
            for draws, time in zip(batch, scores):
                if time < best_time:
                    best, best_time = draws.copy(), time
            order = np.argsort(scores)[:num_elite]
            elite = np.stack([batch[i] for i in order])
            counts = np.zeros((n, m))
            for row in elite:
                counts[np.arange(n), row] += 1.0
            refit = counts / counts.sum(axis=1, keepdims=True)
            probs = smoothing * probs + (1 - smoothing) * refit
        if best is None:  # pragma: no cover - defensive
            best = np.zeros(n, dtype=np.int64)
            best_time = self._evaluate(best)
        strategy = actions_to_strategy(self.graph, self.cluster,
                                       self.grouping, best)
        return CEMResult(strategy=strategy, time=best_time,
                         evaluations=evaluations)


def post_strategy(graph: ComputationGraph, cluster: Cluster,
                  profile: Optional[Profile] = None, *, seed: int = 0,
                  rounds: int = 8) -> Strategy:
    """Convenience wrapper: run the CEM placement search, return its best strategy."""
    return PostSearch(graph, cluster, profile, seed=seed).search(rounds).strategy
