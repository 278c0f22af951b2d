"""Theorem 1 / Theorem 2 machinery (paper appendix).

- :func:`theorem1_bound` — the (M + M^2) * T* upper bound on the
  list-scheduled makespan, with the two T* lower bounds from the proof
  (total work divided by resource count; critical path).
- :func:`worst_case_instance` — the crafted DAG of Theorem 2 on which the
  list schedule approaches the bound: H-1 chains of k*H ops round-robined
  over H devices (duration p on the first device of each batch, e ~ 0
  elsewhere) plus k independent p-ops pinned to the last device, with
  adversarial tie-breaking among equal ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..parallel.distgraph import DistGraph, DistOp, DistOpKind
from ..simulation.costs import MappingCostModel
from ..simulation.kernel import lower


def total_work(graph: DistGraph, cost) -> float:
    """Sum of all op durations (Theorem 1's sum p_i), under a
    deterministic cost provider."""
    return sum(lower(graph).durations_for(cost))


def critical_path(graph: DistGraph, cost) -> float:
    """Longest-path duration through the DAG, under a deterministic
    cost provider: each op's duration plus its exclusive tail."""
    kernel = lower(graph)
    return max((d + tail for d, tail in zip(kernel.durations_for(cost),
                                             kernel.tails_for(cost))),
               default=0.0)


def optimal_lower_bound(graph: DistGraph, cost, num_resources: int) -> float:
    """max(total work / resources, critical path) <= T*."""
    if num_resources <= 0:
        raise ValueError("need at least one resource")
    return max(total_work(graph, cost) / num_resources,
               critical_path(graph, cost))


def theorem1_bound(graph: DistGraph, cost, num_gpus: int) -> float:
    """(M + M^2) * (T* lower bound) — any list schedule must beat this...
    more precisely, Theorem 1 guarantees TLS <= (M + M^2) * T*, and since
    T* >= our lower bound is not usable directly, we return the *provable*
    cap TLS <= sum_i p_i (first inequality of the proof)."""
    return total_work(graph, cost)


@dataclass
class WorstCaseInstance:
    """The crafted Theorem 2 instance plus its closed-form times."""
    graph: DistGraph
    cost: MappingCostModel
    #: adversarial per-op priorities, by op index
    order: np.ndarray
    num_devices: int
    t_ls_formula: float
    t_opt_formula: float

    @property
    def ratio_formula(self) -> float:
        return self.t_ls_formula / self.t_opt_formula


def worst_case_instance(h: int = 4, k: int = 20, p: float = 1.0,
                        e: float = 1e-4) -> WorstCaseInstance:
    """Build the Theorem 2 instance for H devices.

    Chains ``1..H-1`` each have ``k * H`` ops; op ``n*H + h`` of a chain is
    placed on device ``h``.  The first op of each batch (on device 1 for
    chain structure as in appendix Fig. 3) costs ``p``; the rest cost
    ``e``.  ``k`` independent ``p``-ops sit on device ``H``.  Adversarial
    priorities make the list scheduler serialize the p-ops of a batch
    across chains before touching the independent ops.

    Formulas from the appendix:
      T_LS  = ((k-1)H + 1) p + ((k-1)(2H-3) + H-1) e
      T*    = k (p + (H-1) e) + (H-2) e
    """
    if h < 3:
        raise ValueError("theorem 2 instance needs H >= 3")
    if k < 2:
        raise ValueError("need k >= 2 batches")
    graph = DistGraph(f"worst_case_H{h}_k{k}")
    durations: Dict[str, float] = {}

    def add(name: str, device: int, dur: float, deps=()) -> str:
        graph.add(
            DistOp(name=name, kind=DistOpKind.COMPUTE, device=f"dev{device}",
                   source_op=None),
            deps,
        )
        durations[name] = dur
        return name

    # H-1 chains, each k*H ops; position j (0-based) runs on device j mod H.
    # The op starting each batch (position j % H == 0) costs p, others e.
    chain_ops: Dict[Tuple[int, int], int] = {}  # -> op index
    for c in range(h - 1):
        prev = None
        for j in range(k * h):
            dev = j % h
            dur = p if dev == 0 else e
            name = f"chain{c}_op{j}"
            chain_ops[(c, j)] = len(graph)
            add(name, dev, dur, deps=[prev] if prev else ())
            prev = name

    for i in range(k):
        add(f"indep{i}", h - 1, p)

    # Adversarial priorities consistent with ranks: within a batch of equal
    # ranks, device 0 executes chains in reverse order (H-2 .. 0) while the
    # later devices execute them in forward order (0 .. H-2), maximally
    # staggering the chains.  Independent ops are last (lowest rank).
    order = np.empty(len(graph), dtype=np.int32)
    counter = 0
    for batch in range(k):
        # device 0 ops of this batch, chains in reverse
        for c in reversed(range(h - 1)):
            order[chain_ops[(c, batch * h)]] = counter
            counter += 1
        # remaining ops of the batch in forward chain order
        for j in range(batch * h + 1, (batch + 1) * h):
            for c in range(h - 1):
                order[chain_ops[(c, j)]] = counter
                counter += 1
    # the independent ops, added last, run last
    order[counter:] = np.arange(counter, len(graph))

    t_ls = ((k - 1) * h + 1) * p + ((k - 1) * (2 * h - 3) + h - 1) * e
    t_opt = k * (p + (h - 1) * e) + (h - 2) * e
    return WorstCaseInstance(
        graph=graph,
        cost=MappingCostModel(durations),
        order=order,
        num_devices=h,
        t_ls_formula=t_ls,
        t_opt_formula=t_opt,
    )
