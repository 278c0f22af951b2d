"""The GNN policy: GAT encoder + Transformer-XL strategy network.

Output is the paper's N x (M + 4) action space (Sec. 4.1.2): per op
group, the first M actions place the group on GPU m with model
parallelism; the last four are the data-parallel combinations
{even, proportional} x {PS, AllReduce}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..cluster.topology import Cluster
from ..errors import StrategyError
from ..graph.dag import ComputationGraph
from ..graph.grouping import Grouping
from ..nn import functional as F
from ..nn.functional import Neighbourhood
from ..nn.layers import Module
from ..nn.tensor import Tensor
from ..nn.transformer_xl import StrategyNetwork
from ..parallel.strategy import (
    CommMethod,
    OpStrategy,
    ReplicaAllocation,
    Strategy,
    make_dp_strategy,
    make_mp_strategy,
)
from .embedding import GATEncoder

# DP action offsets after the M MP actions
DP_ACTIONS = (
    (ReplicaAllocation.EVEN, CommMethod.PS),          # M + 0 : EV-PS
    (ReplicaAllocation.EVEN, CommMethod.ALLREDUCE),   # M + 1 : EV-AR
    (ReplicaAllocation.PROPORTIONAL, CommMethod.PS),  # M + 2 : CP-PS
    (ReplicaAllocation.PROPORTIONAL, CommMethod.ALLREDUCE),  # M + 3 : CP-AR
)


def num_actions(cluster: Cluster) -> int:
    """Size of the per-group action space: M devices + 4 DP schemes."""
    return cluster.num_devices + len(DP_ACTIONS)


def action_to_op_strategy(cluster: Cluster, action: int) -> OpStrategy:
    """Decode one action index into an :class:`OpStrategy`."""
    m = cluster.num_devices
    if 0 <= action < m:
        return make_mp_strategy(cluster.device_ids[action])
    if m <= action < m + len(DP_ACTIONS):
        allocation, comm = DP_ACTIONS[action - m]
        return make_dp_strategy(cluster, allocation, comm)
    raise StrategyError(f"action {action} out of range for M={m}")


def actions_to_strategy(graph: ComputationGraph, cluster: Cluster,
                        grouping: Grouping,
                        actions: Sequence[int]) -> Strategy:
    """Decode a per-group action vector into a full per-op Strategy."""
    if len(actions) != grouping.num_groups:
        raise StrategyError(
            f"{len(actions)} actions for {grouping.num_groups} groups"
        )
    decoded = [action_to_op_strategy(cluster, a) for a in actions]
    per_op: Dict[str, OpStrategy] = {}
    for name, g in grouping.group_of.items():
        per_op[name] = decoded[g]
    return Strategy(graph, cluster, per_op)


def uniform_action_vector(cluster: Cluster, grouping: Grouping,
                          allocation: ReplicaAllocation,
                          comm: CommMethod) -> List[int]:
    """The action vector applying one DP scheme to every group."""
    m = cluster.num_devices
    offset = DP_ACTIONS.index((allocation, comm))
    return [m + offset] * grouping.num_groups


@dataclass
class PolicySample:
    """One sampled decision with everything REINFORCE needs."""

    actions: np.ndarray          # (N,) int action per group
    log_prob: Tensor             # scalar: sum over groups of log pi(a_n)
    entropy: Tensor              # scalar: mean per-group entropy H(pi)
    probs: np.ndarray            # (N, A) detached action distribution


class PolicyNetwork(Module):
    """End-to-end: node features -> per-group action distribution."""

    def __init__(self, feature_dim: int, actions: int, *,
                 gat_hidden: int = 48, gat_layers: int = 3, gat_heads: int = 4,
                 strategy_dim: int = 64, strategy_heads: int = 4,
                 strategy_layers: int = 2, seed: int = 0):
        self.encoder = GATEncoder(feature_dim, gat_hidden, gat_layers,
                                  gat_heads, seed=seed)
        self.strategy_net = StrategyNetwork(
            gat_hidden, actions, dim=strategy_dim, heads=strategy_heads,
            layers=strategy_layers, seed=seed + 1,
        )
        self.actions = actions

    def logits(self, features: np.ndarray, neighbourhood: Neighbourhood,
               assignment: np.ndarray) -> Tensor:
        groups = self.encoder(features, neighbourhood, assignment)
        return self.strategy_net(groups)

    def sample(self, features: np.ndarray, neighbourhood: Neighbourhood,
               assignment: np.ndarray, rng: np.random.Generator
               ) -> PolicySample:
        logits = self.logits(features, neighbourhood, assignment)
        logp = F.log_softmax(logits, axis=-1)          # (N, A)
        probs = np.exp(logp.data)
        n = probs.shape[0]
        cumulative = probs.cumsum(axis=-1)
        draws = rng.random((n, 1))
        actions = np.minimum((draws > cumulative).sum(axis=-1),
                             self.actions - 1)
        one_hot = np.eye(self.actions)[actions]        # (N, A)
        log_prob = F.sum(F.mul(logp, Tensor(one_hot)))
        entropy = F.scale(
            F.sum(F.mul(F.exp(logp), F.scale(logp, -1.0))), 1.0 / n
        )
        return PolicySample(actions=actions, log_prob=log_prob,
                            entropy=entropy, probs=probs)
