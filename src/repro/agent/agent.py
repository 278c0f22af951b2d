"""The Agent of the Strategy Maker (paper Sec. 3.3 / Fig. 6).

Owns the GNN policy and per-graph contexts; exposes the train / best-
strategy surface the HeteroG facade and the experiment harness use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..cluster.topology import Cluster
from ..errors import StrategyError
from ..graph.dag import ComputationGraph
from ..graph.grouping import group_operations
from ..parallel.strategy import Strategy
from ..plan import PlanBuilder
from ..profiling.profiler import Profile, Profiler
from .features import FeatureEncoder
from .policy import PolicyNetwork, num_actions
from .reinforce import GraphContext, ReinforceTrainer


@dataclass
class AgentConfig:
    """Hyper-parameters of the GNN policy and its training.

    Paper defaults: 12 GAT layers x 8 heads, 8 Transformer-XL layers,
    N = 2000 groups.  The defaults here are CPU-feasible reductions of the
    same architecture; pass ``paper_scale()`` for the faithful sizes.
    ``learning_rate``, the entropy schedule, ``use_seeds`` and ``seed``
    configure the
    :class:`~repro.agent.reinforce.ReinforceTrainer` directly.
    """

    max_groups: int = 60
    gat_hidden: int = 48
    gat_layers: int = 3
    gat_heads: int = 4
    strategy_dim: int = 64
    strategy_heads: int = 4
    strategy_layers: int = 2
    learning_rate: float = 3e-3
    entropy_weight: float = 5e-3
    entropy_decay: float = 0.995
    use_seeds: bool = True
    seed: int = 0

    @staticmethod
    def paper_scale() -> "AgentConfig":
        return AgentConfig(max_groups=2000, gat_hidden=256, gat_layers=12,
                           gat_heads=8, strategy_dim=256, strategy_heads=8,
                           strategy_layers=8)


class HeteroGAgent:
    """GNN policy + per-graph contexts + the REINFORCE trainer."""

    def __init__(self, cluster: Cluster, config: Optional[AgentConfig] = None):
        self.cluster = cluster
        self.config = config or AgentConfig()
        self._contexts: List[GraphContext] = []
        self._profiles: Dict[str, Profile] = {}
        self._policy: Optional[PolicyNetwork] = None
        self._trainer: Optional[ReinforceTrainer] = None

    # ------------------------------------------------------------------ #
    def add_graph(self, graph: ComputationGraph,
                  profile: Optional[Profile] = None,
                  name: Optional[str] = None, *,
                  builder: Optional[PlanBuilder] = None) -> GraphContext:
        """Register a DNN graph; profiles it if no profile is supplied.

        ``builder`` is the :class:`PlanBuilder` the search evaluates
        candidates with, so a caller that owns one for this graph shares
        its plan and outcome caches with the search; it then supplies
        the profile too.  Without it the agent makes its own, with
        HeteroG's order scheduling; a FIFO search passes a FIFO builder."""
        name = name or graph.name
        if any(ctx.name == name for ctx in self._contexts):
            raise StrategyError(f"graph {name!r} already registered")
        if builder is not None:
            profile = builder.profile
        elif profile is None:
            profile = Profiler(seed=self.config.seed).profile(graph,
                                                              self.cluster)
        self._profiles[name] = profile
        encoder = FeatureEncoder(self.cluster, profile)
        features = encoder.encode(graph)
        neighbourhood = encoder.neighbourhood(graph)
        grouping = group_operations(
            graph, encoder.average_exec_times(graph), self.config.max_groups
        )
        index = {n: i for i, n in enumerate(graph.op_names)}
        assignment = grouping.assignment_matrix(index)
        if builder is None:
            builder = PlanBuilder(graph, self.cluster, profile)
        ctx = GraphContext(
            name=name, graph=graph, grouping=grouping, features=features,
            neighbourhood=neighbourhood, assignment=assignment,
            builder=builder,
        )
        self._contexts.append(ctx)
        self._trainer = None  # contexts changed; rebuild on next train
        if self._policy is None:
            self._policy = self._build_policy(features.shape[1])
        return ctx

    def _build_policy(self, feature_dim: int) -> PolicyNetwork:
        cfg = self.config
        return PolicyNetwork(
            feature_dim, num_actions(self.cluster),
            gat_hidden=cfg.gat_hidden, gat_layers=cfg.gat_layers,
            gat_heads=cfg.gat_heads, strategy_dim=cfg.strategy_dim,
            strategy_heads=cfg.strategy_heads,
            strategy_layers=cfg.strategy_layers, seed=cfg.seed,
        )

    # ------------------------------------------------------------------ #
    @property
    def policy(self) -> PolicyNetwork:
        if self._policy is None:
            raise StrategyError("no graphs registered yet")
        return self._policy

    @property
    def trainer(self) -> ReinforceTrainer:
        if self._trainer is None:
            if not self._contexts:
                raise StrategyError("no graphs registered yet")
            self._trainer = ReinforceTrainer(self.policy, self._contexts,
                                             self.config)
        return self._trainer

    def train(self, episodes: int) -> None:
        self.trainer.train(episodes)

    # ------------------------------------------------------------------ #
    def best_strategy(self, name: str) -> Strategy:
        strategy = self.trainer.best_strategy(name)
        if strategy is None:
            raise StrategyError(
                f"no feasible strategy found yet for {name!r}; train longer"
            )
        return strategy

    def best_time(self, name: str) -> float:
        return self.trainer.best_time(name)

    def context(self, name: str) -> GraphContext:
        for ctx in self._contexts:
            if ctx.name == name:
                return ctx
        raise StrategyError(f"unknown graph {name!r}")

    def profile(self, name: str) -> Profile:
        return self._profiles[name]

    # ------------------------------------------------------------------ #
    def policy_state(self) -> Dict[str, np.ndarray]:
        return self.policy.state_dict()

    def load_policy_state(self, state: Dict[str, np.ndarray]) -> None:
        self.policy.load_state_dict(state)
