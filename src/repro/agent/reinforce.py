"""REINFORCE training of the GNN policy (paper Sec. 4.1.3).

Objective: J(theta) = (1/|G|) sum_G E_{D ~ pi(G)}[R_{G,D}] + lambda H(pi);
update:   theta <- theta + alpha (1/|G|) sum_g grad log pi(a_g) (r_g - R_g)
                    + lambda grad H(pi)
with R_g a moving average of rewards (the baseline), and H an entropy
regularizer for exploration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..graph.dag import ComputationGraph
from ..graph.grouping import Grouping
from ..nn import functional as F
from ..nn.functional import Neighbourhood
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from ..plan import EvalOutcome, PlanBuilder
from .policy import PolicyNetwork, actions_to_strategy
from .reward import MovingAverageBaseline, compute_reward
from .seeds import seed_action_vectors

if TYPE_CHECKING:
    from .agent import AgentConfig

# rewards are negative (-sqrt(T), x10 on OOM): symmetric-log buckets
_REWARD_BUCKETS = tuple(-(4.0 ** i) for i in range(8, -1, -1)) + (
    0.0, 1.0, 4.0)

#: global gradient-norm clip of the policy optimizer
CLIP_NORM = 5.0


@dataclass
class GraphContext:
    """Everything the trainer needs for one DNN graph."""

    name: str
    graph: ComputationGraph
    grouping: Grouping
    features: np.ndarray         # (O, F)
    neighbourhood: Neighbourhood  # GAT attention entries, built once
    assignment: np.ndarray       # (N, O)
    builder: PlanBuilder
    baseline: MovingAverageBaseline = field(
        default_factory=lambda: MovingAverageBaseline(0.9)
    )
    best_time: float = float("inf")
    best_actions: Optional[np.ndarray] = None
    # best raw Strategy seed (per-op expressiveness the group action
    # space cannot emit, e.g. the per-op memory ladder)
    best_raw_strategy = None
    best_raw_time: float = float("inf")
    history: List[float] = field(default_factory=list)  # reward per episode
    # feasible simulated time per episode (inf when OOM/infeasible)
    time_history: List[float] = field(default_factory=list)

    def record(self, actions: np.ndarray, outcome: EvalOutcome) -> None:
        if outcome.feasible and outcome.time < self.best_time:
            self.best_time = outcome.time
            self.best_actions = actions.copy()


class ReinforceTrainer:
    """Trains one policy over a set of graph contexts."""

    def __init__(self, policy: PolicyNetwork, contexts: Sequence[GraphContext],
                 config: AgentConfig):
        if not contexts:
            raise ValueError("trainer needs at least one graph context")
        self.policy = policy
        self.contexts = list(contexts)
        self.config = config
        self.optimizer = Adam(policy.parameters(), lr=config.learning_rate,
                              clip_norm=CLIP_NORM)
        self.rng = np.random.default_rng(config.seed)
        self.episode = 0
        self._entropy_weight = config.entropy_weight
        self._seed_queues: Dict[str, List[np.ndarray]] = {}
        self._repair_attempts: Dict[str, int] = {}
        self._raw_seeds_pending: Dict[str, bool] = {}
        if config.use_seeds:
            for ctx in self.contexts:
                self._seed_queues[ctx.name] = seed_action_vectors(
                    ctx.graph, ctx.builder.cluster, ctx.grouping
                )
                self._raw_seeds_pending[ctx.name] = True

    # ------------------------------------------------------------------ #
    def train_episode(self) -> Dict[str, float]:
        """One policy-gradient step over all graphs; returns rewards."""
        with telemetry.span("agent.episode", episode=self.episode):
            return self._train_episode()

    def _train_episode(self) -> Dict[str, float]:
        tel = telemetry.active()
        losses: List[Tensor] = []
        rewards: Dict[str, float] = {}
        # Phase 1: sample one candidate per graph (policy RNG is touched
        # only here, so the evaluations below cannot perturb it).
        rollouts = []
        for ctx in self.contexts:
            if self._raw_seeds_pending.pop(ctx.name, False):
                self._evaluate_raw_seeds(ctx)
            forced = None
            queue = self._seed_queues.get(ctx.name)
            if queue:
                forced = queue.pop(0)
            sample = self.policy.sample(
                ctx.features, ctx.neighbourhood, ctx.assignment, self.rng,
                forced_actions=forced,
            )
            strategy = actions_to_strategy(
                ctx.graph, ctx.builder.cluster, ctx.grouping, sample.actions
            )
            rollouts.append((ctx, sample, strategy))
        # Phase 2: evaluate each rollout in context order.  No
        # best-so-far is threaded in: a pruned rollout would train on the
        # infeasible penalty instead of its reward.
        outcomes = [ctx.builder.evaluate(strategy)
                    for ctx, _, strategy in rollouts]
        # Phase 3: rewards, baselines and the policy-gradient loss.
        for (ctx, sample, strategy), outcome in zip(rollouts, outcomes):
            self._maybe_repair_ladder(ctx, sample.actions, outcome)
            reward = compute_reward(outcome)
            ctx.record(sample.actions, outcome)
            ctx.history.append(reward)
            ctx.time_history.append(
                outcome.time if outcome.feasible else float("inf")
            )
            baseline = ctx.baseline.update(reward)
            advantage = reward - baseline
            # maximize logprob*advantage + lambda*entropy
            loss = F.add(
                F.scale(sample.log_prob, -advantage),
                F.scale(sample.entropy, -self._entropy_weight),
            )
            losses.append(loss)
            rewards[ctx.name] = reward
            if tel is not None:
                labels = {"graph": ctx.name}
                reg = tel.registry
                reg.histogram("agent_episode_reward", labels=labels,
                              help="REINFORCE reward per episode",
                              buckets=_REWARD_BUCKETS).observe(reward)
                reg.histogram("agent_episode_advantage", labels=labels,
                              help="reward minus moving-average baseline",
                              buckets=_REWARD_BUCKETS).observe(advantage)
                reg.gauge("agent_policy_entropy", labels=labels,
                          help="entropy of the sampled strategy",
                          ).set(float(sample.entropy.data))
                best = min(ctx.best_time, ctx.best_raw_time)
                if best != float("inf"):
                    reg.gauge("agent_best_time_seconds", labels=labels,
                              help="best feasible simulated time so far",
                              ).set(best)

        total = losses[0]
        for loss in losses[1:]:
            total = F.add(total, loss)
        total = F.scale(total, 1.0 / len(losses))
        self.optimizer.zero_grad()
        total.backward()
        self.optimizer.step()
        self.episode += 1
        self._entropy_weight *= self.config.entropy_decay
        telemetry.emit_count("agent_episodes_total",
                             help="REINFORCE episodes trained")
        return rewards

    def _evaluate_raw_seeds(self, ctx: GraphContext) -> None:
        """Evaluate the per-op memory-ladder strategy with a bounded
        rebalance loop (feasibility fallback for the large-model rows)."""
        from .seeds import memory_ladder_strategy, rebalance_weights
        cluster = ctx.builder.cluster
        weights = None
        for _ in range(4):
            strategy = memory_ladder_strategy(ctx.graph, cluster, weights)
            outcome = ctx.builder.evaluate(strategy)
            if outcome.feasible:
                if outcome.time < ctx.best_raw_time:
                    ctx.best_raw_time = outcome.time
                    ctx.best_raw_strategy = strategy
                return
            if not outcome.peak_memory:
                return
            weights = rebalance_weights(cluster, outcome.peak_memory)

    def _maybe_repair_ladder(self, ctx: GraphContext, actions: np.ndarray,
                             outcome: EvalOutcome) -> None:
        """When a mostly-MP candidate OOMs and nothing feasible has been
        found yet, enqueue a memory-rebalanced ladder built from the
        *measured* per-device peaks (feasibility repair for the
        large-model rows, where the cluster runs at ~90% occupancy)."""
        if not self.config.use_seeds:
            return
        if ctx.best_actions is not None or not outcome.oom:
            return
        if not outcome.peak_memory:
            return
        m = ctx.builder.cluster.num_devices
        if (actions < m).mean() < 0.5:
            return  # only repair MP-ladder-like candidates
        attempts = self._repair_attempts.get(ctx.name, 0)
        if attempts >= 4:
            return
        self._repair_attempts[ctx.name] = attempts + 1
        from .seeds import rebalanced_ladder
        repaired = rebalanced_ladder(
            ctx.graph, ctx.builder.cluster, ctx.grouping,
            outcome.peak_memory,
        )
        self._seed_queues.setdefault(ctx.name, []).insert(0, repaired)

    def train(self, episodes: int) -> None:
        for _ in range(episodes):
            self.train_episode()

    # ------------------------------------------------------------------ #
    def best_strategy(self, name: str):
        ctx = self._ctx(name)
        if ctx.best_raw_strategy is not None and (
            ctx.best_raw_time < ctx.best_time
        ):
            return ctx.best_raw_strategy
        if ctx.best_actions is None:
            return None
        return actions_to_strategy(ctx.graph, ctx.builder.cluster,
                                   ctx.grouping, ctx.best_actions)

    def best_time(self, name: str) -> float:
        ctx = self._ctx(name)
        return min(ctx.best_time, ctx.best_raw_time)

    def episodes_to_reach(self, name: str, target_time: float) -> Optional[int]:
        """First episode whose best-so-far simulated time <= target
        (used by the Table 6 convergence measurements)."""
        ctx = self._ctx(name)
        if ctx.best_raw_time <= target_time and ctx.time_history:
            return 1  # the raw seeds are evaluated during the 1st episode
        best = float("inf")
        for i, time in enumerate(ctx.time_history):
            best = min(best, time)
            if best <= target_time:
                return i + 1
        return None

    def _ctx(self, name: str) -> GraphContext:
        for ctx in self.contexts:
            if ctx.name == name:
                return ctx
        raise KeyError(f"unknown graph context {name!r}")
