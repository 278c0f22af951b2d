"""REINFORCE training of the GNN policy (paper Sec. 4.1.3).

Objective: J(theta) = (1/|G|) sum_G E_{D ~ pi(G)}[R_{G,D}] + lambda H(pi);
update:   theta <- theta + alpha (1/|G|) sum_g grad log pi(a_g) (r_g - R_g)
                    + lambda grad H(pi)
with R_g a moving average of rewards (the baseline), and H an entropy
regularizer for exploration.

Each episode, every graph context takes one of two steps.  While it
has exploration seeds (``agent/seeds.py``) left, ``_sweep`` evaluates
the next one: a seed takes one episode of the budget but no policy pass
and no gradient, and races the incumbent under the builder's admissible
pruning.  Afterwards ``_sample`` draws a candidate from the policy,
evaluates it in full and returns its loss term; the first sample's
baseline starts from the sweep's incumbent.  Both fold their outcome in
through ``_record``, so a ladder repair can follow a sampled OOM too.
"""

from __future__ import annotations

import functools
import math
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
from ..parallel.strategy import Strategy
from ..plan import EvalOutcome, PlanBuilder
from .policy import PolicyNetwork, actions_to_strategy
from .reward import MovingAverageBaseline, compute_reward
from .seeds import (
    memory_ladder_strategy,
    rebalance_weights,
    rebalanced_ladder,
    seed_action_vectors,
)

if TYPE_CHECKING:
    from .agent import AgentConfig

# rewards are negative (-sqrt(T), x10 on OOM): symmetric-log buckets
_REWARD_BUCKETS = tuple(-(4.0 ** i) for i in range(8, -1, -1)) + (
    0.0, 1.0, 4.0)

#: global gradient-norm clip of the policy optimizer
CLIP_NORM = 5.0
#: the policy optimizer's learning rate
LEARNING_RATE = 3e-3
#: the entropy bonus's weight in the first episode, and its per-episode
#: decay factor
ENTROPY_WEIGHT = 5e-3
ENTROPY_DECAY = 0.995


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
    # the best group-action candidate so far: the trainer's to update
    best_time: float = field(default=float("inf"), init=False)
    best_actions: Optional[np.ndarray] = field(default=None, init=False)
    # best raw Strategy seed (per-op expressiveness the group action
    # space cannot emit, e.g. the per-op memory ladder)
    best_raw_strategy: Optional[Strategy] = None
    best_raw_time: float = float("inf")
    # simulated time per episode (inf unless feasible: OOM, pruned, ...)
    time_history: List[float] = field(default_factory=list)
    # 1-based episode the best candidate came from (0: the raw per-op
    # ladder; None before any feasible candidate)
    best_episode: Optional[int] = None

    @property
    def incumbent(self) -> float:
        """Best feasible simulated time found so far, raw seeds
        included (inf before any)."""
        return min(self.best_time, self.best_raw_time)

    @property
    def seed_limit(self) -> Optional[float]:
        """The best-so-far a seed races: the incumbent once a
        group-action candidate is feasible, else None (evaluate to
        completion, so an OOM outcome is exact for the ladder repairs)."""
        return self.incumbent if self.best_actions is not None else None

    def record(self, actions: np.ndarray, outcome: EvalOutcome) -> None:
        self.time_history.append(
            outcome.time if outcome.feasible else float("inf"))
        if outcome.feasible and outcome.time < self.best_time:
            self.best_time = outcome.time
            self.best_actions = actions.copy()
            if not self.best_raw_time < outcome.time:
                self.best_episode = len(self.time_history)


class ReinforceTrainer:
    """Trains one policy over a set of graph contexts."""

    def __init__(self, policy: PolicyNetwork, contexts: Sequence[GraphContext],
                 config: AgentConfig):
        if not contexts:
            raise ValueError("trainer needs at least one graph context")
        self.policy = policy
        self.contexts = list(contexts)
        self.config = config
        self.optimizer = Adam(policy.parameters(), lr=LEARNING_RATE,
                              clip_norm=CLIP_NORM)
        self.rng = np.random.default_rng(config.seed)
        self.episode = 0
        self._entropy_weight = ENTROPY_WEIGHT
        # per context, the seeds left to sweep; built on its first sweep
        self._seed_queues: Dict[str, List[np.ndarray]] = {}
        self._repair_attempts: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def train_episode(self) -> None:
        """One episode: each context sweeps its next seed or samples a
        candidate, and the samples take one policy-gradient step."""
        with telemetry.span("agent.episode", episode=self.episode):
            # the policy RNG is touched only by samples, in context
            # order, so a sweeping context cannot perturb other samples
            losses = [self._sample(ctx) for ctx in self.contexts
                      if not self._sweep(ctx)]
            if losses:
                total = F.scale(functools.reduce(F.add, losses),
                                1.0 / len(losses))
                self.optimizer.zero_grad()
                total.backward()
                self.optimizer.step()
            self.episode += 1
            self._entropy_weight *= ENTROPY_DECAY
            telemetry.emit_count("agent_episodes_total",
                                 help="REINFORCE episodes trained")

    def _sweep(self, ctx: GraphContext) -> bool:
        """Evaluate ``ctx``'s next seed; False when seeds are off or none
        is left.  The first call builds the queue, evaluates its head
        (uniform CP-AR) and then the raw memory ladder, which races that
        seed when it is feasible.  A seed is pruned only when it provably
        loses to the incumbent, so the best found matches an unpruned
        sweep; until a group-action seed is feasible, seeds and the
        ladder run to completion, because the ladder repairs read an
        exact OOM outcome."""
        if not self.config.use_seeds:
            return False
        queue = self._seed_queues.get(ctx.name)
        first = queue is None
        if first:
            queue = self._seed_queues[ctx.name] = seed_action_vectors(
                ctx.graph, ctx.builder.cluster, ctx.grouping)
        if not queue:
            return False
        actions = queue.pop(0)
        strategy = actions_to_strategy(
            ctx.graph, ctx.builder.cluster, ctx.grouping, actions)
        self._record(ctx, actions, ctx.builder.evaluate(
            strategy, prune_above=ctx.seed_limit))
        if first:
            self._evaluate_raw_seeds(ctx)
        return True

    def _sample(self, ctx: GraphContext) -> Tensor:
        """Sample one candidate from the policy, evaluate it, and return
        its loss term.  A sample gets no best-so-far: a pruned sample
        would train on the infeasible penalty instead of its reward."""
        # the first sample's advantage is measured against the
        # incumbent, the best the seed sweep found
        if ctx.incumbent != float("inf"):
            ctx.baseline.start(-math.sqrt(ctx.incumbent))
        sample = self.policy.sample(
            ctx.features, ctx.neighbourhood, ctx.assignment, self.rng)
        strategy = actions_to_strategy(
            ctx.graph, ctx.builder.cluster, ctx.grouping, sample.actions)
        reward = self._record(ctx, sample.actions,
                              ctx.builder.evaluate(strategy))
        advantage = reward - ctx.baseline.update(reward)
        tel = telemetry.active()
        if tel is not None:
            labels = {"graph": ctx.name}
            tel.registry.histogram(
                "agent_episode_advantage", labels=labels,
                help="reward minus moving-average baseline",
                buckets=_REWARD_BUCKETS).observe(advantage)
            tel.registry.gauge(
                "agent_policy_entropy", labels=labels,
                help="entropy of the sampled strategy",
            ).set(float(sample.entropy.data))
        # maximize logprob*advantage + lambda*entropy
        return F.add(F.scale(sample.log_prob, -advantage),
                     F.scale(sample.entropy, -self._entropy_weight))

    def _record(self, ctx: GraphContext, actions: np.ndarray,
                outcome: EvalOutcome) -> float:
        """Fold one evaluated candidate into ``ctx``; returns its reward.

        When a mostly-MP candidate OOMs before any group-action one is
        feasible, a ladder rebuilt from the *measured* per-device peaks
        goes to the head of the seed queue (the feasibility repair for
        the large-model rows, where the cluster runs at ~90% occupancy).
        """
        attempts = self._repair_attempts.get(ctx.name, 0)
        if (self.config.use_seeds and ctx.best_actions is None
                and outcome.oom and outcome.peak_memory and attempts < 4
                and (actions < ctx.builder.cluster.num_devices).mean() >= 0.5):
            self._repair_attempts[ctx.name] = attempts + 1
            self._seed_queues[ctx.name].insert(0, rebalanced_ladder(
                ctx.graph, ctx.builder.cluster, ctx.grouping,
                outcome.peak_memory))
        reward = compute_reward(outcome)
        ctx.record(actions, outcome)
        tel = telemetry.active()
        if tel is None or outcome.pruned:
            return reward  # a pruned seed has no reward to report
        labels = {"graph": ctx.name}
        tel.registry.histogram("agent_episode_reward", labels=labels,
                               help="REINFORCE reward per episode",
                               buckets=_REWARD_BUCKETS).observe(reward)
        if ctx.incumbent != float("inf"):
            tel.registry.gauge("agent_best_time_seconds", labels=labels,
                               help="best feasible simulated time so far",
                               ).set(ctx.incumbent)
        return reward

    def _evaluate_raw_seeds(self, ctx: GraphContext) -> None:
        """Evaluate the per-op memory-ladder strategy with a bounded
        rebalance loop (feasibility fallback for the large-model rows).

        Once a group-action seed is feasible, each attempt races the
        incumbent: a pruned attempt is provably slower than a feasible
        plan, and (having no measured peaks) ends the loop.  Without
        one, the attempts run to completion and an OOM rebalances the
        ladder from its measured peaks."""
        cluster = ctx.builder.cluster
        limit = ctx.seed_limit
        weights = None
        for _ in range(4):
            strategy = memory_ladder_strategy(ctx.graph, cluster, weights)
            outcome = ctx.builder.evaluate(strategy, prune_above=limit)
            if outcome.feasible:
                if outcome.time < ctx.best_raw_time:
                    ctx.best_raw_time = outcome.time
                    ctx.best_raw_strategy = strategy
                    if ctx.best_raw_time < ctx.best_time:
                        ctx.best_episode = 0
                return
            if not outcome.peak_memory:
                return
            weights = rebalance_weights(cluster, outcome.peak_memory)

    def train(self, episodes: int) -> None:
        for _ in range(episodes):
            self.train_episode()

    # ------------------------------------------------------------------ #
    def best_strategy(self, name: str):
        ctx = self._ctx(name)
        if ctx.best_raw_time < ctx.best_time:
            return ctx.best_raw_strategy
        if ctx.best_actions is None:
            return None
        return actions_to_strategy(ctx.graph, ctx.builder.cluster,
                                   ctx.grouping, ctx.best_actions)

    def best_time(self, name: str) -> float:
        return self._ctx(name).incumbent

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
