"""Table 6: generalization of the GNN policy to unseen graphs.

Leave-one-out protocol, as in the paper (Sec. 6.5): train the policy on
the other graphs, then fine-tune on the held-out one and compare the
time needed to reach the best-known strategy quality against training
from scratch on the unseen graph alone.

Seed candidates are disabled here: this experiment isolates what the
*policy network* has learned, so both arms explore purely by sampling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from ..agent import AgentConfig, HeteroGAgent
from ..cluster.topology import Cluster
from ..graph.models import build_model
from ..graph.models.registry import ALL_MODELS
from .common import env_preset, format_table


@dataclass
class GeneralizationRow:
    """One held-out model's scratch-vs-fine-tune comparison (Table 6)."""
    model: str
    scratch_episodes: int
    finetune_episodes: int
    scratch_seconds: float
    finetune_seconds: float
    target_time: float

    @property
    def episode_ratio(self) -> float:
        if self.scratch_episodes == 0:
            return float("nan")
        return self.finetune_episodes / self.scratch_episodes

    @property
    def time_ratio(self) -> float:
        if self.scratch_seconds == 0:
            return float("nan")
        return self.finetune_seconds / self.scratch_seconds


def _agent_config(seed: int) -> AgentConfig:
    return AgentConfig(
        max_groups=24, gat_hidden=32, gat_layers=2, gat_heads=2,
        strategy_dim=32, strategy_heads=2, strategy_layers=1,
        use_seeds=False, seed=seed,
    )


def _episodes_until(agent: HeteroGAgent, name: str, target: float,
                    max_episodes: int) -> int:
    """Train until the best simulated time reaches ``target``."""
    for episode in range(1, max_episodes + 1):
        agent.trainer.train_episode()
        if agent.trainer.best_time(name) <= target:
            return episode
    return max_episodes


def unseen_graph_table(cluster: Cluster, *,
                       preset: Optional[str] = None,
                       models: Optional[List[str]] = None,
                       pretrain_episodes: int = 40,
                       scratch_episodes: int = 60,
                       slack: float = 1.05,
                       seed: int = 0) -> List[GeneralizationRow]:
    """Generate Table 6 rows for ``cluster``.

    For each held-out model: (a) train a fresh policy from scratch on it
    and record episodes/wall-time until its best simulated time stops
    improving; (b) pretrain a policy on all other models, then fine-tune
    on the held-out one until it reaches the scratch run's best time
    (within ``slack``).
    """
    preset = preset or env_preset()
    models = models or ALL_MODELS
    rows: List[GeneralizationRow] = []
    for held_out in models:
        graph = build_model(held_out, preset)

        # (a) from scratch on the unseen graph only
        scratch = HeteroGAgent(cluster, _agent_config(seed))
        scratch.add_graph(graph, name=held_out)
        start = time.time()
        scratch.train(scratch_episodes)
        scratch_seconds = time.time() - start
        target = scratch.best_time(held_out) * slack
        reached = scratch.trainer.episodes_to_reach(held_out, target)
        scratch_eps = reached if reached is not None else scratch_episodes
        # wall-time until that episode (uniform per-episode cost estimate)
        scratch_time_to_target = scratch_seconds * scratch_eps / scratch_episodes

        # (b) pretrain on the other graphs, fine-tune on the held-out one
        pretrained = HeteroGAgent(cluster, _agent_config(seed + 1))
        for other in models:
            if other != held_out:
                pretrained.add_graph(build_model(other, preset), name=other)
        pretrained.train(pretrain_episodes)
        state = pretrained.policy_state()

        finetune = HeteroGAgent(cluster, _agent_config(seed + 2))
        finetune.add_graph(graph, name=held_out)
        finetune.load_policy_state(state)
        start = time.time()
        finetune_eps = _episodes_until(finetune, held_out, target,
                                       scratch_episodes)
        finetune_seconds = time.time() - start

        rows.append(GeneralizationRow(
            model=held_out,
            scratch_episodes=scratch_eps,
            finetune_episodes=finetune_eps,
            scratch_seconds=scratch_time_to_target,
            finetune_seconds=finetune_seconds,
            target_time=target,
        ))
    return rows


def render_generalization(rows: List[GeneralizationRow]) -> str:
    """Plain-text table for Table 6."""
    headers = ["Model", "Scratch eps", "Fine-tune eps", "Episode ratio",
               "Scratch (s)", "Fine-tune (s)"]
    out = [[r.model, str(r.scratch_episodes), str(r.finetune_episodes),
            f"{r.episode_ratio * 100:.1f}%", f"{r.scratch_seconds:.1f}",
            f"{r.finetune_seconds:.1f}"] for r in rows]
    return format_table(headers, out)
