"""HeteroG configuration object (the optional ``heterog_config`` of the
client API, Sec. 3.5)."""

from __future__ import annotations

from dataclasses import dataclass, field

from .agent.agent import AgentConfig
from .errors import ReproError


@dataclass
class HeteroGConfig:
    """Knobs for strategy search and deployment.

    The one home of a planning request's search settings: the planning
    service reads them from here alone, and fingerprints every field
    that can change a result.

    - ``episodes``: RL episodes for the strategy search.
    - ``use_order_scheduling``: HeteroG's rank-based execution order vs the
      framework's default FIFO ("whether to use default execution order or
      our order scheduling algorithm").
    - ``agent``: GNN policy and training hyper-parameters.
    - ``seed``: master seed for profiling/search determinism; overrides
      ``agent.seed``.
    """

    episodes: int = 40
    use_order_scheduling: bool = True
    agent: AgentConfig = field(default_factory=AgentConfig)
    seed: int = 0
    profile_noise_sigma: float = 0.03
    engine_jitter_sigma: float = 0.04

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise ReproError(
                f"HeteroGConfig.episodes must be >= 1, got {self.episodes}")
        for name in ("profile_noise_sigma", "engine_jitter_sigma"):
            sigma = getattr(self, name)
            if sigma < 0:
                raise ReproError(
                    f"HeteroGConfig.{name} must be >= 0, got {sigma}")
