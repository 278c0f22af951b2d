"""HeteroG configuration object (the optional ``heterog_config`` of the
client API, Sec. 3.5)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .agent.agent import AgentConfig


@dataclass
class HeteroGConfig:
    """Knobs for strategy search and deployment.

    The one home of a planning request's search settings: the planning
    service reads them from here alone, and fingerprints every field
    that can change a result.

    - ``episodes``: RL episodes for the strategy search.
    - ``use_order_scheduling``: HeteroG's rank-based execution order vs the
      framework's default FIFO ("whether to use default execution order or
      our order scheduling algorithm"); overrides
      ``agent.use_order_scheduling``.
    - ``checkpoint_path``: where to save trained variables (accepted for
      API fidelity; the simulated engine has no variables to persist).
    - ``agent``: GNN policy and training hyper-parameters.
    - ``seed``: master seed for profiling/search determinism; overrides
      ``agent.seed``.
    """

    episodes: int = 40
    use_order_scheduling: bool = True
    checkpoint_path: Optional[str] = None
    agent: AgentConfig = field(default_factory=AgentConfig)
    seed: int = 0
    profile_noise_sigma: float = 0.03
    engine_jitter_sigma: float = 0.04
