"""GNN-based strategy agent: features, GAT encoder, policy, REINFORCE."""

from .agent import AgentConfig, HeteroGAgent
from .embedding import GATEncoder
from .features import FeatureEncoder
from .policy import (
    DP_ACTIONS,
    PolicyNetwork,
    PolicySample,
    action_to_op_strategy,
    actions_to_strategy,
    num_actions,
    uniform_action_vector,
)
from .reinforce import GraphContext, ReinforceTrainer
from .reward import MovingAverageBaseline, compute_reward
from .seeds import seed_action_vectors

__all__ = [
    "HeteroGAgent",
    "AgentConfig",
    "GATEncoder",
    "FeatureEncoder",
    "PolicyNetwork",
    "PolicySample",
    "DP_ACTIONS",
    "num_actions",
    "action_to_op_strategy",
    "actions_to_strategy",
    "uniform_action_vector",
    "GraphContext",
    "ReinforceTrainer",
    "MovingAverageBaseline",
    "compute_reward",
    "seed_action_vectors",
]
