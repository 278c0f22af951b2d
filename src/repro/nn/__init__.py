"""numpy autodiff engine + layers for the GNN policy (no external ML deps)."""

from . import functional
from .functional import Neighbourhood
from .layers import Dense, GATLayer, LayerNorm, Module, MultiHeadSelfAttention
from .optim import Adam
from .tensor import Tensor, make_op, parameter
from .transformer_xl import EncoderLayer, RelativePositionBias, StrategyNetwork

__all__ = [
    "Tensor",
    "parameter",
    "make_op",
    "functional",
    "Neighbourhood",
    "Module",
    "Dense",
    "LayerNorm",
    "GATLayer",
    "MultiHeadSelfAttention",
    "StrategyNetwork",
    "EncoderLayer",
    "RelativePositionBias",
    "Adam",
]
