"""Transformer-XL-style strategy network (paper Sec. 4.1.2).

The paper feeds the concatenated per-group embeddings through an 8-layer
Transformer-XL and emits an (M + 4)-way categorical distribution per
group.  We keep Transformer-XL's distinguishing *relative position bias*
(learned per head, clipped at a maximum distance) but drop segment-level
recurrence, which only matters for streams longer than one segment — our
"sequence" is the fixed set of op groups of one DNN.  Layer count and
widths are configurable; tests/benches run a scaled-down instance.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from . import functional as F
from .layers import Dense, LayerNorm, Module, MultiHeadSelfAttention
from .tensor import Tensor, parameter


class RelativePositionBias(Module):
    """Learned bias b[head, clip(i-j)] added to attention scores."""

    def __init__(self, heads: int, max_distance: int,
                 rng: np.random.Generator):
        self.heads = heads
        self.max_distance = max_distance
        self.table = parameter((heads, 2 * max_distance + 1), rng, scale=0.02)
        # n -> (n, n) table column of each clip(j - i), built once per n
        self._rel: Dict[int, np.ndarray] = {}

    def __call__(self, n: int) -> Tensor:
        rel = self._rel.get(n)
        if rel is None:
            idx = np.arange(n)
            rel = np.clip(idx[None, :] - idx[:, None], -self.max_distance,
                          self.max_distance) + self.max_distance
            self._rel[n] = rel
        return F.gather(self.table, rel)                        # (heads, n, n)


class EncoderLayer(Module):
    """Post-norm transformer encoder layer with optional position bias."""
    def __init__(self, dim: int, heads: int, ffn_dim: int,
                 rng: np.random.Generator):
        self.attn = MultiHeadSelfAttention(dim, heads, rng)
        self.norm1 = LayerNorm(dim)
        self.ff1 = Dense(dim, ffn_dim, rng)
        self.ff2 = Dense(ffn_dim, dim, rng)
        self.norm2 = LayerNorm(dim)

    def __call__(self, x: Tensor, bias: Optional[Tensor]) -> Tensor:
        x = self.norm1(F.add(x, self.attn(x, bias)))
        ff = self.ff2(F.gelu(self.ff1(x)))
        return self.norm2(F.add(x, ff))


class StrategyNetwork(Module):
    """Group embeddings (N, in_dim) -> per-group action logits (N, actions)."""

    def __init__(
        self,
        in_dim: int,
        num_actions: int,
        *,
        dim: int = 64,
        heads: int = 4,
        layers: int = 2,
        ffn_dim: Optional[int] = None,
        max_rel_distance: int = 32,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        ffn_dim = ffn_dim or 2 * dim
        self.input_proj = Dense(in_dim, dim, rng)
        self.position_bias = RelativePositionBias(heads, max_rel_distance, rng)
        self.layers: List[EncoderLayer] = [
            EncoderLayer(dim, heads, ffn_dim, rng) for _ in range(layers)
        ]
        self.head = Dense(dim, num_actions, rng)
        self.num_actions = num_actions

    def __call__(self, group_embeddings: Tensor) -> Tensor:
        n = group_embeddings.shape[0]
        x = self.input_proj(group_embeddings)
        bias = self.position_bias(n)
        for layer in self.layers:
            x = layer(x, bias)
        return self.head(x)  # (N, num_actions) logits
