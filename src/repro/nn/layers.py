"""Neural-network layers built on the autodiff engine."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from . import functional as F
from .tensor import Tensor, parameter


class Module:
    """Minimal module base: parameter registration and traversal."""

    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
                    elif isinstance(item, Tensor) and item.requires_grad:
                        params.append(item)
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(int(np.prod(p.shape)) for p in self.parameters())

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {str(i): p.data.copy() for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if len(state) != len(params):
            raise ValueError(
                f"state has {len(state)} tensors, model has {len(params)}"
            )
        for i, p in enumerate(params):
            incoming = state[str(i)]
            if incoming.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for parameter {i}: "
                    f"{incoming.shape} vs {p.data.shape}"
                )
            p.data = incoming.copy()


class Dense(Module):
    """Affine layer y = x W + b."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        self.weight = parameter((in_features, out_features), rng)
        self.bias = None
        if bias:
            self.bias = Tensor(np.zeros(out_features))
            self.bias.requires_grad = True

    def __call__(self, x: Tensor) -> Tensor:
        out = F.matmul(x, self.weight)
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out


class LayerNorm(Module):
    """Layer normalization over the last axis with learned gain/bias."""
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim))
        self.gain.requires_grad = True
        self.bias = Tensor(np.zeros(dim))
        self.bias.requires_grad = True

    def __call__(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gain, self.bias)


class GATLayer(Module):
    """One multi-head graph-attention layer (Velickovic et al., 2017).

    ``e_o = ||_k sigma( sum_j alpha^k_{oj} W^k e'_j )`` with attention
    coefficients from a shared additive mechanism over the graph's
    neighbourhood (paper Sec. 4.1.1), computed edge by edge.
    """

    def __init__(self, in_dim: int, out_dim: int, heads: int,
                 rng: np.random.Generator):
        if out_dim % heads != 0:
            raise ValueError(f"out_dim {out_dim} not divisible by heads {heads}")
        self.heads = heads
        self.head_dim = out_dim // heads
        self.w = [parameter((in_dim, self.head_dim), rng) for _ in range(heads)]
        self.attn_src = [parameter((self.head_dim, 1), rng) for _ in range(heads)]
        self.attn_dst = [parameter((self.head_dim, 1), rng) for _ in range(heads)]

    def __call__(self, h: Tensor, neighbourhood: F.Neighbourhood) -> Tensor:
        """``h``: (O, in_dim); node o attends over its ``neighbourhood``
        row (its graph neighbours and itself)."""
        outputs = []
        for k in range(self.heads):
            wh = F.matmul(h, self.w[k])                      # (O, d)
            src_score = F.matmul(wh, self.attn_src[k])       # (O, 1)
            dst_score = F.matmul(wh, self.attn_dst[k])       # (O, 1)
            out = F.graph_attention(wh, src_score, dst_score, neighbourhood)
            outputs.append(F.elu(out))
        return F.concat(outputs, axis=-1)


class MultiHeadSelfAttention(Module):
    """Standard scaled dot-product self-attention over a set of tokens."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.head_dim = dim // heads
        self.wq = Dense(dim, dim, rng, bias=False)
        self.wk = Dense(dim, dim, rng, bias=False)
        self.wv = Dense(dim, dim, rng, bias=False)
        self.wo = Dense(dim, dim, rng)

    def __call__(self, x: Tensor,
                 position_bias: Optional[Tensor] = None) -> Tensor:
        n, dim = x.shape
        q = F.reshape(self.wq(x), (n, self.heads, self.head_dim))
        k = F.reshape(self.wk(x), (n, self.heads, self.head_dim))
        v = F.reshape(self.wv(x), (n, self.heads, self.head_dim))
        q = F.transpose(q, (1, 0, 2))  # (heads, n, d)
        k = F.transpose(k, (1, 2, 0))  # (heads, d, n)
        v = F.transpose(v, (1, 0, 2))
        scores = F.scale(F.matmul(q, k), 1.0 / np.sqrt(self.head_dim))
        if position_bias is not None:
            scores = F.add(scores, position_bias)
        alpha = F.softmax(scores, axis=-1)
        out = F.matmul(alpha, v)       # (heads, n, d)
        out = F.transpose(out, (1, 0, 2))
        out = F.reshape(out, (n, dim))
        return self.wo(out)
