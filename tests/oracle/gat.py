"""Test-only oracle: the original dense masked-attention GAT.

:class:`DenseGATLayer` is ``GATLayer`` as it was before graph attention
ran over the neighbourhood's edge list: per head it builds the full
(O, O) logit matrix, masks non-neighbours with -1e9 through
:func:`masked_fill` and soft-maxes whole rows.  :func:`adjacency_mask`
is the (O, O) neighbourhood it consumed, and :func:`one_hot_position_bias`
the one-hot matmul gather ``RelativePositionBias`` used.  The code is
unchanged apart from names and imports.

:func:`dense_policy` swaps all three in for the edge-list versions, so a
whole policy can be paired against them: same parameters, same inputs.
``tests/test_gat_oracle.py`` does so.
"""

from __future__ import annotations

import contextlib
from typing import Iterator
from unittest import mock

import numpy as np

from repro.graph.dag import ComputationGraph
from repro.nn import functional as F
from repro.nn.functional import Neighbourhood
from repro.nn.layers import GATLayer, Module
from repro.nn.tensor import Tensor, make_op, parameter
from repro.nn.transformer_xl import RelativePositionBias


def masked_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Where ``mask`` is True keep ``a``; elsewhere substitute ``value``
    (no gradient flows to substituted positions)."""
    data = np.where(mask, a.data, value)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * mask)

    return make_op(data, (a,), backward)


class DenseGATLayer(Module):
    """One multi-head graph-attention layer (Velickovic et al., 2017).

    ``e_o = ||_k sigma( sum_j alpha^k_{oj} W^k e'_j )`` with attention
    coefficients from a shared additive mechanism, masked to the graph's
    neighbourhood (paper Sec. 4.1.1).
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

    def __call__(self, h: Tensor, adjacency_mask: np.ndarray) -> Tensor:
        """``h``: (O, in_dim); ``adjacency_mask``: (O, O) bool, True where
        node j is a neighbour of node o (self-loops included)."""
        outputs = []
        for k in range(self.heads):
            wh = F.matmul(h, self.w[k])                      # (O, d)
            src_score = F.matmul(wh, self.attn_src[k])       # (O, 1)
            dst_score = F.matmul(wh, self.attn_dst[k])       # (O, 1)
            logits = F.add(src_score, F.transpose(dst_score))  # (O, O)
            logits = F.leaky_relu(logits)
            logits = masked_fill(logits, adjacency_mask, -1e9)
            alpha = F.softmax(logits, axis=-1)
            out = F.matmul(alpha, wh)                        # (O, d)
            outputs.append(F.elu(out))
        return F.concat(outputs, axis=-1)


def adjacency_mask(graph: ComputationGraph) -> np.ndarray:
    """(O, O) bool: True where j is a (bidirectional) neighbour of o,
    self-loops included — the GAT aggregates over N_o including o."""
    index = {n: i for i, n in enumerate(graph.op_names)}
    n = len(index)
    mask = np.eye(n, dtype=bool)
    for src, dst in graph.edges():
        mask[index[src], index[dst]] = True
        mask[index[dst], index[src]] = True
    return mask


def one_hot_position_bias(bias: RelativePositionBias, n: int) -> Tensor:
    """``RelativePositionBias(n)`` gathered through a one-hot matmul."""
    idx = np.arange(n)
    rel = np.clip(idx[None, :] - idx[:, None], -bias.max_distance,
                  bias.max_distance) + bias.max_distance   # (n, n)
    # gather via one-hot matmul to stay differentiable
    one_hot = np.eye(2 * bias.max_distance + 1)[rel]        # (n, n, B)
    flat = Tensor(one_hot.reshape(n * n, -1))
    out = F.matmul(flat, F.transpose(bias.table))           # (n*n, heads)
    out = F.reshape(out, (n, n, bias.heads))
    return F.transpose(out, (2, 0, 1))                      # (heads, n, n)


def mask_of(neighbourhood: Neighbourhood) -> np.ndarray:
    """The (O, O) bool matrix of a neighbourhood's entries."""
    mask = np.zeros((neighbourhood.size, neighbourhood.size), dtype=bool)
    mask[neighbourhood.row, neighbourhood.col] = True
    return mask


@contextlib.contextmanager
def dense_policy() -> Iterator[None]:
    """Route every ``GATLayer`` call through :class:`DenseGATLayer` (on
    the dense mask of its neighbourhood) and every ``RelativePositionBias``
    call through :func:`one_hot_position_bias`, with the same parameters."""
    def gat(self, h, neighbourhood):
        return DenseGATLayer.__call__(self, h, mask_of(neighbourhood))

    with mock.patch.object(GATLayer, "__call__", gat), \
            mock.patch.object(RelativePositionBias, "__call__",
                              one_hot_position_bias):
        yield
