"""GAT graph encoder + per-group pooling (paper Sec. 4.1.1)."""

from __future__ import annotations

from typing import List

import numpy as np

from ..nn import functional as F
from ..nn.functional import Neighbourhood
from ..nn.layers import GATLayer, Module
from ..nn.tensor import Tensor, parameter


class GATEncoder(Module):
    """Stacked multi-head GAT producing per-node embeddings ``e_o``,
    then per-group embeddings ``g_n = sigma(sum_{o in G_n} W e_o)``."""

    def __init__(self, in_dim: int, hidden_dim: int, layers: int, heads: int,
                 seed: int = 0):
        if layers < 1:
            raise ValueError("need at least one GAT layer")
        rng = np.random.default_rng(seed)
        dims = [in_dim] + [hidden_dim] * layers
        self.layers: List[GATLayer] = [
            GATLayer(dims[i], dims[i + 1], heads, rng) for i in range(layers)
        ]
        self.group_proj = parameter((hidden_dim, hidden_dim), rng)
        self.hidden_dim = hidden_dim

    def node_embeddings(self, features: np.ndarray,
                        neighbourhood: Neighbourhood) -> Tensor:
        h = Tensor(features)
        for layer in self.layers:
            h = layer(h, neighbourhood)
        return h  # (O, hidden)

    def group_embeddings(self, node_emb: Tensor,
                         assignment: np.ndarray) -> Tensor:
        """``assignment``: (N, O) binary matrix from the Grouping."""
        pooled = F.matmul(Tensor(assignment), node_emb)   # (N, hidden)
        return F.elu(F.matmul(pooled, self.group_proj))   # (N, hidden)

    def __call__(self, features: np.ndarray, neighbourhood: Neighbourhood,
                 assignment: np.ndarray) -> Tensor:
        return self.group_embeddings(
            self.node_embeddings(features, neighbourhood), assignment
        )
