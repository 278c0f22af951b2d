"""Policy checkpointing (.npz).

Persists the GAT + strategy-network weights ("a file path to save
trained variables" in the paper's config object), so a policy
pretrained on one set of graphs can be fine-tuned on unseen ones
(Sec. 6.5) across processes.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import StrategyError
from ..nn.layers import Module

_META_KEY = "__checkpoint_format__"
_FORMAT = 1.0


def save_policy(module: Module, path: str) -> None:
    """Persist a policy network's parameters to ``path`` (.npz)."""
    state = module.state_dict()
    state[_META_KEY] = np.asarray(_FORMAT)
    np.savez(path, **state)


def load_policy(module: Module, path: str) -> None:
    """Restore parameters saved by :func:`save_policy` into ``module``.

    The module must have been constructed with the same architecture
    hyper-parameters (shape mismatches raise).
    """
    with np.load(path) as data:
        if _META_KEY not in data:
            raise StrategyError(f"{path!r} is not a policy checkpoint")
        state: Dict[str, np.ndarray] = {
            k: data[k] for k in data.files if k != _META_KEY
        }
    try:
        module.load_state_dict(state)
    except ValueError as exc:
        raise StrategyError(
            f"checkpoint {path!r} does not match the policy architecture: "
            f"{exc}"
        ) from exc
