"""Optimizers for the policy networks."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .tensor import Tensor


#: Adam's moment decay rates and denominator offset
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction and optional gradient-norm clipping."""
    def __init__(self, params: List[Tensor], lr: float = 1e-3,
                 clip_norm: Optional[float] = None):
        if not params:
            raise ValueError("optimizer received no parameters")
        self.params = params
        self.lr = lr
        self.clip_norm = clip_norm
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def _clip(self, max_norm: Optional[float]) -> None:
        if max_norm is None:
            return
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float((p.grad ** 2).sum())
        norm = np.sqrt(total)
        if norm > max_norm and norm > 0:
            factor = max_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad = p.grad * factor

    def step(self) -> None:
        self._clip(self.clip_norm)
        self._t += 1
        bc1 = 1.0 - BETA1 ** self._t
        bc2 = 1.0 - BETA2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            m *= BETA1
            m += (1 - BETA1) * p.grad
            v *= BETA2
            v += (1 - BETA2) * (p.grad ** 2)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + EPS)
