"""A small reverse-mode autodiff engine over numpy arrays.

Powers the GAT graph encoder and the Transformer-XL-style strategy
network (paper Sec. 4.1) without any external ML framework.  Only the ops
those networks need are implemented; everything is dense float32/64.

Design: a :class:`Tensor` wraps an ndarray and (when produced by an op)
a backward closure over its parents.  ``backward()`` topologically sorts
the tape and accumulates gradients.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # sum leading extra dims
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A node in the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: Tuple["Tensor", ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    def backward(self) -> None:
        """Back-propagate from this scalar output (seed gradient 1)."""
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        grad = np.ones_like(self.data)
        # topological order of the tape reachable from self
        order: List[Tensor] = []
        seen = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)
            # only leaves keep their gradient: an op's output gradient
            # is spent once it reached the op's inputs
            node.grad = None

    # ------------------------------------------------------------------ #
    # operator sugar (implementations live in functional.py to keep this
    # module focused on the tape mechanics)
    # ------------------------------------------------------------------ #
    def __add__(self, other):
        from . import functional as F
        return F.add(self, _as_tensor(other))

    __radd__ = __add__

    def __mul__(self, other):
        from . import functional as F
        return F.mul(self, _as_tensor(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        from . import functional as F
        return F.add(self, F.scale(_as_tensor(other), -1.0))

    def __rsub__(self, other):
        from . import functional as F
        return F.add(_as_tensor(other), F.scale(self, -1.0))

    def __neg__(self):
        from . import functional as F
        return F.scale(self, -1.0)

    def __matmul__(self, other):
        from . import functional as F
        return F.matmul(self, _as_tensor(other))

    def __truediv__(self, other):
        from . import functional as F
        if isinstance(other, (int, float)):
            return F.scale(self, 1.0 / other)
        return F.div(self, _as_tensor(other))

    def sum(self, axis=None, keepdims: bool = False):
        from . import functional as F
        return F.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from . import functional as F
        return F.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from . import functional as F
        return F.reshape(self, shape)

    def transpose(self, axes=None):
        from . import functional as F
        return F.transpose(self, axes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, grad={'yes' if self.grad is not None else 'no'})"


def _as_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def make_op(data: np.ndarray, parents: Sequence[Tensor],
            backward: Callable[[np.ndarray], None]) -> Tensor:
    """Create a tape node; gradients flow iff any parent requires them."""
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def parameter(shape: Tuple[int, ...], rng: np.random.Generator,
              scale: Optional[float] = None) -> Tensor:
    """Glorot-initialized trainable tensor."""
    if scale is None:
        fan_in = shape[0] if len(shape) >= 1 else 1
        fan_out = shape[-1] if len(shape) >= 2 else shape[0]
        scale = float(np.sqrt(2.0 / (fan_in + fan_out)))
    t = Tensor(rng.normal(0.0, scale, size=shape))
    t.requires_grad = True
    return t
