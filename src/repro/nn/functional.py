"""Differentiable operations for the autodiff engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .tensor import Tensor, _unbroadcast, make_op


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise addition with numpy broadcasting."""
    data = a.data + b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.shape))

    return make_op(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise multiplication with numpy broadcasting."""
    data = a.data * b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.shape))

    return make_op(data, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise division."""
    data = a.data / b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad / b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-grad * a.data / (b.data ** 2), b.shape))

    return make_op(data, (a, b), backward)


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply a tensor by a python scalar."""
    data = a.data * factor

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * factor)

    return make_op(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (batched via numpy @ semantics)."""
    data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            ga = grad @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ grad
            b._accumulate(_unbroadcast(gb, b.shape))

    return make_op(data, (a, b), backward)


def relu(a: Tensor) -> Tensor:
    """max(x, 0)."""
    mask = a.data > 0
    data = a.data * mask

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * mask)

    return make_op(data, (a,), backward)


def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    """x if x > 0 else alpha * x (the GAT attention nonlinearity)."""
    mask = a.data > 0
    data = np.where(mask, a.data, alpha * a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * np.where(mask, 1.0, alpha))

    return make_op(data, (a,), backward)


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit."""
    mask = a.data > 0
    data = np.where(mask, a.data,
                    alpha * (np.exp(np.minimum(a.data, 0.0)) - 1.0))

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            # d/dx alpha (e^x - 1) = alpha e^x = data + alpha where x <= 0
            a._accumulate(grad * np.where(mask, 1.0, data + alpha))

    return make_op(data, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    data = np.tanh(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * (1.0 - data ** 2))

    return make_op(data, (a,), backward)


def exp(a: Tensor) -> Tensor:
    """Elementwise exponential."""
    data = np.exp(a.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * data)

    return make_op(data, (a,), backward)


def log(a: Tensor, eps: float = 1e-12) -> Tensor:
    """Elementwise natural log (stabilized with eps)."""
    data = np.log(a.data + eps)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad / (a.data + eps))

    return make_op(data, (a,), backward)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU."""
    c = np.sqrt(2.0 / np.pi)
    inner = c * (a.data + 0.044715 * a.data ** 3)
    t = np.tanh(inner)
    data = 0.5 * a.data * (1.0 + t)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            dt = (1.0 - t ** 2) * c * (1.0 + 3 * 0.044715 * a.data ** 2)
            a._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * a.data * dt))

    return make_op(data, (a,), backward)


def sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    """Sum over axis (or all elements)."""
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        if not a.requires_grad:
            return
        g = grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        a._accumulate(np.broadcast_to(g, a.shape).copy())

    return make_op(data, (a,), backward)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over axis (or all elements)."""
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[ax] for ax in axis]))
    else:
        count = a.shape[axis]
    return scale(sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    """View with a new shape."""
    original = a.shape
    data = a.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad.reshape(original))

    return make_op(data, (a,), backward)


def transpose(a: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    """Permute axes (reverse when axes is None)."""
    data = np.transpose(a.data, axes)
    if axes is None:
        inverse = None
    else:
        inverse = np.argsort(axes)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.transpose(grad, inverse))

    return make_op(data, (a,), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            if not t.requires_grad:
                continue
            index = [slice(None)] * grad.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            t._accumulate(grad[tuple(index)])

    return make_op(data, tuple(tensors), backward)


def gather(a: Tensor, index: np.ndarray) -> Tensor:
    """``a[:, index]``: pick columns of a 2-D tensor by an integer array
    of any shape; the result has shape ``(a.shape[0],) + index.shape``."""
    rows, cols = a.shape
    data = a.data[:, index]

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            flat = (index.ravel()[None, :]
                    + cols * np.arange(rows)[:, None]).ravel()
            a._accumulate(np.bincount(
                flat, weights=grad.ravel(), minlength=rows * cols
            ).reshape(rows, cols))

    return make_op(data, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along an axis."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            dot = (grad * data).sum(axis=axis, keepdims=True)
            a._accumulate(data * (grad - dot))

    return make_op(data, (a,), backward)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along an axis."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - logsum
    soft = np.exp(data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return make_op(data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """LayerNorm over the last axis."""
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    norm = (a.data - mu) * inv
    data = norm * gain.data + bias.data

    def backward(grad: np.ndarray) -> None:
        if gain.requires_grad:
            gain._accumulate(
                _unbroadcast(grad * norm, gain.shape)
            )
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(grad, bias.shape))
        if a.requires_grad:
            gnorm = grad * gain.data
            term1 = gnorm
            term2 = gnorm.mean(axis=-1, keepdims=True)
            term3 = norm * (gnorm * norm).mean(axis=-1, keepdims=True)
            a._accumulate(inv * (term1 - term2 - term3))

    return make_op(data, (a, gain, bias), backward)


def dropout(a: Tensor, rate: float, rng: Optional[np.random.Generator],
            training: bool) -> Tensor:
    """Inverted dropout (identity when not training)."""
    if not training or rate <= 0.0 or rng is None:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.shape) < keep) / keep

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(grad * mask)

    return make_op(a.data * mask, (a,), backward)


@dataclass(frozen=True, eq=False)
class Neighbourhood:
    """The attention neighbourhood of a graph's nodes, as an edge list.

    Entry ``e`` says node ``col[e]`` is a neighbour of node ``row[e]``.
    The entries hold both directions of every graph edge plus one
    self-loop per node, deduplicated and sorted by (row, col), so every
    row segment ``row_starts[o]:row_starts[o + 1]`` is non-empty.
    ``col_order`` lists the entries sorted by (col, row), with
    ``col_starts`` marking its col segments; backward reduces through it.
    """

    size: int
    row: np.ndarray          # (E,) int
    col: np.ndarray          # (E,) int
    row_starts: np.ndarray   # (size,) int
    col_order: np.ndarray    # (E,) int permutation of the entries
    col_starts: np.ndarray   # (size,) int

    @staticmethod
    def from_edges(size: int, src: np.ndarray,
                   dst: np.ndarray) -> "Neighbourhood":
        """Neighbourhood of ``size`` nodes joined by the directed edges
        ``src[i] -> dst[i]`` (integer node ids)."""
        nodes = np.arange(size, dtype=np.int64)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        keys = np.unique(np.concatenate(
            (src * size + dst, dst * size + src, nodes * (size + 1))))
        row, col = np.divmod(keys, size)
        col_order = np.argsort(col, kind="stable")
        return Neighbourhood(
            size=size, row=row, col=col,
            row_starts=np.searchsorted(row, nodes),
            col_order=col_order,
            col_starts=np.searchsorted(col[col_order], nodes),
        )


def graph_attention(wh: Tensor, s_row: Tensor, s_col: Tensor,
                    nbr: Neighbourhood) -> Tensor:
    """One head of graph attention over the entries of ``nbr``.

    ``out[o] = sum_e alpha_e wh[col_e]`` over row ``o``'s entries, where
    ``alpha`` is the row-wise softmax of
    ``leaky_relu(s_row[row_e] + s_col[col_e])`` (slope 0.2).  ``wh`` is
    (O, d), the scores are (O, 1); work and memory are O(E d), not
    O(O^2).
    """
    slope = 0.2
    row, col, starts = nbr.row, nbr.col, nbr.row_starts
    pre = s_row.data[row, 0] + s_col.data[col, 0]            # (E,)
    positive = pre > 0
    logits = np.where(positive, pre, slope * pre)
    shifted = logits - np.maximum.reduceat(logits, starts)[row]
    e = np.exp(shifted)
    alpha = e / np.add.reduceat(e, starts)[row]
    data = np.add.reduceat(alpha[:, None] * wh.data[col], starts, axis=0)

    def backward(grad: np.ndarray) -> None:
        grad_rows = grad[row]                                # (E, d)
        if wh.requires_grad:
            weighted = (alpha[:, None] * grad_rows)[nbr.col_order]
            wh._accumulate(np.add.reduceat(weighted, nbr.col_starts,
                                           axis=0))
        if not (s_row.requires_grad or s_col.requires_grad):
            return
        g_alpha = (grad_rows * wh.data[col]).sum(axis=1)     # (E,)
        dot = np.add.reduceat(alpha * g_alpha, starts)[row]
        g_pre = alpha * (g_alpha - dot) * np.where(positive, 1.0, slope)
        if s_row.requires_grad:
            s_row._accumulate(np.add.reduceat(g_pre, starts)[:, None])
        if s_col.requires_grad:
            s_col._accumulate(np.add.reduceat(
                g_pre[nbr.col_order], nbr.col_starts)[:, None])

    return make_op(data, (wh, s_row, s_col), backward)
