"""Tests for the numpy autodiff engine, layers, and optimizers.

Every primitive op gets a numerical gradient check; hypothesis drives
shapes and values for the core ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import (Adam, Dense, GATLayer, LayerNorm, Neighbourhood, SGD,
                      StrategyNetwork, Tensor)
from repro.nn import functional as F
from repro.nn.layers import MultiHeadSelfAttention
from repro.nn.tensor import parameter

RNG = np.random.default_rng(0)


def leaf(shape, scale=1.0):
    t = Tensor(RNG.normal(0, scale, size=shape))
    t.requires_grad = True
    return t


def numeric_grad(fn, x, eps=1e-6):
    g = np.zeros_like(x.data)
    it = np.nditer(x.data, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x.data[idx]
        x.data[idx] = orig + eps
        hi = fn().item()
        x.data[idx] = orig - eps
        lo = fn().item()
        x.data[idx] = orig
        g[idx] = (hi - lo) / (2 * eps)
    return g


def check_grad(fn, x, tol=1e-5):
    x.zero_grad()
    out = fn()
    out.backward()
    analytic = x.grad.copy()
    x.zero_grad()
    numeric = numeric_grad(fn, x)
    assert np.abs(analytic - numeric).max() < tol


class TestPrimitives:
    @pytest.mark.parametrize("op", [
        F.relu, F.leaky_relu, F.elu, F.tanh, F.exp, F.gelu,
        lambda t: F.log(F.add(F.mul(t, t), Tensor(np.ones(t.shape)))),
        lambda t: F.softmax(t),
        lambda t: F.log_softmax(t),
    ])
    def test_unary_grads(self, op):
        x = leaf((3, 4))
        check_grad(lambda: F.sum(F.mul(op(x), op(x))), x)

    def test_add_broadcast_grad(self):
        x = leaf((3, 4))
        b = leaf((4,))
        check_grad(lambda: F.sum(F.mul(F.add(x, b), F.add(x, b))), b)

    def test_matmul_grads_both_sides(self):
        a = leaf((3, 5))
        b = leaf((5, 2))
        check_grad(lambda: F.sum(F.matmul(a, b)), a)
        check_grad(lambda: F.sum(F.matmul(a, b)), b)

    def test_batched_matmul(self):
        a = leaf((2, 3, 4))
        b = leaf((2, 4, 3))
        check_grad(lambda: F.sum(F.matmul(a, b)), a)

    def test_div_grad(self):
        a = leaf((3,))
        b = Tensor(np.abs(RNG.normal(2, 0.1, 3)) + 1.0)
        b.requires_grad = True
        check_grad(lambda: F.sum(F.div(a, b)), b)

    def test_sum_axis_keepdims(self):
        x = leaf((3, 4))
        check_grad(lambda: F.sum(F.mul(F.sum(x, axis=1, keepdims=True), x)), x)

    def test_mean_grad(self):
        x = leaf((4, 4))
        check_grad(lambda: F.sum(F.mul(F.mean(x, axis=0), Tensor(np.ones(4)))), x)

    def test_reshape_transpose_roundtrip(self):
        x = leaf((2, 6))
        const = Tensor(RNG.normal(size=(4, 3)))
        check_grad(
            lambda: F.sum(F.mul(F.transpose(F.reshape(x, (3, 4))), const)), x)

    def test_concat_grad(self):
        a = leaf((2, 3))
        b = leaf((2, 2))
        check_grad(lambda: F.sum(F.mul(F.concat([a, b], axis=1),
                                       F.concat([a, b], axis=1))), a)

    def test_layer_norm_grad(self):
        x = leaf((4, 8))
        gain = leaf((8,))
        gain.data = np.abs(gain.data) + 0.5
        bias = leaf((8,))
        check_grad(
            lambda: F.sum(F.mul(F.layer_norm(x, gain, bias),
                                F.layer_norm(x, gain, bias))), x, tol=1e-4)

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_softmax_rows_sum_to_one(self, n, m):
        x = leaf((n, m))
        probs = F.softmax(x).data
        assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_backward_requires_scalar(self):
        x = leaf((2, 2))
        with pytest.raises(ValueError):
            F.mul(x, x).backward()

    def test_grad_accumulates_over_reuse(self):
        x = leaf((3,))
        y = F.sum(F.add(x, x))
        y.backward()
        assert np.allclose(x.grad, 2.0)

    def test_detach_stops_gradient(self):
        x = leaf((3,))
        d = x.detach()
        assert not d.requires_grad


class TestLayers:
    def test_dense_output_shape(self):
        layer = Dense(8, 4, np.random.default_rng(0))
        out = layer(Tensor(RNG.normal(size=(5, 8))))
        assert out.shape == (5, 4)

    def test_layer_norm_normalizes(self):
        ln = LayerNorm(16)
        out = ln(Tensor(RNG.normal(3.0, 2.0, size=(4, 16))))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_gat_respects_adjacency(self):
        """A node with no neighbours except itself only sees itself."""
        rng = np.random.default_rng(1)
        gat = GATLayer(4, 4, 1, rng)
        h = RNG.normal(size=(3, 4))
        nbr = Neighbourhood.from_edges(3, np.array([0]), np.array([1]))
        out1 = gat(Tensor(h), nbr).data
        h2 = h.copy()
        h2[1] += 10.0  # perturb node 1
        out2 = gat(Tensor(h2), nbr).data
        # node 2 is isolated: unaffected by node 1's change
        assert np.allclose(out1[2], out2[2])
        assert not np.allclose(out1[0], out2[0])

    def test_gat_head_divisibility(self):
        with pytest.raises(ValueError):
            GATLayer(4, 7, 2, np.random.default_rng(0))

    def test_mhsa_shape(self):
        attn = MultiHeadSelfAttention(8, 2, np.random.default_rng(0))
        out = attn(Tensor(RNG.normal(size=(5, 8))))
        assert out.shape == (5, 8)

    def test_strategy_network_logits(self):
        net = StrategyNetwork(6, 10, dim=16, heads=2, layers=1, seed=0)
        logits = net(Tensor(RNG.normal(size=(7, 6))))
        assert logits.shape == (7, 10)

    def test_module_num_parameters(self):
        layer = Dense(3, 2, np.random.default_rng(0))
        assert layer.num_parameters() == 3 * 2 + 2

    def test_state_dict_roundtrip(self):
        net = StrategyNetwork(4, 5, dim=8, heads=2, layers=1, seed=0)
        state = net.state_dict()
        net2 = StrategyNetwork(4, 5, dim=8, heads=2, layers=1, seed=9)
        net2.load_state_dict(state)
        x = Tensor(RNG.normal(size=(3, 4)))
        assert np.allclose(net(x).data, net2(x).data)

    def test_state_dict_shape_mismatch(self):
        net = StrategyNetwork(4, 5, dim=8, heads=2, layers=1, seed=0)
        other = StrategyNetwork(4, 5, dim=16, heads=2, layers=1, seed=0)
        with pytest.raises(ValueError):
            other.load_state_dict(net.state_dict())


class TestOptimizers:
    def _quadratic_problem(self):
        w = parameter((4,), np.random.default_rng(0), scale=1.0)
        target = np.asarray([1.0, -2.0, 0.5, 3.0])

        def loss():
            diff = w - Tensor(target)
            return F.sum(F.mul(diff, diff))
        return w, target, loss

    def test_sgd_converges(self):
        w, target, loss = self._quadratic_problem()
        opt = SGD([w], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss().backward()
            opt.step()
        assert np.allclose(w.data, target, atol=1e-3)

    def test_adam_converges(self):
        w, target, loss = self._quadratic_problem()
        opt = Adam([w], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            loss().backward()
            opt.step()
        assert np.allclose(w.data, target, atol=1e-2)

    def test_clip_norm_limits_step(self):
        w = parameter((4,), np.random.default_rng(0))
        opt = SGD([w], lr=1.0, clip_norm=0.001)
        before = w.data.copy()
        (F.sum(F.mul(w, w)) * 1e6).backward()
        opt.step()
        assert np.linalg.norm(w.data - before) <= 0.0011

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
