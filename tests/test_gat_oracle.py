"""Edge-list graph attention paired against the dense oracle.

``tests/oracle/gat.py`` keeps the dense masked-attention ``GATLayer`` and
the one-hot relative-position gather.  Summation order differs between
the two, so outputs and gradients are compared within 1e-12 of each
array's largest magnitude (float64 leaves about four orders of
headroom), never bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.agent import AgentConfig, GATEncoder, HeteroGAgent
from repro.cluster import cluster_4gpu
from repro.graph.models import build_model, model_names
from repro.nn import Neighbourhood, Tensor
from repro.nn import functional as F
from repro.nn.transformer_xl import RelativePositionBias
from tests.oracle.gat import (
    adjacency_mask,
    dense_policy,
    mask_of,
    masked_fill,
    one_hot_position_bias,
)

RTOL = 1e-12
CONFIG = AgentConfig(max_groups=12, gat_hidden=16, gat_layers=2,
                     gat_heads=2, strategy_dim=16, strategy_heads=2,
                     strategy_layers=1, seed=0)


def assert_close(actual: np.ndarray, expected: np.ndarray,
                 scale: float = 0.0) -> None:
    """Within RTOL of ``expected``'s largest magnitude, or of ``scale``
    when that is larger."""
    assert actual.shape == expected.shape
    scale = max(np.abs(expected).max(), scale, np.finfo(float).tiny)
    assert np.abs(actual - expected).max() <= RTOL * scale


def run_twice(module, forward):
    """``forward()``'s output and every parameter gradient of a summed
    random projection of it: edge list first, then the dense oracle."""
    results = []
    for dense in (False, True):
        module.zero_grad()
        if dense:
            with dense_policy():
                out = forward()
        else:
            out = forward()
        weights = np.random.default_rng(1).normal(size=out.shape)
        F.sum(F.mul(out, Tensor(weights))).backward()
        results.append((out.data, [p.grad for p in module.parameters()]))
    return results


def assert_paired(module, forward, per_array: bool = True) -> None:
    """Output and gradients within RTOL; each gradient relative to its
    own magnitude, or with ``per_array=False`` to the largest gradient
    of the module (for degenerate graphs, where some gradients are zero
    up to rounding: a row whose logits share a sign gives its row score
    a zero gradient)."""
    (out, grads), (dense_out, dense_grads) = run_twice(module, forward)
    assert_close(out, dense_out)
    assert len(grads) == len(dense_grads)
    scale = 0.0 if per_array else max(
        np.abs(g).max() for g in dense_grads if g is not None)
    for grad, dense_grad in zip(grads, dense_grads):
        if dense_grad is None:   # a parameter the output does not use
            assert grad is None
        else:
            assert_close(grad, dense_grad, scale)


def test_masked_fill_blocks_grad():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 3)))
    x.requires_grad = True
    mask = np.eye(3, dtype=bool)
    out = masked_fill(x, mask, -5.0)
    F.sum(out).backward()
    assert np.array_equal(x.grad, np.eye(3))


@pytest.fixture(scope="module")
def agents():
    out = {}
    for model in model_names():
        agent = HeteroGAgent(cluster_4gpu(), CONFIG)
        out[model] = (agent, agent.add_graph(build_model(model, "tiny")))
    return out


@pytest.mark.parametrize("model", model_names())
def test_neighbourhood_matches_dense_mask(agents, model):
    _, ctx = agents[model]
    assert np.array_equal(mask_of(ctx.neighbourhood),
                          adjacency_mask(ctx.graph))


@pytest.mark.parametrize("model", model_names())
def test_node_embeddings_and_gradients_match_dense(agents, model):
    agent, ctx = agents[model]
    encoder = agent.policy.encoder
    assert_paired(encoder, lambda: encoder.node_embeddings(
        ctx.features, ctx.neighbourhood))


@pytest.mark.parametrize("model", model_names())
def test_policy_logits_and_gradients_match_dense(agents, model):
    agent, ctx = agents[model]
    policy = agent.policy
    assert_paired(policy, lambda: policy.logits(
        ctx.features, ctx.neighbourhood, ctx.assignment))


@pytest.mark.parametrize("n", [1, 5, 9, 40])
def test_position_bias_gather_matches_one_hot(n):
    bias = RelativePositionBias(3, 4, np.random.default_rng(n))
    (out, grads), (dense_out, dense_grads) = run_twice(bias, lambda: bias(n))
    assert np.array_equal(out, dense_out)   # a gather moves no bits
    assert_close(grads[0], dense_grads[0])
    assert np.array_equal(bias(n).data, one_hot_position_bias(bias, n).data)


@st.composite
def sparse_graphs(draw):
    """Random edge lists with isolated nodes and high-degree hubs."""
    size = draw(st.integers(1, 30))
    node = st.integers(0, size - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * size))
    hubs = draw(st.lists(node, max_size=2))
    for hub in hubs:
        edges += [(hub, o) for o in range(size)
                  if draw(st.booleans())]
    src = np.asarray([s for s, _ in edges], dtype=np.int64)
    dst = np.asarray([d for _, d in edges], dtype=np.int64)
    return size, src, dst


# (layers, feature magnitude): features of magnitude 1e3 give logits
# whose exp overflows unless each row is shifted by its max first; one
# layer is enough for that, and deeper stacks at that magnitude are
# conditioned worse than RTOL
DEPTHS = st.one_of(st.tuples(st.integers(1, 3), st.just(1.0)),
                   st.tuples(st.just(1), st.just(1e3)))


@given(sparse_graphs(), st.integers(1, 3), DEPTHS, st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_fuzz_random_sparse_graphs(graph, heads, depth, seed):
    size, src, dst = graph
    layers, magnitude = depth
    nbr = Neighbourhood.from_edges(size, src, dst)
    dense = np.eye(size, dtype=bool)
    dense[src, dst] = dense[dst, src] = True
    assert np.array_equal(mask_of(nbr), dense)
    assert len(nbr.row) == len(nbr.col) == dense.sum()
    # (row, col) order, non-empty row segments, (col, row) permutation
    keys = nbr.row * size + nbr.col
    assert (np.diff(keys) > 0).all()
    assert np.array_equal(nbr.row_starts, np.searchsorted(nbr.row,
                                                          np.arange(size)))
    col_keys = (nbr.col * size + nbr.row)[nbr.col_order]
    assert (np.diff(col_keys) > 0).all()
    assert np.array_equal(nbr.col[nbr.col_order][nbr.col_starts],
                          np.arange(size))

    encoder = GATEncoder(4, 6 * heads, layers, heads, seed=seed)
    features = np.random.default_rng(seed).normal(0.0, magnitude, (size, 4))
    assert_paired(encoder, lambda: encoder.node_embeddings(features, nbr),
                  per_array=False)
