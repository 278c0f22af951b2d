"""Property-based tests for grouping and the seed generators."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import cluster_4gpu, cluster_8gpu
from repro.graph.grouping import group_operations
from repro.agent.seeds import (
    group_memory_bytes,
    ladder_from_targets,
    memory_ladder_strategy,
    rebalance_weights,
    seed_action_vectors,
)
from repro.parallel.strategy import ParallelKind

from tests.helpers import make_mlp

CLUSTER = cluster_4gpu()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 5), st.integers(2, 30))
def test_grouping_is_total_partition(layers, max_groups):
    graph = make_mlp(layers=layers, name=f"gp_{layers}_{max_groups}")
    grouping = group_operations(graph, {n: 1.0 for n in graph.op_names},
                                max_groups)
    # every op in exactly one group; groups indices dense
    assert set(grouping.group_of) == set(graph.op_names)
    used = set(grouping.group_of.values())
    assert used <= set(range(grouping.num_groups))
    # anchors map to their own groups
    for g, anchor in enumerate(grouping.anchors):
        assert grouping.group_of[anchor] == g


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 6), st.integers(4, 24))
def test_seed_vectors_always_valid(layers, max_groups):
    graph = make_mlp(layers=layers, name=f"sv_{layers}_{max_groups}")
    grouping = group_operations(graph, {n: 1.0 for n in graph.op_names},
                                max_groups)
    for vec in seed_action_vectors(graph, CLUSTER, grouping):
        assert vec.shape == (grouping.num_groups,)
        assert (vec >= 0).all()
        assert (vec < CLUSTER.num_devices + 4).all()


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4))
def test_ladder_respects_target_monotonicity(weights):
    """Whatever the capacity weights, the ladder is a monotone staircase
    over the anchors' topological order."""
    graph = make_mlp(layers=5, name="ladder_prop")
    grouping = group_operations(graph, {n: 1.0 for n in graph.op_names}, 16)
    ladder = ladder_from_targets(graph, CLUSTER, grouping,
                                 np.asarray(weights))
    from repro.agent.seeds import _anchor_topo_positions
    order = np.argsort(_anchor_topo_positions(graph, grouping))
    stages = [ladder[g] for g in order]
    assert all(a <= b for a, b in zip(stages, stages[1:]))
    assert (ladder >= 0).all() and (ladder < CLUSTER.num_devices).all()


def test_group_memory_accounts_forward_only():
    graph = make_mlp(layers=3, name="gm_mlp")
    grouping = group_operations(graph, {n: 1.0 for n in graph.op_names}, 6)
    mem = group_memory_bytes(graph, grouping)
    assert mem.sum() > 0
    assert (mem >= 0).all()


class TestMemoryLadderStrategy:
    def test_all_mp_and_backward_colocated(self):
        graph = make_mlp(layers=5, name="ml_mlp")
        strategy = memory_ladder_strategy(graph, cluster_8gpu())
        for name in graph.op_names:
            st_ = strategy.get(name)
            assert st_.kind is ParallelKind.MP
            op = graph.op(name)
            if op.forward_ref is not None:
                assert st_.device == strategy.get(op.forward_ref).device

    def test_weights_shift_boundaries(self):
        graph = make_mlp(layers=8, width=128, name="ml_mlp2")
        cluster = cluster_4gpu()
        even = memory_ladder_strategy(
            graph, cluster, np.asarray([1.0, 1.0, 1.0, 1.0]))
        skewed = memory_ladder_strategy(
            graph, cluster, np.asarray([10.0, 1.0, 1.0, 1.0]))
        even_on_0 = sum(1 for n in graph.op_names
                        if even.get(n).device == "gpu0")
        skewed_on_0 = sum(1 for n in graph.op_names
                          if skewed.get(n).device == "gpu0")
        assert skewed_on_0 > even_on_0

    def test_rebalance_weights_shift_away_from_overload(self):
        cluster = cluster_4gpu()
        peaks = {"gpu0": 20e9, "gpu1": 1e9, "gpu2": 5e9, "gpu3": 5e9}
        weights = rebalance_weights(cluster, peaks)
        # overloaded gpu0 loses share relative to underused gpu1
        cap0 = cluster.device("gpu0").usable_memory_bytes
        cap1 = cluster.device("gpu1").usable_memory_bytes
        assert weights[0] / cap0 < weights[1] / cap1

    def test_rebalance_handles_unused_device(self):
        cluster = cluster_4gpu()
        weights = rebalance_weights(cluster, {"gpu0": 5e9})
        assert len(weights) == 4
        assert (np.asarray(weights) > 0).all()
