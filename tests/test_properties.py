"""Property-based invariants on the compile -> schedule -> simulate stack.

Random strategies over random small graphs must always yield valid
distributed graphs whose simulated makespan respects fundamental bounds.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import cluster_4gpu
from repro.graph import GraphBuilder, build_training_graph
from repro.graph.grouping import group_operations
from repro.agent.policy import actions_to_strategy, num_actions
from repro.parallel import GraphCompiler
from repro.profiling import exact_profile
from repro.scheduling import ListScheduler, critical_path, total_work
from repro.simulation import ProfileCostModel, Simulator

CLUSTER = cluster_4gpu()


def random_graph(layers: int, width: int, batch: int, branches: bool):
    b = GraphBuilder(f"rand_{layers}_{width}_{batch}_{branches}", batch)
    x = b.input((8,))
    for i in range(layers):
        x = b.dense(x, width, layer=f"fc{i}")
        if branches and i % 2 == 0:
            left = b.activation(x, layer=f"l{i}")
            right = b.activation(x, kind="Gelu", layer=f"r{i}")
            x = b.add_n([left, right], layer=f"merge{i}")
        else:
            x = b.activation(x, layer=f"fc{i}")
    b.softmax_loss(x, 10)
    return build_training_graph(b)


@st.composite
def graph_and_actions(draw):
    layers = draw(st.integers(1, 4))
    width = draw(st.sampled_from([8, 16, 32]))
    batch = draw(st.sampled_from([4, 8, 16]))
    branches = draw(st.booleans())
    graph = random_graph(layers, width, batch, branches)
    groups = draw(st.integers(2, 8))
    grouping = group_operations(graph, {n: 1.0 for n in graph.op_names},
                                groups)
    actions = draw(st.lists(
        st.integers(0, num_actions(CLUSTER) - 1),
        min_size=grouping.num_groups, max_size=grouping.num_groups,
    ))
    return graph, grouping, actions


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph_and_actions())
def test_random_strategy_compiles_and_simulates(payload):
    graph, grouping, actions = payload
    strategy = actions_to_strategy(graph, CLUSTER, grouping, actions)
    profile = exact_profile(graph, CLUSTER)
    compiler = GraphCompiler(CLUSTER, profile)
    dist = compiler.compile(graph, strategy)
    dist.validate()

    cost = ProfileCostModel(CLUSTER, profile)
    schedule = ListScheduler().schedule(dist, cost)
    result = Simulator(cost).run(dist, order=schedule.order,
                                 resident_bytes=dist.resident_bytes)

    # fundamental scheduling bounds
    cp = critical_path(dist, cost)
    work = total_work(dist, cost)
    assert result.makespan >= cp - 1e-9
    assert result.makespan <= work + 1e-9

    # every compute op instance executed exactly once: busy time adds up
    assert sum(result.device_busy.values()) <= work + 1e-9

    # memory accounting is non-negative and peaks at least at resident
    for dev, peak in result.peak_memory.items():
        assert peak >= dist.resident_bytes.get(dev, 0) - 1e-6


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph_and_actions())
def test_priority_order_never_beats_critical_path(payload):
    """Both candidate orders respect the same lower bound, and the
    scheduler's estimate matches a re-simulation (determinism)."""
    graph, grouping, actions = payload
    strategy = actions_to_strategy(graph, CLUSTER, grouping, actions)
    profile = exact_profile(graph, CLUSTER)
    compiler = GraphCompiler(CLUSTER, profile)
    dist = compiler.compile(graph, strategy)
    cost = ProfileCostModel(CLUSTER, profile)
    schedule = ListScheduler().schedule(dist, cost)
    again = Simulator(cost).run(dist, order=schedule.order)
    assert again.makespan == pytest.approx(schedule.estimated_makespan,
                                           rel=1e-9)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 3), st.sampled_from([8, 16]), st.booleans())
def test_strategy_mix_fractions_sum_to_one(layers, width, branches):
    graph = random_graph(layers, width, 8, branches)
    grouping = group_operations(graph, {n: 1.0 for n in graph.op_names}, 4)
    rng = np.random.default_rng(layers * width)
    actions = rng.integers(0, num_actions(CLUSTER), grouping.num_groups)
    strategy = actions_to_strategy(graph, CLUSTER, grouping, actions)
    mix = strategy.strategy_mix()
    assert sum(mix.values()) == pytest.approx(1.0)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 4), st.sampled_from([16, 32]))
def test_single_device_time_exceeds_distributed_lower_bound(layers, width):
    """Distributing over 4 GPUs can't be slower than 4x one GPU's work
    in the simulator (sanity on the cost model's additivity)."""
    graph = random_graph(layers, width, 16, False)
    profile = exact_profile(graph, CLUSTER)
    from repro.parallel import single_device_strategy
    compiler = GraphCompiler(CLUSTER, profile)
    dist = compiler.compile(graph, single_device_strategy(graph, CLUSTER))
    cost = ProfileCostModel(CLUSTER, profile)
    result = Simulator(cost).run(dist)
    assert result.makespan == pytest.approx(total_work(dist, cost), rel=1e-6)
