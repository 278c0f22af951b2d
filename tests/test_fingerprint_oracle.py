"""Fingerprints assembled from cached pieces match the full-payload
oracle (:mod:`tests.oracle.fingerprint`) byte for byte."""

from __future__ import annotations

import numpy as np
import pytest

from repro import HeteroGConfig, PlanRequest
from repro.agent.policy import actions_to_strategy
from repro.agent.seeds import memory_ladder_strategy, seed_action_vectors
from repro.baselines.post import sample_placements
from repro.cluster import cluster_4gpu
from repro.graph.grouping import group_operations
from repro.graph.models import build_model, model_names
from repro.graph.op import Operation, TensorSpec
from repro.parallel.strategy import (CommMethod, ReplicaAllocation,
                                     Strategy, make_dp_strategy,
                                     make_mp_strategy)
from repro.plan import (PlanBuilder, fingerprint_context,
                        fingerprint_strategy)

from tests.helpers import exact_profile, make_mlp
from tests.oracle.fingerprint import (reference_context,
                                      reference_context_key,
                                      reference_request,
                                      reference_strategy)


@pytest.fixture(scope="module")
def families():
    """Per family (tiny preset, four GPUs): its builder and candidate
    strategies: every exploration seed, the memory ladder, and four
    cross-entropy samples."""
    cluster = cluster_4gpu()
    rng = np.random.default_rng(0)
    out = []
    for model in model_names():
        graph = build_model(model, "tiny")
        grouping = group_operations(
            graph, {op.name: op.flops for op in graph}, 8)
        builder = PlanBuilder(graph, cluster, exact_profile(graph, cluster))
        strategies = [actions_to_strategy(graph, cluster, grouping, seed)
                      for seed in seed_action_vectors(graph, cluster,
                                                      grouping)]
        strategies.append(memory_ladder_strategy(graph, cluster))
        probs = np.full((grouping.num_groups, cluster.num_devices),
                        1.0 / cluster.num_devices)
        strategies += [actions_to_strategy(graph, cluster, grouping, draws)
                       for draws in sample_placements(rng, probs, 4)]
        out.append((builder, strategies))
    return out


def test_strategy_digests_match(families):
    for builder, strategies in families:
        assert builder.context_fingerprint == reference_context(
            builder.graph, builder.cluster, builder.profile,
            use_order_scheduling=builder.use_order_scheduling)
        for strategy in strategies:
            expected = reference_strategy(builder.context_fingerprint,
                                          strategy)
            assert builder.fingerprint(strategy) == expected
            # the memoized digest, and the same strategy in another context
            assert builder.fingerprint(strategy) == expected
            assert fingerprint_strategy("other", strategy) \
                == reference_strategy("other", strategy)


def test_request_digests_match(families):
    for builder, strategies in families:
        config = HeteroGConfig(seed=3)
        for strategy in strategies[:3]:
            for measure in (None, 2):
                request = PlanRequest(graph=builder.graph,
                                      cluster=builder.cluster,
                                      strategy=strategy, config=config,
                                      measure_iterations=measure)
                assert request.context_key == reference_context_key(request)
                assert request.fingerprint == reference_request(request)
        search = PlanRequest(graph=builder.graph, cluster=builder.cluster,
                             episodes=3, max_rounds=2, config=config,
                             profile=builder.profile)
        assert search.context_key == reference_context_key(search)
        assert search.fingerprint == reference_request(search)


def test_partial_strategy_matches(families):
    builder, strategies = families[0]
    names = builder.graph.op_names
    partial = Strategy(builder.graph, builder.cluster,
                       {name: strategies[0].get(name)
                        for name in names[::3]})
    assert builder.fingerprint(partial) == reference_strategy(
        builder.context_fingerprint, partial)
    request = PlanRequest(graph=builder.graph, cluster=builder.cluster,
                          strategy=partial)
    assert request.fingerprint == reference_request(request)


def test_set_forgets_the_digest(families):
    builder, strategies = families[0]
    graph, cluster = builder.graph, builder.cluster
    strategy = Strategy(graph, cluster, dict(strategies[0].items()))
    before = builder.fingerprint(strategy)
    name = graph.op_names[0]
    swap = (make_mp_strategy("gpu3")
            if strategy.get(name) != make_mp_strategy("gpu3")
            else make_mp_strategy("gpu2"))
    strategy.set(name, swap)
    after = builder.fingerprint(strategy)
    assert after != before
    assert after == reference_strategy(builder.context_fingerprint, strategy)


def test_graph_mutation_changes_context_key():
    cluster = cluster_4gpu()
    graph = make_mlp(name="mutated")
    profile = exact_profile(graph, cluster)
    config = HeteroGConfig(seed=0)
    before = PlanRequest(graph=graph, cluster=cluster, config=config)
    context_before = fingerprint_context(graph, cluster, profile,
                                         use_order_scheduling=True)
    assert before.context_key == reference_context_key(before)

    # a name the JSON encoder must escape, on a new op and a new edge
    name = 'extra "op" é'
    graph.add_op(Operation(name, "Identity", TensorSpec((8, 16))),
                 inputs=[graph.op_names[0]])
    after = PlanRequest(graph=graph, cluster=cluster, config=config)
    assert after.context_key != before.context_key
    assert after.context_key == reference_context_key(after)
    context_after = fingerprint_context(graph, cluster, profile,
                                        use_order_scheduling=True)
    assert context_after != context_before
    assert context_after == reference_context(
        graph, cluster, profile, use_order_scheduling=True)

    graph.add_edge(graph.op_names[1], name)
    edged = PlanRequest(graph=graph, cluster=cluster, config=config)
    assert edged.context_key not in (before.context_key, after.context_key)
    assert edged.context_key == reference_context_key(edged)

    dp = make_dp_strategy(cluster, ReplicaAllocation.PROPORTIONAL,
                          CommMethod.ALLREDUCE)
    strategy = Strategy(graph, cluster,
                        {n: dp for n in graph.op_names})
    build = PlanRequest(graph=graph, cluster=cluster, strategy=strategy,
                        config=config)
    assert build.fingerprint == reference_request(build)
