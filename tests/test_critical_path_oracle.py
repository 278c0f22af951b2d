"""The array walk of :func:`repro.telemetry.critical_path` against the
name-keyed walk it replaced (:mod:`tests.oracle.critical_path`).

Every exploration seed and the memory ladder of every model family
(tiny preset, four GPUs) is built and walked, from the result's arrays
and from its name-keyed schedule, complete, truncated as by a device
lost mid-iteration, and cut short by pruning.  Blame, segments and the
idle breakdown must be equal, dict key order included.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.agent.policy import actions_to_strategy
from repro.agent.seeds import memory_ladder_strategy, seed_action_vectors
from repro.cluster import cluster_4gpu
from repro.graph.grouping import group_operations
from repro.graph.models import build_model, model_names
from repro.plan import PlanBuilder
from repro.simulation import Simulator
from repro.simulation.kernel import lower
from repro.telemetry import critical_path

from tests.helpers import exact_profile
from tests.oracle.critical_path import reference_critical_path


def _seed_plans(model: str):
    cluster = cluster_4gpu()
    graph = build_model(model, "tiny")
    grouping = group_operations(graph, {op.name: op.flops for op in graph}, 8)
    builder = PlanBuilder(graph, cluster, exact_profile(graph, cluster))
    strategies = [actions_to_strategy(graph, cluster, grouping, seed)
                  for seed in seed_action_vectors(graph, cluster, grouping)]
    strategies.append(memory_ladder_strategy(graph, cluster))
    return builder, [builder.build(s) for s in strategies]


def _assert_same(dist, result) -> None:
    walked = critical_path(dist, result)
    reference = reference_critical_path(dist, result)
    assert list(walked.blame.items()) == list(reference.blame.items())
    assert walked.segments == reference.segments
    assert list(walked.per_resource_idle.items()) \
        == list(reference.per_resource_idle.items())
    assert list(walked.idle_gaps.items()) \
        == list(reference.idle_gaps.items())


def _device_lost(plan, device: str):
    """The plan's trace as if ``device`` was lost halfway: every op on
    it that would have finished later is missing, and the iteration is
    still accounted at the full makespan."""
    kernel = lower(plan.dist)
    result = plan.sim_result
    cut = result.makespan / 2
    lost = {kernel.names[i] for i in range(kernel.n)
            if device in (kernel.resource_names[r]
                          for r in kernel.res_ids[i])}
    schedule = {name: (start, end)
                for name, (start, end) in result.schedule.items()
                if name not in lost or end <= cut}
    return SimpleNamespace(makespan=result.makespan, schedule=schedule)


@pytest.mark.parametrize("model", model_names())
def test_walk_matches_reference(model):
    builder, plans = _seed_plans(model)
    simulator = Simulator(builder.cost)
    for plan in plans:
        result = plan.sim_result
        _assert_same(plan.dist, result)
        _assert_same(plan.dist, SimpleNamespace(
            makespan=result.makespan, schedule=result.schedule))
        _assert_same(plan.dist, _device_lost(plan, "gpu1"))
        pruned = simulator.run(
            plan.dist, order=plan.schedule.order,
            resident_bytes=plan.resident_bytes,
            capacities=plan.capacities, prune_above=result.makespan / 2)
        if pruned.pruned:
            _assert_same(plan.dist, pruned)


@pytest.mark.parametrize("model", ["vgg19", "transformer"])
def test_walk_by_names_matches_reference(model, monkeypatch):
    """The walk with every op ranked one candidate at a time, as it
    ranks an op whose candidates tie."""
    module = sys.modules["repro.telemetry.critical_path"]
    rank = module._rank_blockers
    monkeypatch.setattr(
        module, "_rank_blockers", lambda kernel, *rest: (
            rank(kernel, *rest)[0], np.ones(kernel.n, dtype=bool)))
    _, plans = _seed_plans(model)
    for plan in plans:
        _assert_same(plan.dist, plan.sim_result)
        _assert_same(plan.dist, _device_lost(plan, "gpu1"))


def test_plan_walks_once(monkeypatch):
    """A plan's blame fractions are its walk's, taken on first read and
    kept."""
    import repro.plan.plan as plan_module

    _, plans = _seed_plans("vgg19")
    plan = plans[0]
    walks = []
    walk = plan_module.critical_path
    monkeypatch.setattr(plan_module, "critical_path",
                        lambda *args: walks.append(args) or walk(*args))
    first = plan.blame_fractions
    assert plan.blame_fractions is first
    assert len(walks) == 1
    makespan = plan.sim_result.makespan
    reference = reference_critical_path(plan.dist, plan.sim_result)
    assert list(first.items()) == [(k, v / makespan)
                                   for k, v in reference.blame.items()]
