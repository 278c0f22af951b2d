"""Paired test: the priced compile and its cut against the oracle walk.

``GraphCompiler(cost).compile(..., prune_above=limit)`` prices each
dist-op as it emits it, adds the price to the load of every resource the
op holds, and stops with :class:`LoadExceeded` once a load passes
``limit * (1 + PRUNE_GUARD)``.  The reference is the oracle compiler's
full compile (``tests/oracle``) walked in op order with the same prices:
the compile must be cut exactly when the walk crosses, after the same
number of ops and at a bound with the same bits, and a compile that is
not cut must equal the one without a limit.  The candidates are what a search
compiles: the exploration seeds, one cross-entropy round's samples and
one-group edits of uniform CP-AR, on every model family (tiny preset)
on four and eight GPUs.

The priced kernel must also be bit-identical to pricing afterwards:
durations as ``cost.prices(kernel)``, loads as their summation, and
``kernel_lower_bound`` as on a kernel lowered again from scratch.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from repro.agent import seed_action_vectors
from repro.agent.policy import (DP_ACTIONS, actions_to_strategy,
                                uniform_action_vector)
from repro.baselines import dp_strategy
from repro.baselines.post import sample_placements
from repro.cluster import cluster_4gpu, cluster_8gpu
from repro.errors import CompileError
from repro.graph.grouping import group_operations
from repro.graph.models import build_model, model_names
from repro.parallel import GraphCompiler
from repro.parallel import compiler as compiler_mod
from repro.parallel.strategy import CommMethod, ReplicaAllocation
from repro.profiling import Profiler
from repro.simulation import ProfileCostModel
from repro.simulation.kernel import (PRUNE_GUARD, LoadExceeded, Lowering,
                                     SimKernel, kernel_lower_bound, lower)

from tests.oracle import op_duration, resources
from tests.oracle.compiler import ReferenceCompiler

CLUSTERS = {"cluster_4gpu": cluster_4gpu, "cluster_8gpu": cluster_8gpu}
#: limits, as multiples of the candidate's busiest resource load
LIMIT_FACTORS = (0.5, 0.9, 1.0, 1.0000001, 1.5)
MAX_GROUPS = 12
CEM_SAMPLES = 12
EDITS = 20


@functools.lru_cache(maxsize=None)
def _context(model: str, cluster_name: str):
    graph = build_model(model, "tiny")
    cluster = CLUSTERS[cluster_name]()
    profile = Profiler(seed=0).profile(graph, cluster)
    grouping = group_operations(
        graph, {op.name: op.flops for op in graph}, MAX_GROUPS)
    return graph, cluster, profile, grouping


def _candidates(graph, cluster, grouping):
    """The seeds, one CEM round's samples from the uniform distribution,
    and one-group edits of uniform CP-AR, each distinct one once."""
    n, m = grouping.num_groups, cluster.num_devices
    vectors = list(seed_action_vectors(graph, cluster, grouping))
    vectors += list(sample_placements(np.random.default_rng(0),
                                      np.full((n, m), 1.0 / m), CEM_SAMPLES))
    cp_ar = uniform_action_vector(cluster, grouping,
                                  ReplicaAllocation.PROPORTIONAL,
                                  CommMethod.ALLREDUCE)
    rng = random.Random(0)
    for _ in range(EDITS):
        edit = list(cp_ar)
        edit[rng.randrange(n)] = rng.randrange(m + len(DP_ACTIONS))
        vectors.append(edit)
    distinct = dict.fromkeys(tuple(int(a) for a in v) for v in vectors)
    return [actions_to_strategy(graph, cluster, grouping, v)
            for v in distinct]


def _walk(ref_dist, cost):
    """Per op of the oracle's compile, in order, the loads its price
    takes its resources to (in the op's resource order), and the
    busiest load at the end."""
    loads, after = {}, []
    for op in ref_dist:
        d = op_duration(cost, op)
        reached = []
        for r in resources(op):
            load = loads[r] = loads.get(r, 0.0) + d
            reached.append(load)
        after.append(reached)
    return after, max(loads.values())


def _crossing(after, over):
    """``(index, load)`` of the first load in ``after`` past ``over``,
    or None when no load gets there."""
    for i, reached in enumerate(after):
        for load in reached:
            if load > over:
                return i, load
    return None


def _fields(dist):
    kernel = lower(dist)
    return (kernel.names, kernel.recipes, kernel.pred, kernel.succ,
            list(dist.resident_bytes.items()))


def _hex(values):
    return [v.hex() for v in values]


def _assert_priced_like_fresh(dist, cost, make_cost, top):
    """The priced kernel's arrays and bounds equal pricing afterwards,
    and its busiest load is the oracle walk's ``top``."""
    kernel = lower(dist)
    durations = kernel.durations_for(cost)
    assert _hex(durations) == _hex(make_cost().prices(kernel))
    loads = [0.0] * len(kernel.resource_names)
    for rids, d in zip(kernel.res_ids, durations):
        for r in rids:
            loads[r] += d
    assert _hex(kernel.loads_for(cost)) == _hex(loads)
    assert max(loads).hex() == top.hex()
    # a fresh lowering of the same graph, priced afterwards, asked the
    # same questions in the same order (a complete bound is cached)
    rebuilt, fresh = SimKernel(dist), make_cost()
    for factor in LIMIT_FACTORS + (None,):
        limit = None if factor is None else factor * top
        assert kernel_lower_bound(kernel, cost, limit).hex() == \
            kernel_lower_bound(rebuilt, fresh, limit).hex()


@pytest.mark.parametrize("cluster_name", sorted(CLUSTERS))
@pytest.mark.parametrize("model", model_names())
def test_cut_matches_oracle_walk(model, cluster_name):
    graph, cluster, profile, grouping = _context(model, cluster_name)
    cost = ProfileCostModel(cluster, profile)
    compiler = GraphCompiler(cost)
    cut_count = 0
    for strategy in _candidates(graph, cluster, grouping):
        try:
            ref = ReferenceCompiler(cluster, profile).compile(graph, strategy)
        except CompileError as exc:
            with pytest.raises(CompileError, match=str(exc)):
                compiler.compile(graph, strategy)
            continue
        plain = _fields(compiler.compile(graph, strategy))
        after, top = _walk(ref, cost)
        for factor in LIMIT_FACTORS:
            limit = factor * top
            crossing = _crossing(after, limit * (1.0 + PRUNE_GUARD))
            # only a limit below the busiest load can be crossed
            assert (crossing is not None) == (factor < 1.0)
            try:
                dist = compiler.compile(graph, strategy, prune_above=limit)
            except LoadExceeded as cut:
                assert crossing is not None
                assert cut.emitted == crossing[0] + 1
                assert cut.bound.hex() == crossing[1].hex()
                cut_count += 1
                continue
            assert crossing is None
            assert _fields(dist) == plain
            if factor == 1.0:
                _assert_priced_like_fresh(
                    dist, cost, lambda: ProfileCostModel(cluster, profile),
                    top)
    assert cut_count > 0


def test_priced_compile_is_not_priced_again():
    """A priced compile's kernel serves durations and loads from the
    arrays the compile built: the provider prices no whole kernel."""
    graph, cluster, profile, grouping = _context("inception_v3",
                                                 "cluster_4gpu")
    cost = ProfileCostModel(cluster, profile)
    strategy = _candidates(graph, cluster, grouping)[0]
    dist = GraphCompiler(cost).compile(graph, strategy)
    cost.prices = None   # any call would raise
    kernel = lower(dist)
    assert len(kernel.durations_for(cost)) == kernel.n
    assert len(kernel.loads_for(cost)) == len(kernel.resource_names)
    assert kernel_lower_bound(kernel, cost) > 0


def test_compile_outside_the_builder_arrives_priced(monkeypatch):
    """A compile made outside a PlanBuilder, as the fusion ablation makes
    one, is priced under the compiler's cost: the kernel serves the very
    duration and load lists the compile built."""
    graph, cluster, profile, _ = _context("inception_v3", "cluster_4gpu")
    lowerings = []

    class Recorded(Lowering):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            lowerings.append(self)

    monkeypatch.setattr(compiler_mod, "Lowering", Recorded)
    compiler = GraphCompiler(ProfileCostModel(cluster, profile),
                             bucket_bytes=None)
    dist = compiler.compile(graph, dp_strategy("EV-AR", graph, cluster))
    (lowering,) = lowerings
    kernel = lower(dist)
    assert kernel.durations_for(compiler.cost) is lowering.durations
    assert kernel.loads_for(compiler.cost) is lowering.loads
    assert len(lowering.durations) == kernel.n
