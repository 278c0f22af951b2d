"""Tests for the gradient-fusion extension."""

import pytest

from repro.baselines import dp_strategy
from repro.cluster import cluster_4gpu
from repro.errors import CompileError
from repro.parallel import DistOpKind, GraphCompiler
from repro.parallel.fusion import count_collectives, fuse_allreduces
from repro.profiling import exact_profile
from repro.scheduling import ListScheduler
from repro.simulation import ProfileCostModel, Simulator

from tests.helpers import make_mlp


@pytest.fixture(scope="module")
def compiled():
    cluster = cluster_4gpu()
    graph = make_mlp(layers=6, width=64, name="fuse_mlp")
    profile = exact_profile(graph, cluster)
    compiler = GraphCompiler(cluster, profile)
    dist = compiler.compile(graph, dp_strategy("EV-AR", graph, cluster))
    return cluster, profile, dist


class TestFusion:
    def test_reduces_collective_count(self, compiled):
        _, _, dist = compiled
        fused = fuse_allreduces(dist, bucket_bytes=10 ** 9)
        assert count_collectives(fused) < count_collectives(dist)
        assert count_collectives(fused) == 1  # one ring, huge bucket

    def test_total_bytes_preserved(self, compiled):
        _, _, dist = compiled
        fused = fuse_allreduces(dist, bucket_bytes=10 ** 9)
        orig = sum(o.size_bytes for o in dist
                   if o.kind is DistOpKind.ALLREDUCE)
        new = sum(o.size_bytes for o in fused
                  if o.kind is DistOpKind.ALLREDUCE)
        assert new == pytest.approx(orig)

    def test_bucket_size_respected(self, compiled):
        _, _, dist = compiled
        sizes = sorted(o.size_bytes for o in dist
                       if o.kind is DistOpKind.ALLREDUCE)
        limit = sizes[-1] + sizes[0] - 1  # can never fit two largest
        fused = fuse_allreduces(dist, bucket_bytes=int(limit))
        for op in fused:
            if op.kind is DistOpKind.ALLREDUCE:
                # single oversized members allowed, pairs must fit
                assert op.size_bytes <= limit or "(x" not in op.name

    def test_graph_stays_acyclic_and_complete(self, compiled):
        _, _, dist = compiled
        fused = fuse_allreduces(dist, bucket_bytes=1 << 20)
        fused.validate()
        non_ar = sum(1 for o in dist if o.kind is not DistOpKind.ALLREDUCE)
        non_ar_fused = sum(1 for o in fused
                           if o.kind is not DistOpKind.ALLREDUCE)
        assert non_ar == non_ar_fused

    def test_applies_rewired_to_fused_node(self, compiled):
        _, _, dist = compiled
        fused = fuse_allreduces(dist, bucket_bytes=10 ** 9)
        (collective,) = [o for o in fused
                         if o.kind is DistOpKind.ALLREDUCE]
        succs = [fused.op(s) for s in fused.successors(collective.name)]
        assert succs
        assert all(s.kind is DistOpKind.APPLY for s in succs)

    def test_invalid_bucket(self, compiled):
        _, _, dist = compiled
        with pytest.raises(CompileError):
            fuse_allreduces(dist, bucket_bytes=0)

    def test_simulation_still_runs(self, compiled):
        cluster, profile, dist = compiled
        fused = fuse_allreduces(dist, bucket_bytes=1 << 22)
        cost = ProfileCostModel(cluster, profile)
        schedule = ListScheduler().schedule(fused, cost)
        result = Simulator(cost).run(fused, order=schedule.order)
        assert result.makespan > 0

    def test_moderate_fusion_helps_many_small_gradients(self):
        """The Horovod-fusion effect: a deep stack of small gradients runs
        faster with bucketing (launch overhead amortized)."""
        cluster = cluster_4gpu()
        graph = make_mlp(layers=12, width=64, name="fuse_deep_mlp")
        profile = exact_profile(graph, cluster)
        compiler = GraphCompiler(cluster, profile)
        dist = compiler.compile(graph, dp_strategy("EV-AR", graph, cluster))
        cost = ProfileCostModel(cluster, profile)

        def run(g):
            schedule = ListScheduler().schedule(g, cost)
            return Simulator(cost).run(g, order=schedule.order).makespan

        base = run(dist)
        fused = run(fuse_allreduces(dist, bucket_bytes=1 << 20))
        assert fused < base
