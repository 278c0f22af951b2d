"""Tests for AllReduce bucketing in the Graph Compiler.

Every property is checked on a small MLP, vgg19 and inception_v3 at the
tiny preset, each under EV-AR (one ring over four GPUs) and under a
two-ring strategy (the first half of the ops DP over gpu0 and gpu1, the
rest DP over all four), at no limit, a tight limit, the default and
1 GB.
"""

import pytest

from repro.baselines import dp_strategy
from repro.cluster import cluster_4gpu
from repro.errors import CompileError
from repro.graph.models import build_model
from repro.parallel import (
    CommMethod,
    DistOpKind,
    GraphCompiler,
    OpStrategy,
    ParallelKind,
    ReplicaAllocation,
    Strategy,
    make_dp_strategy,
)
from repro.parallel.compiler import ALLREDUCE_BUCKET_BYTES
from repro.runtime import ExecutionEngine
from repro.scheduling import ListScheduler
from repro.simulation import ProfileCostModel, Simulator

from tests.helpers import exact_profile, instances, make_mlp

GB = 10 ** 9


def _two_rings(graph, cluster) -> Strategy:
    pair = OpStrategy(ParallelKind.DP, replicas={"gpu0": 1, "gpu1": 1},
                      comm=CommMethod.ALLREDUCE,
                      allocation=ReplicaAllocation.EVEN)
    every = make_dp_strategy(cluster, ReplicaAllocation.EVEN,
                             CommMethod.ALLREDUCE)
    names = graph.op_names
    return Strategy(graph, cluster, {
        n: pair if i < len(names) // 2 else every
        for i, n in enumerate(names)})


def _replicated_gradients(graph, strategy):
    """Gradient name -> (its ring, its bytes), for every AllReduced
    gradient."""
    out = {}
    for op in graph:
        if op.produces_param_gradient:
            st = strategy.get(op.forward_ref)
            if len(st.devices()) > 1 and st.comm is CommMethod.ALLREDUCE:
                out[op.name] = (tuple(st.devices()), op.output.size_bytes)
    return out


@pytest.fixture(scope="module")
def cases():
    """(graph, replicated gradients, tight limit, compiled graph per
    limit, profile) for every model and strategy."""
    cluster = cluster_4gpu()
    out = []
    for graph in (make_mlp(layers=6, width=64, name="fuse_mlp"),
                  build_model("vgg19", "tiny"),
                  build_model("inception_v3", "tiny")):
        profile = exact_profile(graph, cluster)
        for strategy in (dp_strategy("EV-AR", graph, cluster),
                         _two_rings(graph, cluster)):
            grads = _replicated_gradients(graph, strategy)
            sizes = sorted(nbytes for _, nbytes in grads.values())
            tight = sizes[-1] + sizes[0] - 1  # the two largest never fit
            cost = ProfileCostModel(cluster, profile)
            compiled = {limit: GraphCompiler(
                cost, bucket_bytes=limit).compile(graph, strategy)
                for limit in (None, tight, ALLREDUCE_BUCKET_BYTES, GB)}
            out.append((graph, grads, tight, compiled, profile))
    return out


def _collectives(dist):
    return [op for op in dist if op.kind is DistOpKind.ALLREDUCE]


def _members(dist, collective):
    """Names of the training ops whose applies follow ``collective``."""
    return list(dict.fromkeys(
        dist.op(s).source_op.name for s in dist.successors(collective.name)))


class TestFusion:
    def test_total_bytes_preserved(self, cases):
        """Per ring, the collectives carry every replicated gradient's
        bytes."""
        for _, grads, _, compiled, _ in cases:
            expect = {}
            for ring, nbytes in grads.values():
                expect[ring] = expect.get(ring, 0.0) + nbytes
            for dist in compiled.values():
                total = {}
                for op in _collectives(dist):
                    total[op.devices] = total.get(op.devices, 0.0) + \
                        op.size_bytes
                assert total == pytest.approx(expect, rel=1e-12)

    def test_bucket_size_respected(self, cases):
        """No bucket of more than one gradient exceeds the limit."""
        fused = 0
        for _, _, tight, compiled, _ in cases:
            for limit in (tight, ALLREDUCE_BUCKET_BYTES):
                for op in _collectives(compiled[limit]):
                    if len(_members(compiled[limit], op)) > 1:
                        fused += 1
                        assert op.size_bytes <= limit
        assert fused  # some bucket held more than one gradient

    def test_graph_stays_acyclic_and_complete(self, cases):
        """Every gradient instance precedes exactly one collective, and
        fusion changes nothing but the collectives."""
        for _, grads, _, compiled, _ in cases:
            unfused = compiled[None]
            others = len(unfused) - len(_collectives(unfused))
            for dist in compiled.values():
                dist.validate()
                assert len(dist) - len(_collectives(dist)) == others
                for name in grads:
                    for inst in instances(dist)[name]:
                        kinds = [dist.op(s).kind
                                 for s in dist.successors(inst)]
                        assert kinds.count(DistOpKind.ALLREDUCE) == 1

    def test_applies_rewired_to_fused_node(self, cases):
        """Every apply follows its own gradient's collective."""
        for graph, grads, _, compiled, _ in cases:
            for dist in compiled.values():
                for grad, (ring, _) in grads.items():
                    (collective,) = {
                        s for inst in instances(dist)[grad]
                        for s in dist.successors(inst)
                        if dist.op(s).kind is DistOpKind.ALLREDUCE}
                    (apply_name,) = graph.successors(grad)
                    applies = instances(dist)[apply_name]
                    assert len(applies) == len(ring)
                    for name in applies:
                        assert dist.predecessors(name) == [collective]

    def test_reduces_collective_count(self, cases):
        """A 1 GB limit gives one collective per ring."""
        for _, grads, _, compiled, _ in cases:
            rings = {ring for ring, _ in grads.values()}
            fused = _collectives(compiled[GB])
            assert sorted(op.devices for op in fused) == sorted(rings)
            assert len(fused) < len(_collectives(compiled[None]))

    def test_unfused_gives_one_collective_per_gradient(self, cases):
        for _, grads, _, compiled, _ in cases:
            dist = compiled[None]
            collectives = _collectives(dist)
            assert len(collectives) == len(grads)
            for op in collectives:
                assert len(_members(dist, op)) == 1

    def test_invalid_bucket(self):
        cluster = cluster_4gpu()
        cost = ProfileCostModel(cluster, exact_profile(
            make_mlp(name="bucket_mlp"), cluster))
        with pytest.raises(CompileError):
            GraphCompiler(cost, bucket_bytes=0)

    def test_simulation_still_runs(self, cases):
        """The simulator and the execution engine order every fused plan
        against its unfused plan the same way."""
        cluster = cluster_4gpu()
        for _, _, _, compiled, profile in cases:
            cost = ProfileCostModel(cluster, profile)
            sim, engine = {}, {}
            for limit in (None, ALLREDUCE_BUCKET_BYTES):
                dist = compiled[limit]
                schedule = ListScheduler().schedule(dist, cost)
                sim[limit] = Simulator(cost).run(
                    dist, order=schedule.order).makespan
                engine[limit] = ExecutionEngine(
                    cluster, jitter_sigma=0.0).run_iteration(
                        dist, schedule, dist.resident_bytes).makespan
            assert min(sim.values()) > 0
            assert ((sim[ALLREDUCE_BUCKET_BYTES] < sim[None])
                    == (engine[ALLREDUCE_BUCKET_BYTES] < engine[None]))

    def test_moderate_fusion_helps_many_small_gradients(self):
        """The Horovod-fusion effect: a deep stack of small gradients runs
        faster with bucketing (launch overhead amortized)."""
        cluster = cluster_4gpu()
        graph = make_mlp(layers=12, width=64, name="fuse_deep_mlp")
        profile = exact_profile(graph, cluster)
        strategy = dp_strategy("EV-AR", graph, cluster)
        cost = ProfileCostModel(cluster, profile)

        def run(bucket_bytes):
            dist = GraphCompiler(cost, bucket_bytes=bucket_bytes).compile(
                graph, strategy)
            schedule = ListScheduler().schedule(dist, cost)
            return Simulator(cost).run(dist, order=schedule.order).makespan

        assert run(ALLREDUCE_BUCKET_BYTES) < run(None)
