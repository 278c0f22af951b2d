"""Tests for the Graph Compiler (replication, routing, aggregation)."""

import pytest

from repro.graph.op import OpPhase
from repro.parallel import (
    CommMethod,
    DistOpKind,
    GraphCompiler,
    ParallelKind,
    ReplicaAllocation,
    make_dp_strategy,
    make_mp_strategy,
    single_device_strategy,
    uniform_strategy,
)


def compile_with(graph, cluster, strategy, profile=None):
    compiler = GraphCompiler(cluster, profile)
    return compiler, compiler.compile(graph, strategy)


class TestSingleDevice:
    def test_no_communication(self, mlp_graph, four_gpu):
        _, dist = compile_with(mlp_graph, four_gpu,
                               single_device_strategy(mlp_graph, four_gpu))
        assert not dist.communication_ops()

    def test_one_instance_per_op(self, mlp_graph, four_gpu):
        _, dist = compile_with(mlp_graph, four_gpu,
                               single_device_strategy(mlp_graph, four_gpu))
        # every original op appears exactly once (no split/concat needed)
        compute = [o for o in dist if o.kind in
                   (DistOpKind.COMPUTE, DistOpKind.APPLY)]
        assert len(compute) == len(mlp_graph)

    def test_resident_memory_on_one_device(self, mlp_graph, four_gpu):
        _, dist = compile_with(
            mlp_graph, four_gpu, single_device_strategy(mlp_graph, four_gpu)
        )
        from repro.profiling.cost_model import RESIDENT_OVERHEAD
        resident = dist.resident_bytes
        assert resident["gpu0"] == pytest.approx(
            RESIDENT_OVERHEAD * mlp_graph.total_param_bytes(), rel=0.01)
        assert all(resident[d] == 0 for d in ("gpu1", "gpu2", "gpu3"))


class TestDataParallel:
    def test_even_replication_instances(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        # each replicable op has one instance per device
        for op in mlp_graph:
            if op.is_replicable and op.phase is not OpPhase.APPLY:
                assert len(dist.instances[op.name]) == 4

    def test_allreduce_per_param_gradient(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        pgrads = [o for o in mlp_graph if o.produces_param_gradient]
        collectives = [o for o in dist if o.kind is DistOpKind.ALLREDUCE]
        assert len(collectives) == len(pgrads)

    def test_allreduce_followed_by_local_applies(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        for op in dist:
            if op.kind is DistOpKind.ALLREDUCE:
                succ = [dist.op(s) for s in dist.successors(op.name)]
                assert len(succ) == 4
                assert all(s.kind is DistOpKind.APPLY for s in succ)

    def test_ps_chain_structure(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.PS))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        aggregates = [o for o in dist if o.kind is DistOpKind.AGGREGATE]
        pgrads = [o for o in mlp_graph if o.produces_param_gradient]
        assert len(aggregates) == len(pgrads)
        for agg in aggregates:
            # 3 pushes in (PS colocated with the 4th replica)
            pushes = [dist.op(p) for p in dist.predecessors(agg.name)
                      if dist.op(p).kind is DistOpKind.TRANSFER]
            assert len(pushes) == 3
            # one apply out, then pulls to the other devices
            (apply_name,) = dist.successors(agg.name)
            apply_op = dist.op(apply_name)
            assert apply_op.kind is DistOpKind.APPLY
            pulls = [dist.op(s) for s in dist.successors(apply_name)]
            assert len(pulls) == 3
            assert all(p.kind is DistOpKind.TRANSFER for p in pulls)

    def test_no_aggregation_without_replication(self, mlp_graph, four_gpu):
        _, dist = compile_with(mlp_graph, four_gpu,
                               single_device_strategy(mlp_graph, four_gpu))
        kinds = dist.counts_by_kind()
        assert DistOpKind.ALLREDUCE not in kinds
        assert DistOpKind.AGGREGATE not in kinds

    def test_dp_params_resident_everywhere(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        from repro.profiling.cost_model import RESIDENT_OVERHEAD
        _, dist = compile_with(mlp_graph, four_gpu, st)
        expect = RESIDENT_OVERHEAD * mlp_graph.total_param_bytes()
        for dev in four_gpu.device_ids:
            assert dist.resident_bytes[dev] == pytest.approx(expect,
                                                                 rel=0.01)


class TestMixedStrategies:
    def test_mp_island_gets_transfers(self, mlp_graph, four_gpu):
        """DP everywhere except one op pinned to gpu3 -> split/concat or
        transfers must appear around the island."""
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        # pin one middle forward op
        target = [o for o in mlp_graph
                  if o.phase is OpPhase.FORWARD and o.param_bytes][1]
        st.set(target.name, make_mp_strategy("gpu3"))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        assert len(dist.instances[target.name]) == 1
        kinds = dist.counts_by_kind()
        assert kinds.get(DistOpKind.SPLIT, 0) >= 1
        assert kinds.get(DistOpKind.CONCAT, 0) >= 1

    def test_mp_op_has_no_gradient_aggregation(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        target = [o for o in mlp_graph
                  if o.phase is OpPhase.FORWARD and o.param_bytes][0]
        st.set(target.name, make_mp_strategy("gpu2"))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        # the pinned op's gradient op must have no collective
        pgrad = f"{target.name}_pgrad"
        for succ in dist.successors(dist.instances[pgrad][0]):
            assert dist.op(succ).kind is not DistOpKind.ALLREDUCE

    def test_aligned_replicas_no_transfers(self, mlp_graph, four_gpu):
        """Adjacent ops with identical allocations connect directly."""
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.PROPORTIONAL, CommMethod.ALLREDUCE))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        # forward chain is uniformly CP: no split/concat in forward part
        splits = [o for o in dist if o.kind is DistOpKind.SPLIT]
        assert not splits

    def test_pgrad_follows_forward_strategy(self, mlp_graph, four_gpu):
        """Param-grad ops canonically inherit the forward op's placement."""
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        fwd = [o for o in mlp_graph
               if o.phase is OpPhase.FORWARD and o.param_bytes][0]
        st.set(fwd.name, make_mp_strategy("gpu1"))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        pgrad_instances = dist.instances[f"{fwd.name}_pgrad"]
        assert len(pgrad_instances) == 1
        assert dist.op(pgrad_instances[0]).device == "gpu1"


class TestResources:
    def test_transfer_seizes_nics_across_servers(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.PS))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        cross = [o for o in dist if o.kind is DistOpKind.TRANSFER
                 and not four_gpu.same_server(o.src_device, o.dst_device)]
        assert cross
        for op in cross:
            resources = op.resources()
            assert any(r.startswith("nic_out:") for r in resources)
            assert any(r.startswith("nic_in:") for r in resources)

    def test_intra_server_transfer_no_nic(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.PS))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        intra = [o for o in dist if o.kind is DistOpKind.TRANSFER
                 and four_gpu.same_server(o.src_device, o.dst_device)]
        for op in intra:
            assert not any("nic" in r for r in op.resources())

    def test_allreduce_seizes_nccl(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        for op in dist:
            if op.kind is DistOpKind.ALLREDUCE:
                assert "nccl" in op.resources()

    def test_dist_graph_is_dag(self, tiny_vgg, four_gpu, vgg_profile):
        st = uniform_strategy(tiny_vgg, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.PROPORTIONAL, CommMethod.PS))
        _, dist = compile_with(tiny_vgg, four_gpu, st, vgg_profile)
        dist.validate()
