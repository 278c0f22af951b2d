"""Tests for the Graph Compiler (replication, routing, aggregation)."""

import pytest

from repro.graph.op import OpPhase
from repro.parallel import (
    CommMethod,
    DistOpKind,
    GraphCompiler,
    ReplicaAllocation,
    make_dp_strategy,
    make_mp_strategy,
    single_device_strategy,
    uniform_strategy,
)
from repro.simulation import ProfileCostModel

from tests.helpers import exact_profile, instances
from tests.oracle import resources


def compile_with(graph, cluster, strategy, profile=None, **kwargs):
    if profile is None:
        profile = exact_profile(graph, cluster)
    compiler = GraphCompiler(ProfileCostModel(cluster, profile), **kwargs)
    return compiler, compiler.compile(graph, strategy)


class TestSingleDevice:
    def test_no_communication(self, mlp_graph, four_gpu):
        _, dist = compile_with(mlp_graph, four_gpu,
                               single_device_strategy(mlp_graph, four_gpu))
        assert not any(o.is_communication for o in dist)

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
                assert len(instances(dist)[op.name]) == 4

    def test_allreduce_per_param_gradient(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        _, dist = compile_with(mlp_graph, four_gpu, st, bucket_bytes=None)
        pgrads = [o for o in mlp_graph if o.produces_param_gradient]
        collectives = [o for o in dist if o.kind is DistOpKind.ALLREDUCE]
        assert len(collectives) == len(pgrads)

    def test_allreduce_followed_by_local_applies(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        _, dist = compile_with(mlp_graph, four_gpu, st, bucket_bytes=None)
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
        assert len(instances(dist)[target.name]) == 1
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
        for succ in dist.successors(instances(dist)[pgrad][0]):
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
        pgrad_instances = instances(dist)[f"{fwd.name}_pgrad"]
        assert len(pgrad_instances) == 1
        assert dist.op(pgrad_instances[0]).device == "gpu1"


class TestResources:
    def test_duplicate_dist_op_name_rejected(self, mlp_graph, four_gpu,
                                             monkeypatch):
        from repro.errors import CompileError
        from repro.parallel.compiler import _Compilation
        monkeypatch.setattr(_Compilation, "fresh", lambda self, prefix: "x")
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        # one collective per gradient: every one of them is named "x"
        with pytest.raises(CompileError, match="duplicate dist-op name 'x'"):
            compile_with(mlp_graph, four_gpu, st, bucket_bytes=None)

    def test_transfer_seizes_nics_across_servers(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.PS))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        cross = [o for o in dist if o.kind is DistOpKind.TRANSFER
                 and four_gpu.device(o.src_device).server
                 != four_gpu.device(o.dst_device).server]
        assert cross
        for op in cross:
            held = resources(op)
            assert any(r.startswith("nic_out:") for r in held)
            assert any(r.startswith("nic_in:") for r in held)

    def test_intra_server_transfer_no_nic(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.PS))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        intra = [o for o in dist if o.kind is DistOpKind.TRANSFER
                 and four_gpu.device(o.src_device).server
                 == four_gpu.device(o.dst_device).server]
        for op in intra:
            assert not any("nic" in r for r in resources(op))

    def test_allreduce_seizes_nccl(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        _, dist = compile_with(mlp_graph, four_gpu, st)
        for op in dist:
            if op.kind is DistOpKind.ALLREDUCE:
                assert "nccl" in resources(op)

    def test_dist_graph_is_dag(self, tiny_vgg, four_gpu, vgg_profile):
        st = uniform_strategy(tiny_vgg, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.PROPORTIONAL, CommMethod.PS))
        _, dist = compile_with(tiny_vgg, four_gpu, st, vgg_profile)
        dist.validate()


# --------------------------------------------------------------------- #
# the compiled graph is a view of its kernel
# --------------------------------------------------------------------- #
def _small_agent(seed: int = 0):
    from repro.agent import AgentConfig
    return AgentConfig(max_groups=8, gat_hidden=16, gat_layers=2,
                       gat_heads=2, strategy_dim=16, strategy_heads=2,
                       strategy_layers=1, seed=seed)


def _fields(dist):
    """Everything a materialised graph holds, comparable across copies."""
    ops = [(op.name, op.kind, op.source_op.name if op.source_op else None,
            op.device, op.src_device, op.dst_device, op.devices,
            op.size_bytes, op.batch_fraction, op.hierarchical,
            op.extra_resources) for op in dist]
    return (dist.name, ops, dist._pred_ids, dist._succ_ids,
            list(instances(dist).items()), dist.version,
            list(dist.resident_bytes.items()))


@pytest.fixture
def materialised(monkeypatch):
    """Names of the compiled graphs whose ``DistOp`` objects get built."""
    from repro.parallel.distgraph import DistGraph
    built = []
    materialize = DistGraph._materialize

    def spy(self):
        if self._ops is None:
            built.append(self.name)
        return materialize(self)

    monkeypatch.setattr(DistGraph, "_materialize", spy)
    return built


class TestCompiledView:
    @pytest.fixture
    def view(self, tiny_vgg, four_gpu, vgg_profile):
        strategy = uniform_strategy(tiny_vgg, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.PROPORTIONAL, CommMethod.PS))
        return GraphCompiler(ProfileCostModel(four_gpu, vgg_profile)).compile(
            tiny_vgg, strategy)

    def test_cheap_accessors_do_not_materialise(self, view, materialised):
        from repro.simulation.kernel import lower
        names = view.op_names
        assert len(view) == len(names) > 0
        assert names[0] in view and "no such op" not in view
        assert view.version == lower(view).version > len(view)
        assert view.name.endswith(":distributed")
        assert sum(view.resident_bytes.values()) > 0
        view.validate()
        assert materialised == []
        ops = list(view)
        assert materialised == [view.name]
        assert view.op(names[-1]) is ops[-1] and list(view) == ops
        kernel_ops = lower(view).ops
        assert len(kernel_ops) == len(ops)
        assert all(a is b for a, b in zip(kernel_ops, ops))
        assert materialised == [view.name]

    def test_mutation_materialises_then_relowers(self, view):
        from repro.parallel.distgraph import DistOp
        from repro.simulation.kernel import lower
        kernel, version = lower(view), view.version
        last = view.op_names[-1]
        view.add(DistOp("extra", DistOpKind.SPLIT, device="gpu0"), [last])
        assert view._ops is not None and view.version == version + 2
        relowered = lower(view)
        assert relowered is not kernel and relowered.n == kernel.n + 1
        assert relowered.pred[-1] == (kernel.n - 1,)
        assert view.successors(last) == ["extra"]

    def test_search_loop_never_materialises(self, four_gpu, materialised):
        """A pruning population search, a REINFORCE search and an
        engine-measured build, all through the public entry points:
        compile, bound, rank, simulate, truth pricing and the service's
        critical-path blame all read the kernel."""
        from repro.baselines import PostSearch
        from repro.config import HeteroGConfig
        from repro.graph.models import build_model
        from repro.service import PlanningService, PlanRequest
        graph = build_model("inception_v3", "tiny")
        search = PostSearch(graph, four_gpu, max_groups=8, seed=0)
        search.search(rounds=2, samples_per_round=8)
        builder = search.builder
        assert 0 < builder.evals_pruned < builder.evals_total
        config = HeteroGConfig(seed=0, agent=_small_agent())
        found = None
        with PlanningService(workers=0, name="view") as service:
            for request in (
                    PlanRequest(graph=graph, cluster=four_gpu, episodes=2,
                                config=config),
                    PlanRequest(graph=graph, cluster=four_gpu,
                                strategy=uniform_strategy(
                                    graph, four_gpu, make_mp_strategy("gpu1")),
                                measure_iterations=2, config=config)):
                found = service.plan(request)
                assert service.recorder.get(request.request_id).blame
        assert found.measured_time is not None
        assert materialised == []

    def test_concurrent_first_access_builds_once(self, tiny_vgg, four_gpu,
                                                 vgg_profile):
        import os
        import sys
        import threading
        compiler = GraphCompiler(ProfileCostModel(four_gpu, vgg_profile))
        strategy = uniform_strategy(tiny_vgg, four_gpu, make_dp_strategy(
            four_gpu, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        expected = _fields(compiler.compile(tiny_vgg, strategy))
        workers = 4 * (os.cpu_count() or 1) + 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                view = compiler.compile(tiny_vgg, strategy)
                barrier = threading.Barrier(workers, timeout=30)
                seen = [None] * workers

                def first_access(k):
                    barrier.wait()
                    seen[k] = (list(view), view._succ_ids, view._pred_ids)

                threads = [threading.Thread(target=first_access, args=(k,))
                           for k in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                ops, succs, preds = seen[0]
                for other in seen:
                    assert all(a is b for a, b in zip(other[0], ops))
                    assert other[1] is succs and other[2] is preds
                assert _fields(view) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_pickled_view_materialises_to_same_graph(self, view):
        import pickle
        from repro.simulation.kernel import lower
        copy = pickle.loads(pickle.dumps(view))
        assert copy._ops is None and len(copy) == len(view)
        assert lower(copy).version == copy.version
        assert _fields(copy) == _fields(view)
        again = pickle.loads(pickle.dumps(view))  # now materialised
        assert _fields(again) == _fields(view)

    @pytest.mark.parametrize("model,preset", [("vgg19", "tiny"),
                                              ("inception_v3", "bench")])
    def test_cached_plan_retains_few_tracked_objects(self, four_gpu, model,
                                                     preset):
        """Objects the garbage collector tracks, kept per cached plan.
        The bound holds on two graph sizes, so it cannot grow with the
        dist-op count (one ``DistOp`` per dist-op kept thousands)."""
        import gc
        from repro.graph.models import build_model
        from repro.parallel.strategy import Strategy
        from repro.plan import PlanBuilder
        from repro.profiling import Profiler
        graph = build_model(model, preset)
        builder = PlanBuilder(graph, four_gpu,
                              Profiler(seed=0).profile(graph, four_gpu))
        options = [make_dp_strategy(four_gpu, alloc, comm)
                   for alloc in ReplicaAllocation for comm in CommMethod]
        options += [make_mp_strategy(d) for d in four_gpu.device_ids]
        names = graph.op_names
        strategies = [Strategy(graph, four_gpu, {
            n: options[(i * 4 // len(names) + k) % len(options)]
            for i, n in enumerate(names)}) for k in range(6)]
        builder.evaluate(strategies.pop())  # warm the per-graph tables
        gc.collect()
        before = len(gc.get_objects())
        dist_ops = sum(builder.evaluate(s).dist_ops for s in strategies)
        gc.collect()
        per_plan = (len(gc.get_objects()) - before) / len(strategies)
        assert dist_ops / len(strategies) > 700
        assert per_plan < 64
