"""Additional engine/cost edge-case tests."""

import numpy as np
import pytest

from repro.cluster import GBPS, NVLINK, TESLA_V100, Cluster, LinkSpec, ServerSpec
from repro.errors import SimulationError
from repro.parallel.distgraph import DistGraph, DistOp, DistOpKind
from repro.profiling import Profiler
from repro.simulation import Simulator, TruthCostModel, lower
from repro.simulation.costs import MappingCostModel, ProfileCostModel

from tests.helpers import make_mlp


def price(cost, op):
    """``op``'s duration under ``cost``, priced as a one-op kernel."""
    g = DistGraph(op.name)
    g.add(op)
    return cost.prices(lower(g))[0]


def compute(name, device):
    return DistOp(name=name, kind=DistOpKind.COMPUTE, device=device)


class TestEngineEdgeCases:
    def test_parked_op_retried_on_second_resource(self):
        """An op blocked on two resources must run once both free."""
        g = DistGraph("g")
        g.add(compute("hold1", "d0"))
        g.add(compute("hold2", "d1"))
        g.add(DistOp(name="ar", kind=DistOpKind.ALLREDUCE,
                     devices=("d0", "d1")))
        # ar needs links d0->d1, d1->d0 + nccl; holds occupy the devices
        # (not the links) so ar runs immediately in parallel
        res = Simulator(MappingCostModel(
            {"hold1": 5.0, "hold2": 3.0, "ar": 1.0}
        )).run(g)
        assert res.makespan == pytest.approx(5.0)

    def test_transfer_contends_with_allreduce_links(self):
        g = DistGraph("g")
        g.add(DistOp(name="ar", kind=DistOpKind.ALLREDUCE,
                     devices=("d0", "d1")))
        g.add(DistOp(name="t", kind=DistOpKind.TRANSFER,
                     src_device="d0", dst_device="d1"))
        res = Simulator(MappingCostModel({"ar": 2.0, "t": 2.0})).run(g)
        # t uses link d0->d1 which the allreduce ring seizes
        assert res.makespan == pytest.approx(4.0)

    def test_priority_respected_among_parked_waiters(self):
        g = DistGraph("g")
        g.add(compute("first", "d0"))
        g.add(compute("low", "d0"))
        g.add(compute("high", "d0"))
        g.add(compute("after_high", "d1"), ["high"])
        durations = {"first": 1.0, "low": 5.0, "high": 1.0,
                     "after_high": 5.0}
        # by op index: first 0, low 2, high 1, after_high 3
        res = Simulator(MappingCostModel(durations)).run(
            g, order=[0, 2, 1, 3])
        # high (priority 1) runs before low -> after_high finishes at 7
        assert res.makespan == pytest.approx(7.0)

    def test_strict_mode_head_blocking(self):
        """Strict order: a ready op waits for the earlier-priority op on
        its resource even though the resource is free."""
        g = DistGraph("g")
        g.add(compute("a", "d1"))
        g.add(compute("b", "d0"), ["a"])   # priority 1, ready at t=1
        g.add(compute("c", "d0"))          # priority 2, ready at t=0
        durations = {"a": 1.0, "b": 1.0, "c": 1.0}
        order = [0, 1, 2]
        relaxed = Simulator(MappingCostModel(durations)).run(
            g, order=order)
        strict = Simulator(MappingCostModel(durations)).run(
            g, order=order, strict=True)
        assert relaxed.makespan == pytest.approx(2.0)  # c fills the idle d0
        assert strict.makespan == pytest.approx(3.0)   # d0 waits for b

    def test_duplicate_distop_rejected(self):
        g = DistGraph("g")
        g.add(compute("a", "d0"))
        from repro.errors import CompileError
        with pytest.raises(CompileError):
            g.add(compute("a", "d0"))

    def test_cycle_in_dist_graph_detected(self):
        g = DistGraph("g")
        g.add(compute("a", "d0"))
        g.add(compute("b", "d0"), ["a"])
        g.add_edge("b", "a")
        from repro.errors import CompileError
        with pytest.raises(CompileError):
            g.topological_order()


class TestCostProviders:
    def test_truth_jitter_deterministic_per_seed(self, mlp_graph, four_gpu):
        from repro.parallel import GraphCompiler, single_device_strategy
        profile = Profiler(seed=0).profile(mlp_graph, four_gpu)
        compiler = GraphCompiler(four_gpu, profile)
        dist = compiler.compile(mlp_graph,
                                single_device_strategy(mlp_graph, four_gpu))
        a = Simulator(TruthCostModel(four_gpu, seed=5)).run(dist).makespan
        b = Simulator(TruthCostModel(four_gpu, seed=5)).run(dist).makespan
        assert a == b

    def test_interserver_discount_slows_cross_traffic(self, four_gpu):
        fast = TruthCostModel(four_gpu, jitter_sigma=0,
                              interserver_discount=1.0)
        slow = TruthCostModel(four_gpu, jitter_sigma=0,
                              interserver_discount=0.5)
        t = DistOp(name="t", kind=DistOpKind.TRANSFER, src_device="gpu0",
                   dst_device="gpu2", size_bytes=100e6)
        assert price(slow, t) > price(fast, t)

    def test_invalid_discount_rejected(self, four_gpu):
        with pytest.raises(SimulationError):
            TruthCostModel(four_gpu, interserver_discount=0.0)

    def test_mapping_cost_requires_registration(self):
        cost = MappingCostModel({})
        with pytest.raises(SimulationError):
            price(cost, compute("x", "d0"))

    def test_profile_cost_unknown_kind(self, mlp_graph, four_gpu):
        profile = Profiler(seed=0).profile(mlp_graph, four_gpu)
        cost = ProfileCostModel(four_gpu, profile)
        op = DistOp(name="t", kind=DistOpKind.TRANSFER, src_device="gpu0",
                    dst_device="gpu1", size_bytes=1024)
        assert price(cost, op) > 0


class TestBandwidthAdaptation:
    """Footnote 1: 'If the bandwidth changes, the input to the GNN changes
    and the output strategy changes correspondingly.'"""

    @staticmethod
    def _cluster(nic_gbps: float) -> Cluster:
        nic = LinkSpec(f"{nic_gbps}GbE", nic_gbps * GBPS, 6e-6)
        return Cluster([
            ServerSpec("s0", TESLA_V100, 2, nic, intra_link=NVLINK),
            ServerSpec("s1", TESLA_V100, 2, nic, intra_link=NVLINK),
        ])

    def test_features_reflect_bandwidth(self):
        from repro.agent import FeatureEncoder
        graph = make_mlp(name="bw_mlp")
        fast = self._cluster(100)
        slow = self._cluster(5)
        f_fast = FeatureEncoder(
            fast, Profiler(seed=0).profile(graph, fast)).encode(graph)
        f_slow = FeatureEncoder(
            slow, Profiler(seed=0).profile(graph, slow)).encode(graph)
        assert not np.allclose(f_fast, f_slow)

    def test_transfer_predictions_scale(self):
        graph = make_mlp(name="bw_mlp2")
        fast = self._cluster(100)
        slow = self._cluster(5)
        p_fast = Profiler(seed=0).profile(graph, fast)
        p_slow = Profiler(seed=0).profile(graph, slow)
        t_fast = p_fast.transfer_time("gpu0", "gpu2", 100e6)
        t_slow = p_slow.transfer_time("gpu0", "gpu2", 100e6)
        assert t_slow > 5 * t_fast
