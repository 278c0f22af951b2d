"""Tests for refcounted memory tracking and OOM detection."""

from repro.cluster import cluster_4gpu
from repro.graph.op import Operation, TensorSpec
from repro.parallel import (
    CommMethod,
    GraphCompiler,
    ReplicaAllocation,
    make_dp_strategy,
    single_device_strategy,
    uniform_strategy,
)
from repro.parallel.distgraph import DistGraph, DistOp, DistOpKind
from repro.simulation import MemoryTracker, Simulator
from repro.simulation.costs import ProfileCostModel
from repro.profiling import Profiler


def _compute(name, device, out_bytes):
    op = Operation(name, "Relu", TensorSpec((1, out_bytes // 4)), flops=1.0)
    return DistOp(name=name, kind=DistOpKind.COMPUTE, source_op=op,
                  device=device, batch_fraction=1.0)


class TestRefcounting:
    def test_activation_freed_after_last_consumer(self):
        from repro.profiling.cost_model import ACTIVATION_OVERHEAD
        pinned = int(400 * ACTIVATION_OVERHEAD)
        g = DistGraph("g")
        g.add(_compute("a", "d0", 400))
        g.add(_compute("b", "d0", 400), ["a"])
        g.add(_compute("c", "d0", 400), ["a"])
        tracker = MemoryTracker(g, {"d0": 0})
        tracker.on_start(g.op("a"))
        tracker.on_finish(g.op("a"))
        assert tracker.current["d0"] == pinned
        tracker.on_start(g.op("b"))
        tracker.on_finish(g.op("b"))
        # a still alive: c hasn't consumed it; b freed (sink)
        assert tracker.current["d0"] == pinned
        tracker.on_start(g.op("c"))
        tracker.on_finish(g.op("c"))
        assert tracker.current["d0"] == 0.0

    def test_peak_includes_resident(self):
        from repro.profiling.cost_model import ACTIVATION_OVERHEAD
        g = DistGraph("g")
        g.add(_compute("a", "d0", 1000))
        tracker = MemoryTracker(g, {"d0": 500})
        tracker.on_start(g.op("a"))
        assert tracker.peak["d0"] == 500 + int(1000 * ACTIVATION_OVERHEAD)

    def test_transfer_charges_destination(self):
        g = DistGraph("g")
        t = DistOp(name="t", kind=DistOpKind.TRANSFER, src_device="d0",
                   dst_device="d1", size_bytes=256)
        g.add(t)
        tracker = MemoryTracker(g, {})
        tracker.on_start(t)
        assert tracker.current["d1"] == 256.0
        assert tracker.current.get("d0", 0.0) == 0.0

    def test_oom_devices(self):
        g = DistGraph("g")
        g.add(_compute("a", "d0", 4000))
        tracker = MemoryTracker(g, {"d0": 0})
        tracker.on_start(g.op("a"))
        assert tracker.oom_devices({"d0": 1000}) == ["d0"]
        assert tracker.oom_devices({"d0": 10_000}) == []

    def test_simulation_peak_below_sum_of_all_outputs(self, mlp_graph):
        """Refcounting must release memory: the peak during a single-device
        run is below the total of all activation bytes."""
        cluster = cluster_4gpu()
        profile = Profiler(seed=0).profile(mlp_graph, cluster)
        st = single_device_strategy(mlp_graph, cluster)
        compiler = GraphCompiler(ProfileCostModel(cluster, profile))
        dist = compiler.compile(mlp_graph, st)
        sim = Simulator(ProfileCostModel(cluster, profile))
        res = sim.run(dist, resident_bytes=dist.resident_bytes)
        total_activations = sum(op.output.size_bytes for op in mlp_graph)
        resident = dist.resident_bytes["gpu0"]
        assert res.peak_memory["gpu0"] < resident + total_activations
        assert res.peak_memory["gpu0"] > resident


class TestOOMInSimulation:
    def test_oom_flag_when_capacity_tiny(self, mlp_graph):
        cluster = cluster_4gpu()
        profile = Profiler(seed=0).profile(mlp_graph, cluster)
        st = uniform_strategy(mlp_graph, cluster, make_dp_strategy(
            cluster, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        compiler = GraphCompiler(ProfileCostModel(cluster, profile))
        dist = compiler.compile(mlp_graph, st)
        sim = Simulator(ProfileCostModel(cluster, profile))
        res = sim.run(dist, resident_bytes=dist.resident_bytes,
                      capacities={d: 10 for d in cluster.device_ids})
        assert res.oom
        assert set(res.oom_devices) == set(cluster.device_ids)

    def test_no_oom_with_real_capacities(self, mlp_graph):
        cluster = cluster_4gpu()
        profile = Profiler(seed=0).profile(mlp_graph, cluster)
        st = uniform_strategy(mlp_graph, cluster, make_dp_strategy(
            cluster, ReplicaAllocation.EVEN, CommMethod.ALLREDUCE))
        compiler = GraphCompiler(ProfileCostModel(cluster, profile))
        dist = compiler.compile(mlp_graph, st)
        sim = Simulator(ProfileCostModel(cluster, profile))
        res = sim.run(dist, resident_bytes=dist.resident_bytes,
                      capacities={d.device_id: d.memory_bytes
                                  for d in cluster.devices})
        assert not res.oom
