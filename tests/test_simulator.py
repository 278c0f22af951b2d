"""Tests for the discrete-event simulator on hand-built dist graphs."""

import pytest

from repro.errors import SimulationError
from repro.parallel.distgraph import DistGraph, DistOp, DistOpKind
from repro.simulation import Simulator
from repro.simulation.costs import MappingCostModel
from repro.simulation.metrics import union_length


def compute(name, device):
    return DistOp(name=name, kind=DistOpKind.COMPUTE, device=device)


def transfer(name, src, dst, size=0.0):
    return DistOp(name=name, kind=DistOpKind.TRANSFER, src_device=src,
                  dst_device=dst, size_bytes=size)


def run(graph, durations, order=None, default=None):
    sim = Simulator(MappingCostModel(durations, default=default))
    return sim.run(graph, order=order)


class TestBasicExecution:
    def test_chain_serializes(self):
        g = DistGraph("g")
        g.add(compute("a", "d0"))
        g.add(compute("b", "d0"), ["a"])
        g.add(compute("c", "d0"), ["b"])
        res = run(g, {"a": 1.0, "b": 2.0, "c": 3.0})
        assert res.makespan == pytest.approx(6.0)

    def test_independent_ops_on_different_devices_overlap(self):
        g = DistGraph("g")
        g.add(compute("a", "d0"))
        g.add(compute("b", "d1"))
        res = run(g, {"a": 5.0, "b": 3.0})
        assert res.makespan == pytest.approx(5.0)

    def test_same_device_serializes(self):
        g = DistGraph("g")
        g.add(compute("a", "d0"))
        g.add(compute("b", "d0"))
        res = run(g, {"a": 5.0, "b": 3.0})
        assert res.makespan == pytest.approx(8.0)

    def test_dependency_respected(self):
        g = DistGraph("g")
        g.add(compute("a", "d0"))
        g.add(compute("b", "d1"), ["a"])
        res = run(g, {"a": 2.0, "b": 1.0})
        assert res.makespan == pytest.approx(3.0)

    def test_empty_graph(self):
        res = run(DistGraph("g"), {})
        assert res.makespan == 0.0

    def test_negative_duration_rejected(self):
        g = DistGraph("g")
        g.add(compute("a", "d0"))
        with pytest.raises(SimulationError):
            run(g, {"a": -1.0})


class TestCommunicationOverlap:
    def test_compute_comm_overlap(self):
        """A transfer on a link runs concurrently with compute on GPUs."""
        g = DistGraph("g")
        g.add(compute("a", "d0"))
        g.add(transfer("t", "d0", "d1"), ["a"])
        g.add(compute("b", "d0"), ["a"])      # keeps d0 busy during t
        g.add(compute("c", "d1"), ["t"])
        res = run(g, {"a": 1.0, "t": 4.0, "b": 4.0, "c": 1.0})
        assert res.makespan == pytest.approx(6.0)  # t and b overlap
        assert res.communication_time == pytest.approx(4.0)

    def test_link_serializes_transfers(self):
        g = DistGraph("g")
        g.add(transfer("t1", "d0", "d1"))
        g.add(transfer("t2", "d0", "d1"))
        res = run(g, {"t1": 2.0, "t2": 2.0})
        assert res.makespan == pytest.approx(4.0)

    def test_opposite_directions_parallel(self):
        g = DistGraph("g")
        g.add(transfer("t1", "d0", "d1"))
        g.add(transfer("t2", "d1", "d0"))
        res = run(g, {"t1": 2.0, "t2": 2.0})
        assert res.makespan == pytest.approx(2.0)

    def test_nccl_token_serializes_allreduces(self):
        g = DistGraph("g")
        g.add(DistOp(name="ar1", kind=DistOpKind.ALLREDUCE,
                     devices=("d0", "d1")))
        g.add(DistOp(name="ar2", kind=DistOpKind.ALLREDUCE,
                     devices=("d2", "d3")))
        # disjoint device rings but the shared NCCL token forces serial
        res = run(g, {"ar1": 3.0, "ar2": 3.0})
        assert res.makespan == pytest.approx(6.0)

    def test_extra_resources_respected(self):
        g = DistGraph("g")
        g.add(DistOp(name="t1", kind=DistOpKind.TRANSFER, src_device="a",
                     dst_device="b", extra_resources=("nic_out:s0",)))
        g.add(DistOp(name="t2", kind=DistOpKind.TRANSFER, src_device="a",
                     dst_device="c", extra_resources=("nic_out:s0",)))
        res = run(g, {"t1": 2.0, "t2": 2.0})
        # different links but shared NIC -> serialized
        assert res.makespan == pytest.approx(4.0)


class TestPriorities:
    def _contention_graph(self):
        """Two ready ops on one device; 'slow' blocks the critical path."""
        g = DistGraph("g")
        g.add(compute("slow_chain_head", "d0"))
        g.add(compute("filler", "d0"))
        g.add(compute("tail", "d1"), ["slow_chain_head"])
        return g

    def test_priority_orders_contention(self):
        g = self._contention_graph()
        durations = {"slow_chain_head": 2.0, "filler": 2.0, "tail": 3.0}
        # op index order: slow_chain_head, filler, tail
        good = run(g, durations, order=[0, 1, 2])
        bad = run(g, durations, order=[1, 0, 2])
        assert good.makespan == pytest.approx(5.0)
        assert bad.makespan == pytest.approx(7.0)

    def test_fifo_is_insertion_order_at_t0(self):
        g = self._contention_graph()
        durations = {"slow_chain_head": 2.0, "filler": 2.0, "tail": 3.0}
        res = run(g, durations)
        # FIFO starts slow_chain_head first (inserted first)
        assert res.makespan == pytest.approx(5.0)


class TestMetrics:
    def test_device_busy_accounting(self):
        g = DistGraph("g")
        g.add(compute("a", "d0"))
        g.add(compute("b", "d0"), ["a"])
        res = run(g, {"a": 1.5, "b": 2.5})
        assert res.device_busy["d0"] == pytest.approx(4.0)
        assert res.computation_time == pytest.approx(4.0)

    def test_utilization(self):
        g = DistGraph("g")
        g.add(compute("a", "d0"))
        g.add(compute("b", "d1"), ["a"])
        res = run(g, {"a": 1.0, "b": 1.0})
        util = res.utilization()
        assert util["d0"] == pytest.approx(0.5)

    def test_union_length(self):
        assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
        assert union_length([]) == 0.0

    def test_trace_schedule(self):
        g = DistGraph("g")
        g.add(compute("a", "d0"))
        g.add(compute("b", "d0"), ["a"])
        sim = Simulator(MappingCostModel({"a": 1.0, "b": 1.0}))
        res = sim.run(g)
        assert res.schedule["a"] == (0.0, 1.0)
        assert res.schedule["b"] == (1.0, 2.0)

    def test_overlap_ratio_bounds(self):
        g = DistGraph("g")
        g.add(compute("a", "d0"))
        g.add(transfer("t", "d0", "d1"), ["a"])
        res = run(g, {"a": 1.0, "t": 1.0})
        assert 0.0 < res.overlap_ratio <= 2.0
