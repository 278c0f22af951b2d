"""Additional metrics/result tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.distgraph import DistGraph, DistOp, DistOpKind
from repro.simulation import Simulator
from repro.simulation.costs import MappingCostModel
from repro.simulation.metrics import union_length


def run(graph, durations, capacities=None):
    return Simulator(MappingCostModel(durations)).run(
        graph, capacities=capacities)


class TestUnionLength:
    @given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 10)),
                    max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_union_bounds(self, raw):
        intervals = [(s, s + d) for s, d in raw]
        total = union_length(intervals)
        if not intervals:
            assert total == 0.0
            return
        span = max(e for _, e in intervals) - min(s for s, _ in intervals)
        assert 0.0 <= total <= span + 1e-9
        assert total <= sum(e - s for s, e in intervals) + 1e-9

    def test_disjoint_sum(self):
        assert union_length([(0, 1), (2, 3), (4, 5)]) == pytest.approx(3.0)

    def test_nested(self):
        assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


class TestSimulationResult:
    def _result(self, scale=1.0, capacities=None):
        """a: gpu0 0..1.5; t: link gpu0->gpu1 0..0.8 (8 bytes charged to
        gpu1); b: gpu1 0.8..2.0 after t."""
        g = DistGraph("g")
        g.add(DistOp("a", DistOpKind.COMPUTE, device="gpu0"))
        g.add(DistOp("t", DistOpKind.TRANSFER, src_device="gpu0",
                     dst_device="gpu1", size_bytes=8.0))
        g.add(DistOp("b", DistOpKind.COMPUTE, device="gpu1"), ["t"])
        durations = {"a": 1.5, "t": 0.8, "b": 1.2}
        return run(g, {n: d * scale for n, d in durations.items()},
                   capacities)

    def test_computation_time_is_max_busy(self):
        r = self._result()
        assert r.device_busy == pytest.approx({"gpu0": 1.5, "gpu1": 1.2})
        assert r.computation_time == pytest.approx(1.5)

    def test_overlap_ratio(self):
        r = self._result()
        assert (r.makespan, r.communication_time) \
            == pytest.approx((2.0, 0.8))
        assert r.overlap_ratio == pytest.approx((1.5 + 0.8) / 2)

    def test_zero_makespan(self):
        r = self._result(scale=0.0)
        assert r.makespan == 0.0
        assert r.overlap_ratio == 0.0

    def test_utilization_values(self):
        r = self._result()
        assert r.device_busy["gpu0"] / r.makespan == pytest.approx(0.75)
        assert r.device_busy["gpu1"] / r.makespan == pytest.approx(0.6)

    def test_oom_property(self):
        assert not self._result().oom
        assert self._result(capacities={"gpu1": 4}).oom

    def test_summary_keys(self):
        summary = self._result().summary()
        assert {"makespan", "computation_time", "communication_time",
                "overlap_ratio", "oom"} == set(summary)

    def test_empty_result(self):
        r = run(DistGraph("empty"), {})
        assert r.computation_time == 0.0
        assert r.device_busy == {}
