"""Unit tests for ComputationGraph."""

import pytest

from repro.errors import GraphError
from repro.graph.dag import ComputationGraph
from repro.graph.op import Operation, OpPhase, TensorSpec


def _op(name, **kw):
    defaults = dict(op_type="Relu", output=TensorSpec((2, 2)), flops=1.0)
    defaults.update(kw)
    return Operation(name=name, **defaults)


def chain(n=4):
    g = ComputationGraph("chain")
    prev = None
    for i in range(n):
        g.add_op(_op(f"n{i}"), [prev] if prev else [])
        prev = f"n{i}"
    return g


class TestConstruction:
    def test_add_and_lookup(self):
        g = chain(3)
        assert len(g) == 3
        assert g.op("n1").name == "n1"
        assert "n2" in g

    def test_duplicate_name_rejected(self):
        g = chain(2)
        with pytest.raises(GraphError):
            g.add_op(_op("n0"))

    def test_unknown_input_rejected(self):
        g = ComputationGraph("g")
        with pytest.raises(GraphError):
            g.add_op(_op("a"), ["missing"])

    def test_self_loop_rejected(self):
        g = chain(1)
        with pytest.raises(GraphError):
            g.add_edge("n0", "n0")

    def test_duplicate_edge_idempotent(self):
        g = chain(2)
        g.add_edge("n0", "n1")
        assert g.successors("n0") == ["n1"]

    def test_unknown_op_lookup(self):
        with pytest.raises(GraphError):
            chain(1).op("nope")


class TestQueries:
    def test_degrees(self):
        g = chain(3)
        assert g.in_degree("n0") == 0
        assert g.out_degree("n0") == 1
        assert g.in_degree("n2") == 1

    def test_sources_and_sinks(self):
        g = chain(3)
        assert g.sources() == ["n0"]
        assert [n for n in g.op_names if not g.out_degree(n)] == ["n2"]

    def test_edges_enumeration(self):
        g = chain(3)
        assert sorted(g.edges()) == [("n0", "n1"), ("n1", "n2")]
        assert g.num_edges() == 2


class TestTopology:
    def test_topological_order_chain(self):
        assert chain(4).topological_order() == ["n0", "n1", "n2", "n3"]

    def test_topological_order_diamond(self):
        g = chain(1)
        g.add_op(_op("l"), ["n0"])
        g.add_op(_op("r"), ["n0"])
        g.add_op(_op("m"), ["l", "r"])
        order = g.topological_order()
        assert order.index("n0") < order.index("l") < order.index("m")
        assert order.index("r") < order.index("m")

    def test_cycle_detected(self):
        g = chain(3)
        # force a back edge (bypassing add_op's ordering)
        g._succ["n2"].append("n0")
        g._pred["n0"].append("n2")
        with pytest.raises(GraphError):
            g.topological_order()

    def test_validate_ok(self):
        chain(5).validate()


class TestBFS:
    def test_hop_distances_single_source(self):
        g = chain(4)
        dist = g.undirected_hop_distances(["n0"])
        assert dist["n3"] == (3, "n0")

    def test_hop_distances_multi_source_nearest(self):
        g = chain(5)
        dist = g.undirected_hop_distances(["n0", "n4"])
        assert dist["n1"][1] == "n0"
        assert dist["n3"][1] == "n4"

    def test_hop_distances_undirected(self):
        g = chain(3)
        dist = g.undirected_hop_distances(["n2"])
        assert dist["n0"] == (2, "n2")

    def test_unknown_source(self):
        with pytest.raises(GraphError):
            chain(2).undirected_hop_distances(["zzz"])


class TestStats:
    def test_total_flops(self):
        assert chain(3).total_flops() == 3.0

    def test_param_bytes_counts_forward_only(self):
        g = ComputationGraph("g")
        g.add_op(_op("f", param_bytes=100, phase=OpPhase.FORWARD))
        g.add_op(_op("b", param_bytes=100, phase=OpPhase.BACKWARD), ["f"])
        assert g.total_param_bytes() == 100

    def test_stats_keys(self):
        s = chain(2).stats()
        assert set(s) == {"ops", "edges", "total_flops", "param_bytes"}
