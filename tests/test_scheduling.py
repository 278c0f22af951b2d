"""Tests for ranks, list scheduling, FIFO, and the appendix theorems."""

import pytest

from repro.parallel.distgraph import DistGraph, DistOp, DistOpKind
from repro.scheduling import (
    FifoScheduler,
    ListScheduler,
    compute_ranks,
    critical_path,
    optimal_lower_bound,
    total_work,
    worst_case_instance,
)
from repro.simulation import Simulator
from repro.simulation.costs import MappingCostModel


def compute(name, device):
    return DistOp(name=name, kind=DistOpKind.COMPUTE, device=device)


def diamond():
    g = DistGraph("g")
    g.add(compute("a", "d0"))
    g.add(compute("b", "d0"), ["a"])
    g.add(compute("c", "d1"), ["a"])
    g.add(compute("d", "d0"), ["b", "c"])
    return g


class TestRanks:
    def test_rank_definition(self):
        g = diamond()
        cost = MappingCostModel({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        ranks = compute_ranks(g, cost)
        assert ranks["d"] == pytest.approx(4.0)
        assert ranks["b"] == pytest.approx(6.0)
        assert ranks["c"] == pytest.approx(7.0)
        assert ranks["a"] == pytest.approx(8.0)

    def test_rank_is_monotone_along_edges(self):
        g = diamond()
        cost = MappingCostModel({}, default=1.0)
        ranks = compute_ranks(g, cost)
        for name in g.op_names:
            for succ in g.successors(name):
                assert ranks[name] > ranks[succ]


class TestSchedulers:
    def test_list_schedule_priorities_follow_ranks(self):
        g = diamond()
        cost = MappingCostModel({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        schedule = ListScheduler().schedule(g, cost)
        assert schedule.estimated_makespan is not None
        if schedule.chosen == "rank":
            # higher rank -> smaller priority number
            assert schedule.priorities["a"] < schedule.priorities["c"]
            assert schedule.priorities["c"] < schedule.priorities["b"]

    def test_fifo_scheduler_randomized_default(self):
        """The default models TF's nondeterministic executor order."""
        schedule = FifoScheduler(seed=1).schedule(diamond())
        assert schedule.priorities is not None
        assert set(schedule.priorities) == set(diamond().op_names)

    def test_list_beats_bad_order_on_contention(self):
        """Classic trap: a long chain's head must run before a filler op."""
        g = DistGraph("g")
        g.add(compute("filler", "d0"))
        g.add(compute("head", "d0"))
        g.add(compute("tail1", "d1"), ["head"])
        g.add(compute("tail2", "d1"), ["tail1"])
        cost = MappingCostModel(
            {"filler": 3.0, "head": 1.0, "tail1": 3.0, "tail2": 3.0}
        )
        schedule = ListScheduler().schedule(g, cost)
        sim = Simulator(cost)
        ls = sim.run(g, priorities=schedule.priorities)
        fifo = sim.run(g, priorities=None)  # insertion order: filler first
        assert ls.makespan == pytest.approx(7.0)
        assert fifo.makespan == pytest.approx(10.0)
        assert ls.makespan < fifo.makespan


class TestBounds:
    def test_total_work_and_critical_path(self):
        g = diamond()
        cost = MappingCostModel({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        assert total_work(g, cost) == pytest.approx(10.0)
        assert critical_path(g, cost) == pytest.approx(8.0)

    def test_lower_bound(self):
        g = diamond()
        cost = MappingCostModel({}, default=1.0)
        lb = optimal_lower_bound(g, cost, num_resources=2)
        assert lb == pytest.approx(max(4 / 2, 3))

    def test_theorem1_ls_within_total_work(self):
        """TLS <= sum p_i (first inequality of the Theorem 1 proof)."""
        inst = worst_case_instance(h=4, k=8)
        schedule_time = Simulator(inst.cost).run(
            inst.graph, priorities=inst.priorities
        ).makespan
        assert schedule_time <= total_work(inst.graph, inst.cost) + 1e-9

    def test_theorem2_formulas_match_simulation(self):
        """The crafted instance's simulated strict-order LS time is within
        a few percent of the appendix closed form, and the TLS/T* ratio
        approaches H = M + M^2."""
        h, k = 4, 30
        inst = worst_case_instance(h=h, k=k, p=1.0, e=1e-6)
        res = Simulator(inst.cost).run(inst.graph,
                                       priorities=inst.priorities,
                                       strict=True)
        assert res.makespan == pytest.approx(inst.t_ls_formula, rel=0.05)
        ratio = res.makespan / inst.t_opt_formula
        # ratio -> H as k grows and e -> 0
        assert ratio == pytest.approx(h, rel=0.05)

    def test_worst_case_benign_without_adversarial_order(self):
        """Work-conserving execution of the same instance stays near T*:
        the pathology needs both the adversarial ties and strict order."""
        inst = worst_case_instance(h=4, k=30, p=1.0, e=1e-6)
        res = Simulator(inst.cost).run(inst.graph,
                                       priorities=inst.priorities)
        assert res.makespan < 0.9 * inst.t_ls_formula

    def test_strict_requires_priorities(self):
        inst = worst_case_instance(h=3, k=3)
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            Simulator(inst.cost).run(inst.graph, strict=True)

    def test_theorem2_ratio_grows_with_h(self):
        r3 = worst_case_instance(h=3, k=20).ratio_formula
        r5 = worst_case_instance(h=5, k=20).ratio_formula
        assert r5 > r3

    def test_optimal_beats_ls_on_worst_case(self):
        inst = worst_case_instance(h=4, k=10)
        assert inst.t_opt_formula < inst.t_ls_formula

    def test_worst_case_validation(self):
        with pytest.raises(ValueError):
            worst_case_instance(h=2)
        with pytest.raises(ValueError):
            worst_case_instance(h=4, k=1)
