"""Tests for ranks, list scheduling, FIFO, and the appendix theorems."""

import numpy as np
import pytest

from repro.baselines.dp import dp_strategy
from repro.parallel import GraphCompiler
from repro.parallel.distgraph import DistGraph, DistOp, DistOpKind
from repro.plan import PlanBuilder
from repro.scheduling import (
    FifoScheduler,
    ListScheduler,
    critical_path,
    optimal_lower_bound,
    total_work,
    worst_case_instance,
)
from repro.scheduling.ranking import kernel_ranks
from repro.simulation import Simulator, lower
from repro.simulation.costs import MappingCostModel, ProfileCostModel

from tests.helpers import exact_profile
from tests.oracle import trace_order


def compute(name, device):
    return DistOp(name=name, kind=DistOpKind.COMPUTE, device=device)


def diamond():
    g = DistGraph("g")
    g.add(compute("a", "d0"))
    g.add(compute("b", "d0"), ["a"])
    g.add(compute("c", "d1"), ["a"])
    g.add(compute("d", "d0"), ["b", "c"])
    return g


def named_ranks(g, cost):
    kernel = lower(g)
    return dict(zip(kernel.names, kernel_ranks(kernel, cost)))


class TestRanks:
    def test_rank_definition(self):
        g = diamond()
        cost = MappingCostModel({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        ranks = named_ranks(g, cost)
        assert ranks["d"] == pytest.approx(4.0)
        assert ranks["b"] == pytest.approx(6.0)
        assert ranks["c"] == pytest.approx(7.0)
        assert ranks["a"] == pytest.approx(8.0)

    def test_rank_is_monotone_along_edges(self):
        g = diamond()
        cost = MappingCostModel({}, default=1.0)
        ranks = named_ranks(g, cost)
        for name in g.op_names:
            for succ in g.successors(name):
                assert ranks[name] > ranks[succ]


class TestSchedulers:
    def test_list_schedule_priorities_follow_ranks(self):
        g = diamond()
        cost = MappingCostModel({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        schedule = ListScheduler().schedule(g, cost)
        assert schedule.sim_result.makespan > 0
        if schedule.chosen == "rank":
            # higher rank -> smaller priority number
            prio = dict(zip(g.op_names, schedule.order.tolist()))
            assert prio["a"] < prio["c"] < prio["b"]

    def test_fifo_scheduler_randomized_default(self):
        """The default models TF's nondeterministic executor order."""
        schedule = FifoScheduler(seed=1).schedule(diamond())
        assert sorted(schedule.order.tolist()) == list(range(4))

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
        ls = sim.run(g, order=schedule.order)
        fifo = sim.run(g)  # insertion order: filler first
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
            inst.graph, order=inst.order
        ).makespan
        assert schedule_time <= total_work(inst.graph, inst.cost) + 1e-9

    def test_theorem2_formulas_match_simulation(self):
        """The crafted instance's simulated strict-order LS time is within
        a few percent of the appendix closed form, and the TLS/T* ratio
        approaches H = M + M^2."""
        h, k = 4, 30
        inst = worst_case_instance(h=h, k=k, p=1.0, e=1e-6)
        res = Simulator(inst.cost).run(inst.graph,
                                       order=inst.order, strict=True)
        assert res.makespan == pytest.approx(inst.t_ls_formula, rel=0.05)
        ratio = res.makespan / inst.t_opt_formula
        # ratio -> H as k grows and e -> 0
        assert ratio == pytest.approx(h, rel=0.05)

    def test_worst_case_benign_without_adversarial_order(self):
        """Work-conserving execution of the same instance stays near T*:
        the pathology needs both the adversarial ties and strict order."""
        inst = worst_case_instance(h=4, k=30, p=1.0, e=1e-6)
        res = Simulator(inst.cost).run(inst.graph, order=inst.order)
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


def _contention_graph():
    """A long chain's head and a filler op on one device: the ``rank``
    order wins."""
    g = DistGraph("g")
    g.add(compute("filler", "d0"))
    g.add(compute("head", "d0"))
    g.add(compute("tail1", "d1"), ["head"])
    g.add(compute("tail2", "d1"), ["tail1"])
    cost = MappingCostModel(
        {"filler": 3.0, "head": 1.0, "tail1": 3.0, "tail2": 3.0})
    return g, cost


def _assert_int32_permutation(schedule, kernel):
    assert schedule.order.dtype == np.int32
    assert sorted(schedule.order.tolist()) == list(range(kernel.n))


class TestScheduleOrder:
    """``Schedule.order`` is an int32 permutation by op index: the
    priorities each scheduler decides."""

    def test_rank_order(self):
        g, cost = _contention_graph()
        kernel = lower(g)
        schedule = ListScheduler().schedule(g, cost)
        assert schedule.chosen == "rank"
        _assert_int32_permutation(schedule, kernel)
        ranks = kernel_ranks(kernel, cost)
        topo = kernel.topo_positions()
        ordered = sorted(range(kernel.n), key=lambda i: (-ranks[i], topo[i]))
        assert [ordered.index(i) for i in range(kernel.n)] \
            == schedule.order.tolist()

    def test_earliest_order(self, tiny_vgg, four_gpu, vgg_profile):
        builder = PlanBuilder(tiny_vgg, four_gpu, vgg_profile)
        plan = builder.build(dp_strategy("EV-AR", tiny_vgg, four_gpu))
        schedule = plan.schedule
        assert schedule.chosen == "earliest"
        _assert_int32_permutation(schedule, plan.kernel)
        assert schedule.order.tolist() == trace_order(
            plan.kernel.names, schedule.sim_result.schedule)

    def test_fifo_order(self, tiny_vgg, four_gpu):
        dist = GraphCompiler(ProfileCostModel(
            four_gpu, exact_profile(tiny_vgg, four_gpu))).compile(
            tiny_vgg, dp_strategy("CP-PS", tiny_vgg, four_gpu))
        for g in (dist, _contention_graph()[0]):
            schedule = FifoScheduler(seed=3).schedule(g)
            _assert_int32_permutation(schedule, lower(g))
            perm = np.random.default_rng(3).permutation(len(g.op_names))
            assert schedule.order.tolist() == perm.tolist()
