"""Tests for the REINFORCE trainer, agent facade, and seed candidates."""

import numpy as np
import pytest

from repro.agent import AgentConfig, HeteroGAgent, seed_action_vectors
from repro.agent.policy import actions_to_strategy, num_actions
from repro.errors import StrategyError
from repro.graph.grouping import group_operations
from repro.graph.models import build_model
from repro.parallel import single_device_strategy
from repro.plan import PlanBuilder
from repro.profiling import Profiler

from tests.helpers import make_mlp
from tests.oracle.unpruned import unpruned_outcome

SMALL = AgentConfig(max_groups=10, gat_hidden=16, gat_layers=2, gat_heads=2,
                    strategy_dim=16, strategy_heads=2, strategy_layers=1,
                    seed=0)


@pytest.fixture(scope="module")
def trained_agent(four_gpu):
    agent = HeteroGAgent(four_gpu, SMALL)
    agent.add_graph(make_mlp(name="train_mlp"))
    agent.train(12)
    return agent


@pytest.fixture(scope="module")
def four_gpu():
    from repro.cluster import cluster_4gpu
    return cluster_4gpu()


class TestEvaluator:
    def test_feasible_single_device(self, four_gpu):
        g = make_mlp(name="eval_mlp")
        profile = Profiler(seed=0).profile(g, four_gpu)
        ev = PlanBuilder(g, four_gpu, profile)
        outcome = ev.evaluate(single_device_strategy(g, four_gpu))
        assert outcome.feasible
        assert outcome.time > 0
        assert outcome.dist_ops == len(g)

    def test_order_scheduling_no_worse(self, four_gpu):
        """Rank-order scheduling should not lose to FIFO on average."""
        g = make_mlp(name="order_mlp", layers=4)
        profile = Profiler(seed=0).profile(g, four_gpu)
        st = single_device_strategy(g, four_gpu)
        with_order = PlanBuilder(g, four_gpu, profile,
                                 use_order_scheduling=True)
        without = PlanBuilder(g, four_gpu, profile,
                              use_order_scheduling=False)
        assert with_order.evaluate(st).time <= without.evaluate(st).time * 1.05

    @pytest.mark.parametrize("family", ["inception_v3", "transformer"])
    def test_evaluate_matches_unpruned_oracle(self, four_gpu, family):
        """Paired fuzz of the rollout path: ``evaluate`` without a
        best-so-far (the race of the two candidate orders is its only
        pruning) equals the oracle's unpruned pipeline bit for bit in
        time, OOM set and chosen order.  Each device's capacity sits
        between the two orders' peaks, so the OOM verdict depends on
        which order wins."""
        graph = build_model(family, "tiny")
        profile = Profiler(seed=0).profile(graph, four_gpu)
        grouping = group_operations(
            graph, {op: 1.0 for op in graph.op_names}, 8)
        rng = np.random.default_rng(7)
        order_dependent = 0
        for _ in range(8):
            strategy = actions_to_strategy(
                graph, four_gpu, grouping,
                rng.integers(0, num_actions(four_gpu), grouping.num_groups))
            roomy = unpruned_outcome(PlanBuilder(graph, four_gpu, profile),
                                     strategy)
            rank, earliest = (roomy.runs["rank"].peak_memory,
                              roomy.runs["earliest"].peak_memory)
            builder = PlanBuilder(graph, four_gpu, profile)
            builder.capacities = {
                d: (rank.get(d, 0) + earliest.get(d, 0)) // 2
                for d in builder.capacities}
            got = builder.evaluate(strategy)
            want = unpruned_outcome(builder, strategy)
            assert got.time == want.time
            assert got.result.oom_devices == want.result.oom_devices
            schedule = builder.build(strategy).schedule
            assert schedule.chosen == want.chosen
            assert schedule.priorities == want.priorities
            order_dependent += (want.runs["rank"].oom_devices
                                != want.runs["earliest"].oom_devices)
        assert order_dependent >= 4


class TestSeeds:
    def test_seed_vectors_shape(self, four_gpu):
        g = make_mlp(name="seed_mlp")
        avg = {n: 1.0 for n in g.op_names}
        grouping = group_operations(g, avg, 8)
        seeds = seed_action_vectors(g, four_gpu, grouping)
        assert len(seeds) >= 6
        for vec in seeds:
            assert vec.shape == (grouping.num_groups,)
            assert (vec >= 0).all()
            assert (vec < four_gpu.num_devices + 4).all()

    def test_first_four_are_uniform_dp(self, four_gpu):
        g = make_mlp(name="seed_mlp2")
        grouping = group_operations(g, {n: 1.0 for n in g.op_names}, 8)
        seeds = seed_action_vectors(g, four_gpu, grouping)
        m = four_gpu.num_devices
        for i in range(4):
            assert (seeds[i] == m + i).all()

    def test_ladder_uses_every_device_for_many_groups(self, four_gpu):
        g = make_mlp(name="seed_mlp3", layers=6)
        grouping = group_operations(g, {n: 1.0 for n in g.op_names}, 20)
        seeds = seed_action_vectors(g, four_gpu, grouping)
        ladder = seeds[4]  # memory-balanced MP ladder (after 4 DP seeds)
        assert set(ladder.tolist()) == set(range(four_gpu.num_devices))


class TestTrainer:
    def test_best_strategy_feasible(self, trained_agent):
        st = trained_agent.best_strategy("train_mlp")
        assert st is not None
        assert trained_agent.best_time("train_mlp") < float("inf")

    def test_best_no_worse_than_uniform_baselines(self, trained_agent,
                                                  four_gpu):
        """Seeded exploration guarantees HeteroG >= best uniform DP in the
        simulator (the paper's Table 1 invariant)."""
        from repro.baselines import all_dp_strategies
        ctx = trained_agent.context("train_mlp")
        best = trained_agent.best_time("train_mlp")
        for name, st in all_dp_strategies(ctx.graph, four_gpu).items():
            outcome = ctx.builder.evaluate(st)
            if outcome.feasible:
                assert best <= outcome.time + 1e-9, name

    def test_history_recorded(self, trained_agent):
        ctx = trained_agent.context("train_mlp")
        assert len(ctx.history) == 12
        assert len(ctx.time_history) == 12

    def test_episodes_to_reach(self, trained_agent):
        trainer = trained_agent.trainer
        best = trained_agent.best_time("train_mlp")
        episodes = trainer.episodes_to_reach("train_mlp", best * 1.001)
        assert episodes is not None
        assert 1 <= episodes <= 12

    def test_episodes_to_reach_unreachable(self, trained_agent):
        assert trained_agent.trainer.episodes_to_reach("train_mlp", 0.0) is None

    def test_policy_state_roundtrip(self, trained_agent, four_gpu):
        state = trained_agent.policy_state()
        fresh = HeteroGAgent(four_gpu, SMALL)
        fresh.add_graph(make_mlp(name="train_mlp"))
        fresh.load_policy_state(state)
        a = trained_agent.policy.logits(
            trained_agent.context("train_mlp").features,
            trained_agent.context("train_mlp").neighbourhood,
            trained_agent.context("train_mlp").assignment,
        ).data
        b = fresh.policy.logits(
            fresh.context("train_mlp").features,
            fresh.context("train_mlp").neighbourhood,
            fresh.context("train_mlp").assignment,
        ).data
        assert np.allclose(a, b)

    def test_duplicate_graph_rejected(self, trained_agent):
        with pytest.raises(StrategyError):
            trained_agent.add_graph(make_mlp(name="train_mlp"))

    def test_unknown_graph_rejected(self, trained_agent):
        with pytest.raises(StrategyError):
            trained_agent.context("nope")

    def test_multi_graph_training(self, four_gpu):
        agent = HeteroGAgent(four_gpu, SMALL)
        agent.add_graph(make_mlp(name="g1"))
        agent.add_graph(make_mlp(name="g2", layers=2))
        agent.train(6)
        assert agent.best_time("g1") < float("inf")
        assert agent.best_time("g2") < float("inf")
