"""Tests for the REINFORCE trainer, agent facade, and seed candidates."""

import dataclasses

import numpy as np
import pytest

from repro.agent import AgentConfig, HeteroGAgent, seed_action_vectors
from repro.agent.policy import actions_to_strategy, num_actions
from repro.agent.seeds import memory_ladder_strategy, rebalance_weights
from repro.cluster.device import CUDA_RESERVED_BYTES, GTX_1080TI, TESLA_V100
from repro.cluster.link import NIC_50G, NIC_100G, NVLINK, PCIE3
from repro.cluster.presets import SWITCH_BANDWIDTH
from repro.cluster.topology import Cluster, ServerSpec
from repro.errors import StrategyError
from repro.graph.grouping import group_operations
from repro.graph.models import build_model
from repro.parallel import single_device_strategy
from repro.plan import PlanBuilder
from repro.profiling import Profiler

from tests.helpers import make_mlp
from tests.oracle.unpruned import unpruned_evaluate, unpruned_outcome

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
            assert got.oom_devices == want.oom_devices
            schedule = builder.build(strategy).schedule
            assert schedule.chosen == want.chosen
            assert schedule.order.tolist() == want.order
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
        # CP-AR (action m + 3) opens the sweep, then EV-PS, EV-AR, CP-PS
        for i, offset in enumerate((3, 0, 1, 2)):
            assert (seeds[i] == m + offset).all()

    def test_ladder_uses_every_device_for_many_groups(self, four_gpu):
        g = make_mlp(name="seed_mlp3", layers=6)
        grouping = group_operations(g, {n: 1.0 for n in g.op_names}, 20)
        seeds = seed_action_vectors(g, four_gpu, grouping)
        ladder = seeds[4]  # memory-balanced MP ladder (after 4 DP seeds)
        assert set(ladder.tolist()) == set(range(four_gpu.num_devices))


def _tight_cluster() -> Cluster:
    """``cluster_4gpu`` with 3.1 MiB of usable memory per GPU: tiny
    transformer's DP seeds and its first MP ladder overflow, so the
    trainer repairs the ladder from the measured peaks, and the repaired
    ladder fits."""
    memory = CUDA_RESERVED_BYTES + int(3.1 * 2**20)
    return Cluster([
        ServerSpec("server0",
                   dataclasses.replace(TESLA_V100, memory_bytes=memory), 2,
                   NIC_100G, intra_link=NVLINK),
        ServerSpec("server1",
                   dataclasses.replace(GTX_1080TI, memory_bytes=memory), 2,
                   NIC_50G, intra_link=PCIE3),
    ], switch_bandwidth=SWITCH_BANDWIDTH)


def _swept(cluster, model: str, *, pruned: bool) -> HeteroGAgent:
    """An agent trained on tiny ``model`` for as many episodes as it has
    exploration seeds, so every episode evaluates a seed; ``pruned=False``
    evaluates each one to completion (the unpruned oracle)."""
    graph = build_model(model, "tiny")
    agent = HeteroGAgent(cluster, dataclasses.replace(SMALL, max_groups=8))
    ctx = agent.add_graph(graph, name=model)
    if not pruned:
        unpruned_evaluate(ctx.builder)
    agent.train(len(seed_action_vectors(graph, cluster, ctx.grouping)))
    return agent


def _fresh(cluster, graph):
    """An untrained agent on ``graph`` (8 groups) and its context."""
    agent = HeteroGAgent(cluster, dataclasses.replace(SMALL, max_groups=8))
    return agent, agent.add_graph(graph, name=graph.name)


def _record_evaluations(builder: PlanBuilder) -> list:
    """Wrap ``builder.evaluate``; returns the list it appends each
    call's ``(prune_above, outcome)`` to."""
    calls = []
    evaluate = builder.evaluate

    def recording(strategy, prune_above=None, **kwargs):
        outcome = evaluate(strategy, prune_above=prune_above, **kwargs)
        calls.append((prune_above, outcome))
        return outcome

    builder.evaluate = recording
    return calls


class TestSeedSweep:
    """The seeds are swept against the incumbent: no policy pass, no
    gradient, and a losing seed is pruned without moving the winner."""

    @pytest.mark.parametrize("model,cluster", [
        ("vgg19", "4gpu"), ("transformer", "4gpu"), ("bert_large", "4gpu"),
        ("transformer", "tight")])
    def test_sweep_matches_unpruned_oracle(self, four_gpu, model, cluster):
        cluster = four_gpu if cluster == "4gpu" else _tight_cluster()
        got = _swept(cluster, model, pruned=True)
        want = _swept(cluster, model, pruned=False)
        ctx = got.context(model)
        best = want.best_time(model)
        assert got.best_time(model).hex() == best.hex()
        assert (ctx.builder.fingerprint(got.best_strategy(model))
                == ctx.builder.fingerprint(want.best_strategy(model)))
        assert (got.trainer.episodes_to_reach(model, best)
                == want.trainer.episodes_to_reach(model, best))
        assert ctx.builder.evals_pruned > 0
        if cluster is not four_gpu:
            assert got.trainer._repair_attempts == {model: 1}
            assert want.trainer._repair_attempts == {model: 1}

    def test_raw_ladder_races_a_feasible_seed(self):
        """Uniform CP-AR is feasible for the mlp on 8 GPUs, so the first
        episode races the raw ladder against it: the ladder is pruned,
        and the pruned attempt is not rebalanced."""
        from repro.cluster import cluster_8gpu
        agent, ctx = _fresh(cluster_8gpu(), make_mlp(name="race_mlp"))
        calls = _record_evaluations(ctx.builder)
        agent.train(1)
        seed, ladder = calls
        assert seed[0] is None and seed[1].feasible
        assert ctx.best_actions is not None
        assert ladder[0] == seed[1].time == ctx.incumbent
        assert ladder[1].pruned
        assert ctx.best_raw_strategy is None
        assert ctx.best_episode == 1

    def test_raw_ladder_unpruned_without_a_feasible_seed(self):
        """On the tight cluster uniform CP-AR overflows, so the raw
        ladder runs to completion and is rebalanced from its measured
        peaks, and the group ladder is repaired once as before."""
        cluster = _tight_cluster()
        agent, ctx = _fresh(cluster, build_model("transformer", "tiny"))
        calls = _record_evaluations(ctx.builder)
        agent.train(1)
        assert calls[0][1].oom
        assert ctx.best_actions is None
        assert len(calls) > 2  # the ladder was rebalanced at least once
        assert all(limit is None for limit, _ in calls)
        assert all(not outcome.pruned for _, outcome in calls)
        agent.train(len(seed_action_vectors(ctx.graph, cluster,
                                            ctx.grouping)) - 1)
        assert agent.trainer._repair_attempts == {ctx.name: 1}

    @pytest.mark.parametrize("model", ["vgg19", "transformer", "bert_large"])
    def test_sweep_finds_the_unpruned_minimum(self, four_gpu, model):
        """With a budget covering every seed, the best time is the
        minimum over unpruned evaluations of every seed and of the raw
        ladder's rebalance loop."""
        got = _swept(four_gpu, model, pruned=True)
        _, ctx = _fresh(four_gpu, build_model(model, "tiny"))
        builder = unpruned_evaluate(ctx.builder)
        times = [builder.evaluate(actions_to_strategy(
                     ctx.graph, four_gpu, ctx.grouping, actions)).time
                 for actions in seed_action_vectors(
                     ctx.graph, four_gpu, ctx.grouping)]
        weights = None
        for _ in range(4):
            outcome = builder.evaluate(
                memory_ladder_strategy(ctx.graph, four_gpu, weights))
            times.append(outcome.time)
            if outcome.feasible or not outcome.peak_memory:
                break
            weights = rebalance_weights(four_gpu, outcome.peak_memory)
        assert got.trainer._repair_attempts == {}
        assert got.best_time(model).hex() == min(times).hex()

    def test_seeds_take_no_gradient(self, four_gpu):
        graph = build_model("vgg19", "tiny")
        agent = HeteroGAgent(four_gpu, SMALL)
        ctx = agent.add_graph(graph)
        before = agent.policy_state()
        seeds = len(seed_action_vectors(graph, four_gpu, ctx.grouping))
        agent.train(seeds)
        after = agent.policy_state()
        assert all(np.array_equal(before[k], after[k]) for k in before)
        agent.train(1)  # the first sampled episode trains the policy
        assert not all(np.array_equal(before[k], v)
                       for k, v in agent.policy_state().items())


    def test_sweeping_context_adds_no_loss(self):
        """Two contexts, one still sweeping: tiny transformer's ladder
        repair stretches its sweep to 16 episodes, while the mlp samples
        at episode 16.  The sweeping context contributes no loss term,
        so the policy and every episode's time match the solo runs."""
        cluster = _tight_cluster()
        config = dataclasses.replace(SMALL, max_groups=8)
        graphs = {"mlp": make_mlp(name="mlp"),
                  "transformer": build_model("transformer", "tiny")}

        def trained(*names):
            agent = HeteroGAgent(cluster, config)
            for name in names:
                agent.add_graph(graphs[name], name=name)
            agent.train(16)
            return agent

        both = trained("mlp", "transformer")
        mlp = both.context("mlp")
        assert len(seed_action_vectors(mlp.graph, cluster,
                                       mlp.grouping)) == 15
        assert both.trainer._repair_attempts == {"transformer": 1}
        initial = HeteroGAgent(cluster, config)
        initial.add_graph(graphs["mlp"], name="mlp")
        before = initial.policy_state()
        state = both.policy_state()
        assert not all(np.array_equal(before[k], v)
                       for k, v in state.items())
        solo = trained("mlp").policy_state()
        assert state.keys() == solo.keys()
        assert all(np.array_equal(solo[k], v) for k, v in state.items())
        for name in graphs:
            want = trained(name).context(name).time_history
            got = both.context(name).time_history
            assert [t.hex() for t in got] == [t.hex() for t in want]

class TestTrainer:
    def test_best_strategy_feasible(self, trained_agent):
        st = trained_agent.best_strategy("train_mlp")
        assert st is not None
        assert trained_agent.best_time("train_mlp") < float("inf")

    def test_best_no_worse_than_uniform_baselines(self, trained_agent,
                                                  four_gpu):
        """Seeded exploration guarantees HeteroG >= best uniform DP in the
        simulator (the paper's Table 1 invariant)."""
        from repro.baselines import DP_BASELINES, dp_strategy
        ctx = trained_agent.context("train_mlp")
        best = trained_agent.best_time("train_mlp")
        for name in DP_BASELINES:
            outcome = ctx.builder.evaluate(
                dp_strategy(name, ctx.graph, four_gpu))
            if outcome.feasible:
                assert best <= outcome.time + 1e-9, name

    def test_history_recorded(self, trained_agent):
        ctx = trained_agent.context("train_mlp")
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
