"""Branch-and-bound candidate pruning: admissibility, winner identity,
the ``evaluate_many(keep=k)`` threshold and cache soundness.

The load-bearing guarantee under test: a pruned search returns the SAME
winning strategy with a byte-equal winning makespan as the unpruned
search — pruning only ever removes work, never changes results.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import telemetry
from repro.agent import seed_action_vectors
from repro.agent.policy import actions_to_strategy, num_actions
from repro.baselines.dp import DP_BASELINES, dp_strategy
from repro.cluster import cluster_4gpu
from repro.graph import GraphBuilder, build_training_graph
from repro.graph.grouping import group_operations
from repro.graph.models import build_model, model_names
from repro.parallel import GraphCompiler
from repro.parallel.distgraph import DistGraph, DistOp, DistOpKind
from repro.parallel.strategy import (
    CommMethod,
    ReplicaAllocation,
    Strategy,
    make_dp_strategy,
    make_mp_strategy,
    single_device_strategy,
)
from repro.plan import EvalOutcome, PlanBuilder
from repro.profiling import Profiler
from repro.scheduling import ListScheduler
from repro.simulation import ProfileCostModel, Simulator
from repro.simulation.costs import MappingCostModel, TruthCostModel
from repro.simulation.kernel import (
    PRUNE_GUARD,
    SimKernel,
    kernel_lower_bound,
    lower,
)

from tests.helpers import exact_profile, make_mlp, pruned_sweep
from tests.oracle.unpruned import unpruned_outcome

CLUSTER = cluster_4gpu()


def random_graph(layers: int, width: int, batch: int, branches: bool):
    b = GraphBuilder(f"prune_{layers}_{width}_{batch}_{branches}", batch)
    x = b.input((8,))
    for i in range(layers):
        x = b.dense(x, width, layer=f"fc{i}")
        if branches and i % 2 == 0:
            left = b.activation(x, layer=f"l{i}")
            right = b.activation(x, kind="Gelu", layer=f"r{i}")
            x = b.add_n([left, right], layer=f"merge{i}")
        else:
            x = b.activation(x, layer=f"fc{i}")
    b.softmax_loss(x, 10)
    return build_training_graph(b)


def candidate_strategies(graph, rng: np.random.Generator, n: int,
                         groups: int = 6):
    grouping = group_operations(graph, {op: 1.0 for op in graph.op_names},
                                groups)
    return [
        actions_to_strategy(
            graph, CLUSTER, grouping,
            rng.integers(0, num_actions(CLUSTER), grouping.num_groups))
        for _ in range(n)
    ]


def serial_winner(builder: PlanBuilder, candidates):
    """argmin over a serial sweep pruned at the running best: first
    index wins ties, like the strict-< update every search consumer
    uses."""
    return _argmin(pruned_sweep(builder, candidates))


def unpruned_winner(builder: PlanBuilder, candidates):
    """The serial sweep's argmin on the oracle's unpruned pipeline."""
    return _argmin([unpruned_outcome(builder, s) for s in candidates])


def _argmin(outcomes):
    times = [o.time if o.feasible else float("inf") for o in outcomes]
    idx = min(range(len(times)), key=times.__getitem__)
    return idx, times[idx], outcomes


# --------------------------------------------------------------------- #
class TestKeepThreshold:
    """``evaluate_many(keep=k)`` cuts each distinct candidate at the k-th
    best exact feasible makespan seen so far in the call."""

    @staticmethod
    def limits(outcomes, keep, monkeypatch):
        """The prune limit each candidate was evaluated under, when the
        i-th distinct candidate evaluates to ``outcomes[i]``."""
        builder = PlanBuilder(make_mlp(name="keep_mlp"), CLUSTER)
        seen = []

        def evaluate(strategy, fp, limit):
            seen.append(limit)
            return outcomes[strategy]

        monkeypatch.setattr(builder, "fingerprint", lambda s: f"c{s}")
        monkeypatch.setattr(builder, "_evaluate", evaluate)
        got = builder.evaluate_many(list(range(len(outcomes))), keep=keep)
        assert got == list(outcomes)
        return seen

    @staticmethod
    def exact(*times):
        return [EvalOutcome(time=t, dist_ops=1) for t in times]

    def test_starts_unbounded(self, monkeypatch):
        assert self.limits(self.exact(4.0), 1, monkeypatch) == [None]
        # fewer than keep exact times: a candidate could still be among
        # the k best, so nothing is cut
        assert self.limits(self.exact(4.0, 6.0), 3,
                           monkeypatch) == [None, None]

    def test_threshold_is_min_observed(self, monkeypatch):
        assert self.limits(self.exact(5.0, 3.0, 7.0, 1.0), 1,
                           monkeypatch) == [None, 5.0, 3.0, 3.0]

    def test_keep_k_waits_for_k_observations(self, monkeypatch):
        # the cut is the k-th best exact time: {1, 2, 3}, then {0.5, 1, 2}
        assert self.limits(self.exact(1.0, 2.0, 3.0, 0.5, 2.5), 3,
                           monkeypatch) == [None, None, None, 3.0, 2.0]

    def test_only_exact_feasible_times_count(self, monkeypatch):
        """Infeasible, OOM and pruned outcomes never tighten the cut."""
        outcomes = [
            EvalOutcome(time=float("inf"), dist_ops=0, infeasible=True),
            EvalOutcome(time=1.0, dist_ops=1, oom_devices=["gpu0"]),
            EvalOutcome(time=float("inf"), dist_ops=1, pruned=True,
                        bound=0.5, prune_stage="bound"),
            *self.exact(2.0, 3.0),
        ]
        assert self.limits(outcomes, 1, monkeypatch) == [
            None, None, None, None, 2.0]

    def test_ties_survive_the_cut(self):
        """Two placements on identical GPUs tie exactly; under keep=1
        the second is evaluated at the first's time and survives."""
        graph = random_graph(2, 16, 8, True)
        builder = PlanBuilder(graph, CLUSTER, exact_profile(graph, CLUSTER))
        pair = [single_device_strategy(graph, CLUSTER, d)
                for d in ("gpu0", "gpu1")]
        first, second = builder.evaluate_many(pair, keep=1)
        assert first.feasible and second.feasible
        assert second.time == first.time

    def test_keep_must_be_positive(self):
        builder = PlanBuilder(make_mlp(name="keep0_mlp"), CLUSTER)
        with pytest.raises(ValueError):
            builder.evaluate_many([], keep=0)


# --------------------------------------------------------------------- #
class TestLowerBoundAdmissibility:
    @pytest.mark.parametrize("model", model_names())
    def test_bound_never_exceeds_makespan(self, model):
        """On every seed model family: bound <= simulated makespan."""
        graph = build_model(model, "tiny")
        profile = Profiler(seed=0).profile(graph, CLUSTER)
        builder = PlanBuilder(graph, CLUSTER, profile)
        # per-op strategies via the benchmark's random-pool recipe
        import random
        rng = random.Random(0)
        options = [make_mp_strategy(d) for d in CLUSTER.device_ids]
        options.append(make_dp_strategy(CLUSTER, ReplicaAllocation.EVEN,
                                        CommMethod.ALLREDUCE))
        pool = [
            Strategy(graph, CLUSTER,
                     {name: rng.choice(options)
                      for name in graph.op_names})
            for _ in range(2)
        ]
        for strategy in pool:
            outcome = builder.evaluate(strategy)
            if not outcome.feasible:
                continue
            plan = builder.build(strategy)
            bound = kernel_lower_bound(plan.kernel, builder.cost)
            assert bound is not None
            assert bound <= outcome.time + 1e-9

    def test_bound_none_for_stochastic_cost(self):
        graph = build_model("vgg19", "tiny")
        profile = exact_profile(graph, CLUSTER)
        builder = PlanBuilder(graph, CLUSTER, profile)
        plan = builder.build(candidate_strategies(
            graph, np.random.default_rng(0), 1)[0])
        jittered = TruthCostModel(CLUSTER, jitter_sigma=0.1,
                                  rng=np.random.default_rng(7))
        assert not jittered.deterministic
        assert kernel_lower_bound(plan.kernel, jittered) is None

    def test_bound_matches_on_repeat(self):
        graph = build_model("vgg19", "tiny")
        profile = exact_profile(graph, CLUSTER)
        builder = PlanBuilder(graph, CLUSTER, profile)
        plan = builder.build(candidate_strategies(
            graph, np.random.default_rng(1), 1)[0])
        first = kernel_lower_bound(plan.kernel, builder.cost)
        assert kernel_lower_bound(plan.kernel, builder.cost) == first


# --------------------------------------------------------------------- #
class TestOneMachineBound:
    """The static bound's per-resource one-machine terms and the
    engine's remaining-load cut, against complete simulations of every
    candidate order: every DP baseline, every exploration seed, random
    group actions and every one-group edit of the best seed."""

    FAMILIES = ("inception_v3", "transformer")
    #: prune limits, as fractions of an order's true makespan
    LIMIT_FRACTIONS = (0.7, 0.9, 0.99, 1.0, 1.01)

    def test_link_waiting_on_compute(self):
        """Three transfers on one link wait for the 4 s split feeding
        them: the link's term (head 4 + load 9 + tail 1) is the true
        makespan, where the critical path (8) and the busiest resource
        (9) fall short, and the remaining-load cut fires when the first
        transfer finishes at 7, since 7 + the 6 s still queued on the
        link exceeds a limit of 10."""
        graph = DistGraph("link_wait")
        graph.add(DistOp("split", DistOpKind.SPLIT, device="gpu0",
                         size_bytes=64.0))
        durations = {"split": 4.0}
        for k in range(3):
            graph.add(DistOp(f"send{k}", DistOpKind.TRANSFER,
                             src_device="gpu0", dst_device="gpu1",
                             size_bytes=64.0), deps=["split"])
            graph.add(DistOp(f"use{k}", DistOpKind.SPLIT, device="gpu1",
                             size_bytes=64.0), deps=[f"send{k}"])
            durations.update({f"send{k}": 3.0, f"use{k}": 1.0})
        cost = MappingCostModel(durations)
        sim = Simulator(cost)
        assert sim.run(graph).makespan == 14.0
        assert kernel_lower_bound(lower(graph), cost) == 14.0
        cut = sim.run(graph, prune_above=10.0)
        assert cut.pruned
        assert cut.makespan == 13.0

    @staticmethod
    def candidates(builder):
        graph = builder.graph
        grouping = group_operations(
            graph, {op: 1.0 for op in graph.op_names}, 6)

        def decode(actions):
            return actions_to_strategy(graph, CLUSTER, grouping, actions)

        seeds = seed_action_vectors(graph, CLUSTER, grouping)
        best = min(seeds,
                   key=lambda v: unpruned_outcome(builder, decode(v)).time)
        vectors = list(seeds)
        rng = np.random.default_rng(0)
        vectors += [rng.integers(0, num_actions(CLUSTER), grouping.num_groups)
                    for _ in range(8)]
        for g in range(grouping.num_groups):
            for action in range(num_actions(CLUSTER)):
                if action != best[g]:
                    edit = best.copy()
                    edit[g] = action
                    vectors.append(edit)
        return ([dp_strategy(name, graph, CLUSTER) for name in DP_BASELINES]
                + [decode(v) for v in vectors])

    @staticmethod
    def load_cut_fired(sim, dist, order, limit, kw, monkeypatch):
        """A pruned run was cut by its remaining load: without the load
        array the same run reports a different verdict or partial."""
        cut = sim.run(dist, order=order, prune_above=limit, **kw)
        with monkeypatch.context() as patch:
            patch.setattr(SimKernel, "loads_for", lambda self, cost: [
                -math.inf] * len(self.resource_names))
            tail_only = sim.run(dist, order=order, prune_above=limit, **kw)
        return (cut.pruned, cut.makespan) != (tail_only.pruned,
                                              tail_only.makespan)

    @pytest.mark.parametrize("model", FAMILIES)
    def test_bound_and_load_cut_admissible(self, model, monkeypatch):
        graph = build_model(model, "tiny")
        builder = PlanBuilder(graph, CLUSTER,
                              Profiler(seed=0).profile(graph, CLUSTER))
        cost = builder.cost
        sim = Simulator(cost)
        checked = load_cuts = 0
        for strategy in self.candidates(builder):
            outcome = unpruned_outcome(builder, strategy)
            if outcome.infeasible:
                continue
            dist, resident = builder.compile(strategy)
            kernel = lower(dist)
            kw = dict(resident_bytes=resident,
                      capacities=builder.capacities, kernel=kernel)
            times = {name: run.makespan for name, run in outcome.runs.items()}
            true = min(times.values())
            # a limited bound stops at the first term over the limit, and
            # is still a lower bound
            for frac in self.LIMIT_FRACTIONS:
                partial = kernel_lower_bound(kernel, cost, frac * true)
                assert partial <= true * (1 + PRUNE_GUARD)
            bound = kernel_lower_bound(kernel, cost)
            for time in times.values():
                assert bound <= time * (1 + PRUNE_GUARD)
            # never below the critical path and the busiest resource
            durations = kernel.durations_for(cost)
            busy = [0.0] * len(kernel.resource_names)
            for i, rids in enumerate(kernel.res_ids):
                for r in rids:
                    busy[r] += durations[i]
            path = max(d + t for d, t in zip(durations,
                                              kernel.tails_for(cost)))
            assert bound >= max(path, max(busy))

            orders = {"rank": ListScheduler()._rank_priorities(kernel, cost),
                      "earliest": None}
            for name, order in orders.items():
                for frac in self.LIMIT_FRACTIONS:
                    limit = frac * times[name]
                    cut = sim.run(dist, order=order, prune_above=limit, **kw)
                    checked += 1
                    if not cut.pruned:
                        assert cut.makespan == times[name]
                        continue
                    assert times[name] > limit
                    # like the tail cut's, the load cut's partial sums
                    # round differently from the event loop's clock
                    assert cut.makespan <= times[name] * (1 + PRUNE_GUARD)
                    load_cuts += self.load_cut_fired(
                        sim, dist, order, limit, kw, monkeypatch)
        assert checked >= 300
        assert load_cuts > 0


# --------------------------------------------------------------------- #
@st.composite
def graph_and_pool(draw):
    layers = draw(st.integers(1, 3))
    width = draw(st.sampled_from([8, 16]))
    batch = draw(st.sampled_from([4, 8]))
    branches = draw(st.booleans())
    seed = draw(st.integers(0, 1000))
    graph = random_graph(layers, width, batch, branches)
    rng = np.random.default_rng(seed)
    return graph, candidate_strategies(graph, rng, 5)


class TestWinnerIdentity:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_pool())
    def test_pruned_search_same_winner_order_scheduled(self, payload):
        graph, pool = payload
        profile = exact_profile(graph, CLUSTER)
        ref = PlanBuilder(graph, CLUSTER, profile)
        idx0, t0, _ = unpruned_winner(ref, pool)
        pruned = PlanBuilder(graph, CLUSTER, profile)
        idx1, t1, outcomes = serial_winner(pruned, pool)
        assert idx1 == idx0
        assert t1 == t0  # byte-equal, not approx
        # the winner itself is never a pruned outcome
        if math.isfinite(t1):
            assert not outcomes[idx1].pruned

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_pool())
    def test_pruned_search_same_winner_fifo(self, payload):
        graph, pool = payload
        profile = exact_profile(graph, CLUSTER)
        ref = PlanBuilder(graph, CLUSTER, profile,
                          use_order_scheduling=False)
        idx0, t0, _ = unpruned_winner(ref, pool)
        pruned = PlanBuilder(graph, CLUSTER, profile,
                             use_order_scheduling=False)
        idx1, t1, _ = serial_winner(pruned, pool)
        assert (idx1, t1) == (idx0, t0)

    def test_strict_mode_midsim_prune_admissible(self):
        """strict (non-work-conserving) engine mode: a pruned partial
        clock is a lower bound, and a loose limit changes nothing."""
        graph = random_graph(2, 16, 8, True)
        profile = exact_profile(graph, CLUSTER)
        strategy = candidate_strategies(
            graph, np.random.default_rng(3), 1)[0]
        compiler = GraphCompiler(ProfileCostModel(CLUSTER, profile))
        dist = compiler.compile(graph, strategy)
        cost = ProfileCostModel(CLUSTER, profile)
        sim = Simulator(cost)
        order = ListScheduler().schedule(dist, cost).order
        full = sim.run(dist, order=order, strict=True)
        loose = sim.run(dist, order=order, strict=True,
                        prune_above=full.makespan * 2)
        assert not loose.pruned
        assert loose.makespan == full.makespan
        cut = sim.run(dist, order=order, strict=True,
                      prune_above=full.makespan / 2)
        assert cut.pruned
        assert cut.makespan <= full.makespan + 1e-12

    def test_jittered_cost_disables_pruning(self):
        """Stochastic providers: pruning must not perturb RNG draws —
        the scheduler ignores prune_above outright."""
        graph = random_graph(2, 16, 8, False)
        profile = exact_profile(graph, CLUSTER)
        strategy = candidate_strategies(
            graph, np.random.default_rng(5), 1)[0]
        dist = GraphCompiler(ProfileCostModel(CLUSTER, profile)).compile(
            graph, strategy)
        ref_cost = TruthCostModel(CLUSTER, jitter_sigma=0.05,
                                  rng=np.random.default_rng(11))
        ref = ListScheduler().schedule(dist, ref_cost)
        cut_cost = TruthCostModel(CLUSTER, jitter_sigma=0.05,
                                  rng=np.random.default_rng(11))
        cut = ListScheduler().schedule(dist, cut_cost, prune_above=1e-12)
        assert cut.chosen == ref.chosen
        assert cut.sim_result.makespan == ref.sim_result.makespan
        assert not cut.sim_result.pruned


# --------------------------------------------------------------------- #
class TestCacheSoundness:
    def _pickable(self, use_order_scheduling=True):
        """A (builder-factory, strategy, exact-time, bound) quadruple
        where the static bound is strictly below the true makespan, so a
        limit can be aimed between them to force a mid-sim prune."""
        graph = build_model("vgg19", "tiny")
        profile = exact_profile(graph, CLUSTER)

        def make():
            return PlanBuilder(graph, CLUSTER, profile,
                               use_order_scheduling=use_order_scheduling)

        scout = make()
        for strategy in candidate_strategies(
                graph, np.random.default_rng(9), 8):
            outcome = scout.evaluate(strategy)
            if not outcome.feasible:
                continue
            bound = kernel_lower_bound(scout.build(strategy).kernel,
                                       scout.cost)
            if bound is not None and bound < outcome.time * 0.95:
                return make, strategy, outcome.time, bound
        pytest.skip("no candidate with bound strictly below makespan")

    @pytest.mark.parametrize("use_order_scheduling", [True, False],
                             ids=["order", "fifo"])
    def test_midsim_pruned_outcome_not_served_without_threshold(
            self, use_order_scheduling):
        make, strategy, exact, bound = self._pickable(use_order_scheduling)
        builder = make()
        limit = (bound + exact) / 2.0
        first = builder.evaluate(strategy, prune_above=limit)
        assert first.pruned and first.prune_stage == "midsim"
        # its run is partial: no plan of it is cached either
        assert builder.plan_cache.get(builder.fingerprint(strategy)) is None
        # same candidate with no threshold: must re-evaluate exactly,
        # never serve the threshold-dependent pruned entry
        second = builder.evaluate(strategy)
        assert not second.pruned
        assert second.time == exact

    def test_bound_pruned_outcome_served_only_under_tighter_threshold(self):
        make, strategy, exact, bound = self._pickable()
        builder = make()
        tight = bound / 2.0
        first = builder.evaluate(strategy, prune_above=tight)
        assert first.pruned and first.prune_stage == "bound"
        hits_before = builder.outcome_cache.hits
        again = builder.evaluate(strategy, prune_above=tight)
        assert again.pruned
        assert builder.outcome_cache.hits == hits_before + 1
        # loosened threshold above the recorded bound: cache miss, the
        # candidate might now win — exact evaluation required
        loose = builder.evaluate(strategy, prune_above=exact * 2.0)
        assert not loose.pruned
        assert loose.time == exact

    def test_pruned_counts_and_feasibility(self):
        make, strategy, exact, bound = self._pickable()
        builder = make()
        outcome = builder.evaluate(strategy, prune_above=bound / 2.0)
        assert outcome.pruned
        assert not outcome.feasible
        assert outcome.time == float("inf")
        assert outcome.bound is not None
        assert builder.evals_pruned == 1
        assert builder.evals_total == 1

    def test_cached_bound_outcome_served_by_evaluate_many(self):
        """A cached "bound" outcome served by evaluate_many under
        ``keep`` counts as one served evaluation, so the pruned fraction
        stays defined and never above 1."""
        make, strategy, exact, bound = self._pickable()
        builder = make()
        first = builder.evaluate(strategy, prune_above=bound / 2.0)
        assert first.pruned and first.prune_stage == "bound"
        # a faster candidate ahead of it sets a keep=1 cut below its bound
        scout = make()
        winner = next(
            s for s in candidate_strategies(
                scout.graph, np.random.default_rng(9), 32)
            if unpruned_outcome(scout, s).time < bound / 2.0)
        hits_before = builder.outcome_cache.hits
        with telemetry.session() as tel:
            outcomes = builder.evaluate_many([winner, strategy], keep=1)
            fraction = tel.registry.get("plan_pruned_fraction").value
        assert outcomes[1] == first
        assert builder.outcome_cache.hits == hits_before + 1
        assert (builder.evals_pruned, builder.evals_total) == (2, 3)
        assert fraction == 2 / 3
