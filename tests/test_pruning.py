"""Branch-and-bound candidate pruning: admissibility, winner identity,
best-so-far semantics, cache soundness and wire-protocol versioning.

The load-bearing guarantee under test: a pruned search returns the SAME
winning strategy with a byte-equal winning makespan as the unpruned
search — pruning only ever removes work, never changes results.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import telemetry
from repro.agent.policy import actions_to_strategy, num_actions
from repro.cluster import cluster_4gpu
from repro.errors import FleetProtocolError
from repro.graph import GraphBuilder, build_training_graph
from repro.graph.grouping import group_operations
from repro.graph.models import build_model, model_names
from repro.parallel import GraphCompiler
from repro.parallel.strategy import (
    CommMethod,
    ReplicaAllocation,
    Strategy,
    make_dp_strategy,
    make_mp_strategy,
)
from repro.plan import BestSoFar, PlanBuilder
from repro.profiling import Profiler, exact_profile
from repro.scheduling import ListScheduler
from repro.service.messages import (
    WIRE_VERSION,
    PlanRequestMessage,
    message_from_wire,
)
from repro.simulation import ProfileCostModel, Simulator
from repro.simulation.costs import TruthCostModel
from repro.simulation.kernel import kernel_lower_bound, lower

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


def serial_winner(builder: PlanBuilder, candidates, *, best=None):
    """argmin over a serial sweep: first index wins ties, like the
    strict-< update every search consumer uses."""
    outcomes = [builder.evaluate(s, best=best) for s in candidates]
    return _argmin(outcomes)


def unpruned_winner(builder: PlanBuilder, candidates):
    """The serial sweep's argmin on the oracle's unpruned pipeline."""
    return _argmin([unpruned_outcome(builder, s) for s in candidates])


def _argmin(outcomes):
    times = [o.time if o.feasible else float("inf") for o in outcomes]
    idx = min(range(len(times)), key=times.__getitem__)
    return idx, times[idx], outcomes


# --------------------------------------------------------------------- #
class TestBestSoFar:
    def test_starts_unbounded(self):
        best = BestSoFar()
        assert best.threshold() == float("inf")
        assert best.best == float("inf")

    def test_threshold_is_min_observed(self):
        best = BestSoFar()
        best.observe(5.0)
        best.observe(3.0)
        best.observe(7.0)
        assert best.threshold() == 3.0
        assert best.best == 3.0

    def test_hard_limit_caps_threshold(self):
        best = BestSoFar(limit=2.0)
        assert best.threshold() == 2.0
        best.observe(5.0)
        assert best.threshold() == 2.0
        best.observe(1.0)
        assert best.threshold() == 1.0

    def test_keep_k_waits_for_k_observations(self):
        best = BestSoFar(keep=3)
        best.observe(1.0)
        best.observe(2.0)
        # fewer than keep observations: pruning must not start
        assert best.threshold() == float("inf")
        best.observe(3.0)
        assert best.threshold() == 3.0  # kth smallest
        best.observe(0.5)
        assert best.threshold() == 2.0  # {0.5, 1.0, 2.0}

    def test_floor_requires_both_trackers(self):
        glob = BestSoFar()
        glob.observe(1.0)
        round_ = BestSoFar(keep=2, floor=glob)
        # round tracker not yet populated: threshold stays inf even
        # though the floor is tight (a candidate could still be elite)
        assert round_.threshold() == float("inf")
        round_.observe(4.0)
        round_.observe(6.0)
        # prune only above BOTH the round elite cut and the global best
        assert round_.threshold() == max(6.0, 1.0)

    def test_observe_forwards_to_floor(self):
        glob = BestSoFar()
        round_ = BestSoFar(floor=glob)
        round_.observe(2.5)
        assert glob.best == 2.5

    def test_ignores_nan_and_inf(self):
        best = BestSoFar()
        best.observe(float("inf"))
        best.observe(float("nan"))
        assert best.threshold() == float("inf")
        best.observe(1.0)
        assert best.threshold() == 1.0


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
        jittered = TruthCostModel(CLUSTER, jitter_sigma=0.1, seed=7)
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
        idx1, t1, outcomes = serial_winner(pruned, pool, best=BestSoFar())
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
        idx1, t1, _ = serial_winner(pruned, pool, best=BestSoFar())
        assert (idx1, t1) == (idx0, t0)

    def test_strict_mode_midsim_prune_admissible(self):
        """strict (non-work-conserving) engine mode: a pruned partial
        clock is a lower bound, and a loose limit changes nothing."""
        graph = random_graph(2, 16, 8, True)
        profile = exact_profile(graph, CLUSTER)
        strategy = candidate_strategies(
            graph, np.random.default_rng(3), 1)[0]
        compiler = GraphCompiler(CLUSTER, profile)
        dist = compiler.compile(graph, strategy)
        cost = ProfileCostModel(CLUSTER, profile)
        sim = Simulator(cost)
        prios = ListScheduler().schedule(dist, cost).priorities
        full = sim.run(dist, priorities=prios, strict=True)
        loose = sim.run(dist, priorities=prios, strict=True,
                        prune_above=full.makespan * 2)
        assert not loose.pruned
        assert loose.makespan == full.makespan
        cut = sim.run(dist, priorities=prios, strict=True,
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
        dist = GraphCompiler(CLUSTER, profile).compile(graph, strategy)
        ref_cost = TruthCostModel(CLUSTER, jitter_sigma=0.05, seed=11)
        ref = ListScheduler().schedule(dist, ref_cost)
        cut_cost = TruthCostModel(CLUSTER, jitter_sigma=0.05, seed=11)
        cut = ListScheduler().schedule(dist, cut_cost, prune_above=1e-12)
        assert cut.chosen == ref.chosen
        assert cut.estimated_makespan == ref.estimated_makespan
        assert not cut.sim_result.pruned


# --------------------------------------------------------------------- #
class TestCacheSoundness:
    def _pickable(self):
        """A (builder-factory, strategy, exact-time, bound) quadruple
        where the static bound is strictly below the true makespan, so a
        limit can be aimed between them to force a mid-sim prune."""
        graph = build_model("vgg19", "tiny")
        profile = exact_profile(graph, CLUSTER)
        scout = PlanBuilder(graph, CLUSTER, profile)
        for strategy in candidate_strategies(
                graph, np.random.default_rng(9), 8):
            outcome = scout.evaluate(strategy)
            if not outcome.feasible:
                continue
            bound = kernel_lower_bound(scout.build(strategy).kernel,
                                       scout.cost)
            if bound is not None and bound < outcome.time * 0.95:
                return (lambda: PlanBuilder(graph, CLUSTER, profile),
                        strategy, outcome.time, bound)
        pytest.skip("no candidate with bound strictly below makespan")

    def test_midsim_pruned_outcome_not_served_without_threshold(self):
        make, strategy, exact, bound = self._pickable()
        builder = make()
        limit = (bound + exact) / 2.0
        first = builder.evaluate(strategy, prune_above=limit)
        assert first.pruned and first.prune_stage == "midsim"
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
        """A cached "bound" outcome served by evaluate_many under a
        shared best-so-far counts as one served evaluation, so the
        pruned fraction stays defined and never above 1."""
        make, strategy, exact, bound = self._pickable()
        builder = make()
        first = builder.evaluate(strategy, prune_above=bound / 2.0)
        assert first.pruned and first.prune_stage == "bound"
        best = BestSoFar()
        best.observe(bound / 2.0)
        with telemetry.session() as tel:
            outcomes = builder.evaluate_many([strategy], best=best)
            fraction = tel.registry.get("plan_pruned_fraction").value
        assert outcomes == [first]
        assert (builder.evals_pruned, builder.evals_total) == (2, 2)
        assert fraction == 1.0

    def test_trace_bypasses_pruning(self):
        make, strategy, exact, bound = self._pickable()
        builder = make()
        outcome = builder.evaluate(strategy, trace=True,
                                   prune_above=bound / 2.0)
        assert not outcome.pruned
        assert outcome.time == exact


# --------------------------------------------------------------------- #
class TestWireProtocol:
    def test_version_bumped_for_prune_fields(self):
        """v2 added the prune fields of the evaluation frames; v3
        removed those frames and ``FailedMessage.kind``."""
        assert WIRE_VERSION == 3
        msg = PlanRequestMessage(ticket="t", queue_seconds=0.5)
        wire = msg.to_wire()
        assert wire["v"] == 3
        decoded = message_from_wire(wire)
        assert decoded == msg

    def test_old_version_frame_rejected(self):
        wire = PlanRequestMessage(ticket="t").to_wire()
        wire["v"] = 2
        with pytest.raises(FleetProtocolError):
            message_from_wire(wire)
