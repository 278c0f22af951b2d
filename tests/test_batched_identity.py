"""Paired fuzzing of the population surface.

``PlanBuilder.evaluate_many`` is the canonical population entry point;
its contract, hammered here across cost regimes:

- it is exactly the serial best-so-far sweep: on a fresh builder every
  outcome equals a loop of ``evaluate`` calls over the same pool, field
  for field;
- every *surviving* candidate's outcome is bit-identical to an unpruned
  serial ``evaluate`` of the same strategy (work-conserving and FIFO
  scheduling, the simulator and the test oracle's reference loop);
- the pruned winner is the unpruned winner, byte-equal makespan;
- candidates cut by the static kernel bound ("bound") or a
  mid-simulation abort ("midsim") report *admissible* partial
  makespans — ``outcome.bound`` never exceeds the true serial
  makespan, so no potential winner is ever pruned.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.agent.policy import actions_to_strategy, num_actions
from repro.cluster import cluster_4gpu
from repro.graph import GraphBuilder, build_training_graph
from repro.graph.grouping import group_operations
from repro.plan import BestSoFar, PlanBuilder
from repro.profiling import exact_profile

from tests.oracle import reference_simulator
from tests.oracle.unpruned import unpruned_outcome

CLUSTER = cluster_4gpu()


def random_graph(layers: int, width: int, batch: int, branches: bool):
    b = GraphBuilder(f"lanes_{layers}_{width}_{batch}_{branches}", batch)
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


def serial_truth(graph, profile, pool, **builder_kwargs):
    """Unpruned serial ground truth, from the oracle's pipeline."""
    builder = PlanBuilder(graph, CLUSTER, profile, **builder_kwargs)
    return [unpruned_outcome(builder, s) for s in pool]


def assert_paired(outcomes, truth):
    """The paired-fuzz contract for one (pruned, unpruned) pool sweep."""
    assert len(outcomes) == len(truth)
    for got, want in zip(outcomes, truth):
        if got.pruned:
            assert got.prune_stage in ("bound", "midsim")
            assert not got.feasible
            assert got.time == float("inf")
            assert got.bound is not None
            # admissible partial makespan: never above the true serial
            # makespan, so the lane provably could not have won
            if want.feasible:
                assert got.bound <= want.time + 1e-9
        else:
            # survivor: bit-identical to its serial evaluation
            assert got.time == want.time
            assert got.feasible == want.feasible
            assert got.oom == want.oom
    # winner identity (byte-equal), when any candidate is feasible
    times = [o.time if o.feasible else float("inf") for o in truth]
    idx = min(range(len(times)), key=times.__getitem__)
    if math.isfinite(times[idx]):
        got_times = [o.time if o.feasible else float("inf")
                     for o in outcomes]
        jdx = min(range(len(got_times)), key=got_times.__getitem__)
        assert (jdx, got_times[jdx]) == (idx, times[idx])
        assert not outcomes[jdx].pruned


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


# --------------------------------------------------------------------- #
class TestPairedIdentity:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_pool())
    def test_work_conserving(self, payload):
        graph, pool = payload
        profile = exact_profile(graph, CLUSTER)
        truth = serial_truth(graph, profile, pool)
        builder = PlanBuilder(graph, CLUSTER, profile)
        outcomes = builder.evaluate_many(pool, best=BestSoFar())
        assert_paired(outcomes, truth)

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_pool())
    def test_fifo_scheduling(self, payload):
        graph, pool = payload
        profile = exact_profile(graph, CLUSTER)
        truth = serial_truth(graph, profile, pool,
                             use_order_scheduling=False)
        builder = PlanBuilder(graph, CLUSTER, profile,
                              use_order_scheduling=False)
        outcomes = builder.evaluate_many(pool, best=BestSoFar())
        assert_paired(outcomes, truth)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_pool())
    def test_reference_engine_pairing(self, payload):
        """evaluate_many on the simulator vs an unpruned serial sweep
        on the oracle's reference loop: survivors byte-equal."""
        graph, pool = payload
        profile = exact_profile(graph, CLUSTER)
        with reference_simulator():
            truth = serial_truth(graph, profile, pool)
        builder = PlanBuilder(graph, CLUSTER, profile)
        outcomes = builder.evaluate_many(pool, best=BestSoFar())
        assert_paired(outcomes, truth)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_pool())
    def test_evaluate_many_equals_serial_sweep(self, payload):
        """On a fresh builder, evaluate_many over distinct candidates is
        the serial best-so-far sweep in input order, field for field."""
        graph, pool = payload
        profile = exact_profile(graph, CLUSTER)
        ref = PlanBuilder(graph, CLUSTER, profile)
        pool = list({ref.fingerprint(s): s for s in pool}.values())
        shared = BestSoFar()
        want = [ref.evaluate(s, best=shared) for s in pool]
        got = PlanBuilder(graph, CLUSTER, profile).evaluate_many(
            pool, best=BestSoFar())
        fields = ("time", "feasible", "oom", "pruned", "prune_stage", "bound")
        assert ([[getattr(o, f) for f in fields] for o in got]
                == [[getattr(o, f) for f in fields] for o in want])

    def test_unpruned_evaluate_many_is_the_serial_sweep(self):
        graph = random_graph(2, 16, 8, True)
        profile = exact_profile(graph, CLUSTER)
        pool = candidate_strategies(graph, np.random.default_rng(2), 5)
        truth = serial_truth(graph, profile, pool)
        builder = PlanBuilder(graph, CLUSTER, profile)
        outcomes = builder.evaluate_many(pool)
        for got, want in zip(outcomes, truth):
            assert not got.pruned
            assert got.time == want.time
            assert got.feasible == want.feasible

    def test_duplicate_strategies_share_one_outcome(self):
        graph = random_graph(2, 8, 4, False)
        profile = exact_profile(graph, CLUSTER)
        pool = candidate_strategies(graph, np.random.default_rng(4), 2)
        builder = PlanBuilder(graph, CLUSTER, profile)
        outcomes = builder.evaluate_many(
            [pool[0], pool[1], pool[0]], best=BestSoFar())
        assert outcomes[2] is outcomes[0]
        before = builder.evals_total
        builder.evaluate_many([pool[0], pool[0], pool[0]])
        # duplicates beyond the first occurrence never re-enter evaluate()
        assert builder.evals_total == before + 1


# --------------------------------------------------------------------- #
class TestPruneAboveLanes:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(graph_and_pool())
    def test_killed_lanes_report_admissible_partials(self, payload):
        """A threshold aimed at the winner kills the losing lanes, and
        every killed lane's recorded bound stays below its true serial
        makespan — the admissibility half of the contract."""
        graph, pool = payload
        profile = exact_profile(graph, CLUSTER)
        truth = serial_truth(graph, profile, pool)
        times = [o.time for o in truth if o.feasible]
        if not times:
            return  # nothing to prune against
        limit = min(times) * 1.0000001  # only the winner survives it
        builder = PlanBuilder(graph, CLUSTER, profile)
        outcomes = builder.evaluate_many(pool, prune_above=limit)
        assert_paired(outcomes, truth)
        for got, want in zip(outcomes, truth):
            if want.feasible and want.time > limit:
                assert got.pruned
