"""Tests for DP baselines and the related-work schemes."""

import numpy as np
import pytest

from repro.baselines import (
    DP_BASELINES,
    FlexFlowSearch,
    PostSearch,
    dp_strategy,
    hetpipe_strategy,
    horovod_strategy,
    virtual_workers,
)
from repro.baselines.post import sample_placements
from repro.parallel import CommMethod, ParallelKind
from repro.plan import PlanBuilder

from tests.helpers import make_mlp
from tests.oracle.unpruned import unpruned_outcome


class TestDPBaselines:
    def test_all_four_build(self, mlp_graph, four_gpu):
        for name in DP_BASELINES:
            strategy = dp_strategy(name, mlp_graph, four_gpu)
            assert {n for n, _ in strategy.items()} == set(mlp_graph.op_names)

    def test_unknown_rejected(self, mlp_graph, four_gpu):
        with pytest.raises(ValueError):
            dp_strategy("ZZ-99", mlp_graph, four_gpu)

    def test_ev_means_one_replica_per_device(self, mlp_graph, four_gpu):
        st = dp_strategy("EV-AR", mlp_graph, four_gpu)
        name = next(n for n in mlp_graph.op_names
                    if mlp_graph.op(n).is_replicable)
        op_st = st.get(name)
        assert op_st.total_replicas == 4
        assert all(c == 1 for c in op_st.replicas.values())

    def test_cp_gives_v100_more_replicas(self, mlp_graph, four_gpu):
        st = dp_strategy("CP-PS", mlp_graph, four_gpu)
        name = next(n for n in mlp_graph.op_names
                    if mlp_graph.op(n).is_replicable)
        op_st = st.get(name)
        assert op_st.replicas["gpu0"] > op_st.replicas["gpu2"]
        assert op_st.comm is CommMethod.PS


class TestHorovod:
    def test_strategy_is_ev_ar(self, mlp_graph, four_gpu):
        st = horovod_strategy(mlp_graph, four_gpu)
        name = next(n for n in mlp_graph.op_names
                    if mlp_graph.op(n).is_replicable)
        assert st.get(name).comm is CommMethod.ALLREDUCE

    def test_deployment_uses_default_order(self, mlp_graph, four_gpu):
        """Horovod keeps the framework's (nondeterministic) order, not
        HeteroG's rank order."""
        dep = PlanBuilder(mlp_graph, four_gpu, use_order_scheduling=False
                          ).build(horovod_strategy(mlp_graph, four_gpu))
        assert dep.schedule.chosen is None


class TestHetPipe:
    def test_virtual_workers_per_server(self, eight_gpu):
        vws = virtual_workers(eight_gpu)
        assert len(vws) == 4  # 4 servers in the 8-GPU preset
        assert sum(len(v) for v in vws) == 8

    def test_strategy_replicates_across_vws(self, mlp_graph, four_gpu):
        st = hetpipe_strategy(mlp_graph, four_gpu)
        name = next(n for n in mlp_graph.op_names
                    if mlp_graph.op(n).is_replicable)
        op_st = st.get(name)
        assert op_st.kind is ParallelKind.DP
        # one replica device per virtual worker (2 servers in 4-GPU preset)
        assert len(op_st.replicas) == 2

    def test_layer_blocks_spread_within_vw(self, four_gpu):
        g = make_mlp(name="hp_mlp", layers=6)
        st = hetpipe_strategy(g, four_gpu)
        devices_used = set()
        for name in g.op_names:
            devices_used.update(st.get(name).devices())
        assert devices_used == set(four_gpu.device_ids)

    def test_runs_end_to_end(self, mlp_graph, four_gpu):
        from repro.plan import PlanBuilder
        from repro.runtime import ExecutionEngine
        st = hetpipe_strategy(mlp_graph, four_gpu)
        dep = PlanBuilder(mlp_graph, four_gpu).build(st)
        stats = ExecutionEngine(four_gpu).measure(
            dep.dist, dep.schedule, dep.resident_bytes, iterations=2)
        assert stats.mean > 0


class TestSearchBaselines:
    def test_post_only_places(self, four_gpu):
        g = make_mlp(name="post_mlp")
        result = PostSearch(g, four_gpu, max_groups=6, seed=0).search(
            rounds=2, samples_per_round=4)
        for name in g.op_names:
            assert result.strategy.get(name).kind is ParallelKind.MP
        assert result.evaluations == 8
        assert result.time < float("inf")

    def test_flexflow_improves_over_start(self, four_gpu):
        g = make_mlp(name="ff_mlp")
        search = FlexFlowSearch(g, four_gpu, max_groups=6, seed=0)
        m = four_gpu.num_devices
        start = search._evaluate(np.full(search.grouping.num_groups, m + 1))
        result = search.search(iterations=25)
        assert result.time <= start + 1e-12

    def test_flexflow_never_uses_ps(self, four_gpu):
        g = make_mlp(name="ff_mlp2")
        result = FlexFlowSearch(g, four_gpu, max_groups=6, seed=1).search(
            iterations=15)
        for name in g.op_names:
            st = result.strategy.get(name)
            if st.kind is ParallelKind.DP:
                assert st.comm is CommMethod.ALLREDUCE

    @pytest.mark.parametrize("model, seed", [
        pytest.param("inception_v3", 0, id="0"),
        pytest.param("inception_v3", 1, id="1"),
        pytest.param("transformer", 0, id="transformer-0"),
        pytest.param("transformer", 1, id="transformer-1"),
    ])
    def test_post_pruning_is_search_transparent(self, four_gpu, model, seed,
                                                monkeypatch):
        """PostSearch always prunes; the pruned search must find the same
        strategy, time and evaluation count as the same search on the
        oracle's unpruned pipeline.  The models are the two ``cem/``
        golden entries."""
        from repro.graph.models import build_model
        graph = build_model(model, "tiny")
        pruned_search = PostSearch(graph, four_gpu, max_groups=8, seed=seed)
        pruned = pruned_search.search(rounds=2, samples_per_round=8)
        assert pruned_search.builder.evals_pruned > 0  # pruning fired

        search = PostSearch(graph, four_gpu, max_groups=8, seed=seed)
        monkeypatch.setattr(
            search.builder, "evaluate_many",
            lambda strategies, **_: [unpruned_outcome(search.builder, s)
                                     for s in strategies])
        unpruned = search.search(rounds=2, samples_per_round=8)
        assert unpruned.time == pruned.time
        assert unpruned.evaluations == pruned.evaluations
        assert (search.builder.fingerprint(unpruned.strategy)
                == pruned_search.builder.fingerprint(pruned.strategy))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_sampler_matches_per_draw_choice(self, seed):
        """One uniform batch per round draws exactly what one
        ``rng.choice(m, p=probs[g])`` per sample and group drew, and
        leaves the generator in the same state, zero columns included."""
        shape = np.random.default_rng(seed).random((12, 6))
        if seed % 2:
            shape[:, 2] = 0.0       # a device no group ever draws
            shape[3, :-1] = 0.0     # a group with one possible device
        probs = shape / shape.sum(axis=1, keepdims=True)
        old_rng = np.random.default_rng(seed + 10)
        new_rng = np.random.default_rng(seed + 10)
        old = np.array([[old_rng.choice(6, p=probs[g]) for g in range(12)]
                        for _ in range(20)])
        assert (sample_placements(new_rng, probs, 20) == old).all()
        assert (new_rng.bit_generator.state
                == old_rng.bit_generator.state)

    def test_search_deterministic_per_seed(self, four_gpu):
        g = make_mlp(name="det_mlp")
        r1 = PostSearch(g, four_gpu, max_groups=5, seed=3).search(rounds=2)
        r2 = PostSearch(g, four_gpu, max_groups=5, seed=3).search(rounds=2)
        assert r1.time == r2.time
