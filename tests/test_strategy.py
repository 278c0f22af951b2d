"""Tests for strategy types and grouping."""

import pytest

from repro.errors import GraphError, StrategyError
from repro.graph.grouping import group_operations
from repro.parallel import (
    CommMethod,
    OpStrategy,
    ParallelKind,
    ReplicaAllocation,
    Strategy,
    even_replica_counts,
    make_dp_strategy,
    make_mp_strategy,
    proportional_replica_counts,
    single_device_strategy,
    uniform_strategy,
)


class TestOpStrategy:
    def test_mp_requires_device(self):
        with pytest.raises(StrategyError):
            OpStrategy(ParallelKind.MP)

    def test_mp_rejects_replicas(self):
        with pytest.raises(StrategyError):
            OpStrategy(ParallelKind.MP, device="gpu0", replicas={"gpu0": 1})

    def test_dp_requires_replicas(self):
        with pytest.raises(StrategyError):
            OpStrategy(ParallelKind.DP, comm=CommMethod.PS)

    def test_dp_requires_comm(self):
        with pytest.raises(StrategyError):
            OpStrategy(ParallelKind.DP, replicas={"gpu0": 1})

    def test_dp_rejects_zero_count(self):
        with pytest.raises(StrategyError):
            OpStrategy(ParallelKind.DP, replicas={"gpu0": 0},
                       comm=CommMethod.PS)

    def test_batch_shares_mp(self):
        st = make_mp_strategy("gpu1")
        assert st.batch_shares() == {"gpu1": 1.0}

    def test_batch_shares_dp(self):
        st = OpStrategy(ParallelKind.DP, replicas={"a": 2, "b": 1, "c": 1},
                        comm=CommMethod.ALLREDUCE)
        shares = st.batch_shares()
        assert shares["a"] == pytest.approx(0.5)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_labels(self):
        assert make_mp_strategy("gpu3").label() == "MP:gpu3"
        st = OpStrategy(ParallelKind.DP, replicas={"a": 1},
                        comm=CommMethod.PS,
                        allocation=ReplicaAllocation.EVEN)
        assert st.label() == "EV-PS"

    def test_total_replicas(self):
        st = OpStrategy(ParallelKind.DP, replicas={"a": 2, "b": 3},
                        comm=CommMethod.PS)
        assert st.total_replicas == 5


class TestAllocations:
    def test_even_counts(self, eight_gpu):
        counts = even_replica_counts(eight_gpu)
        assert all(c == 1 for c in counts.values())
        assert len(counts) == 8

    def test_proportional_counts_reflect_power(self, eight_gpu):
        counts = proportional_replica_counts(eight_gpu)
        assert counts["gpu0"] == 2   # V100 = 2x the 1080Ti baseline
        assert counts["gpu2"] == 1   # 1080Ti

    def test_make_dp_strategy(self, four_gpu):
        st = make_dp_strategy(four_gpu, ReplicaAllocation.PROPORTIONAL,
                              CommMethod.ALLREDUCE)
        assert st.kind is ParallelKind.DP
        assert st.total_replicas >= four_gpu.num_devices


class TestStrategy:
    def test_unknown_op_rejected(self, mlp_graph, four_gpu):
        with pytest.raises(StrategyError):
            Strategy(mlp_graph, four_gpu, {"nope": make_mp_strategy("gpu0")})

    def test_unknown_device_rejected(self, mlp_graph, four_gpu):
        name = mlp_graph.op_names[0]
        with pytest.raises(StrategyError):
            Strategy(mlp_graph, four_gpu, {name: make_mp_strategy("gpu42")})

    def test_missing_strategy_rejected(self, mlp_graph, four_gpu):
        st = Strategy(mlp_graph, four_gpu)
        with pytest.raises(StrategyError):
            st.get(mlp_graph.op_names[0])

    def test_uniform_covers_all_ops(self, mlp_graph, four_gpu):
        st = uniform_strategy(mlp_graph, four_gpu, make_mp_strategy("gpu0"))
        for name in mlp_graph.op_names:
            assert st.get(name).device == "gpu0"

    def test_dp_demoted_for_non_replicable(self, mlp_graph, four_gpu):
        """ApplyGradient ops are never replicated (Sec. 5)."""
        st = uniform_strategy(
            mlp_graph, four_gpu,
            make_dp_strategy(four_gpu, ReplicaAllocation.EVEN, CommMethod.PS),
        )
        from repro.graph.op import OpPhase
        apply_ops = [o for o in mlp_graph if o.phase is OpPhase.APPLY]
        assert apply_ops
        for op in apply_ops:
            assert st.get(op.name).kind is ParallelKind.MP

    def test_single_device_strategy(self, mlp_graph, four_gpu):
        st = single_device_strategy(mlp_graph, four_gpu, "gpu2")
        mix = st.strategy_mix()
        assert mix == {"MP:gpu2": 1.0}

    def test_strategy_mix_sums_to_one(self, mlp_graph, four_gpu):
        st = uniform_strategy(
            mlp_graph, four_gpu,
            make_dp_strategy(four_gpu, ReplicaAllocation.EVEN,
                             CommMethod.ALLREDUCE),
        )
        assert sum(st.strategy_mix().values()) == pytest.approx(1.0)

    def test_set_overrides(self, mlp_graph, four_gpu):
        st = single_device_strategy(mlp_graph, four_gpu, "gpu0")
        name = mlp_graph.op_names[1]
        st.set(name, make_mp_strategy("gpu3"))
        assert st.get(name).device == "gpu3"


class TestGrouping:
    def test_fewer_ops_than_groups(self, mlp_graph):
        avg = {n: 1.0 for n in mlp_graph.op_names}
        g = group_operations(mlp_graph, avg, max_groups=10_000)
        assert g.num_groups == len(mlp_graph)

    def test_top_n_anchors_by_time(self, mlp_graph):
        avg = {n: float(i) for i, n in enumerate(mlp_graph.op_names)}
        g = group_operations(mlp_graph, avg, max_groups=3)
        assert g.num_groups == 3
        # anchors are the three longest-running ops
        top3 = sorted(avg, key=avg.get)[-3:]
        assert set(g.anchors) == set(top3)

    def test_every_op_assigned(self, mlp_graph):
        avg = {n: 1.0 for n in mlp_graph.op_names}
        g = group_operations(mlp_graph, avg, max_groups=4)
        assert set(g.group_of) == set(mlp_graph.op_names)
        assert all(0 <= v < 4 for v in g.group_of.values())

    def test_assignment_matrix_partition(self, mlp_graph):
        avg = {n: 1.0 for n in mlp_graph.op_names}
        g = group_operations(mlp_graph, avg, max_groups=5)
        index = {n: i for i, n in enumerate(mlp_graph.op_names)}
        mat = g.assignment_matrix(index)
        assert mat.shape == (5, len(mlp_graph))
        assert (mat.sum(axis=0) == 1.0).all()  # every op in exactly 1 group

    def test_missing_times_rejected(self, mlp_graph):
        with pytest.raises(GraphError):
            group_operations(mlp_graph, {}, max_groups=4)

    def test_invalid_max_groups(self, mlp_graph):
        avg = {n: 1.0 for n in mlp_graph.op_names}
        with pytest.raises(GraphError):
            group_operations(mlp_graph, avg, max_groups=0)

    def test_members_cover_graph(self, mlp_graph):
        avg = {n: 1.0 for n in mlp_graph.op_names}
        g = group_operations(mlp_graph, avg, max_groups=6)
        assert sorted(g.group_of) == sorted(mlp_graph.op_names)
        assert set(g.group_of.values()) <= set(range(g.num_groups))
