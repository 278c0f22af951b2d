"""Tests for the policy network, action encoding/decoding, and rewards."""

import tracemalloc

import numpy as np
import pytest

from repro.agent import (
    DP_ACTIONS,
    AgentConfig,
    FeatureEncoder,
    GATEncoder,
    MovingAverageBaseline,
    PolicyNetwork,
    action_to_op_strategy,
    actions_to_strategy,
    compute_reward,
    num_actions,
    uniform_action_vector,
)
from repro.errors import StrategyError
from repro.graph.grouping import group_operations
from repro.nn import Neighbourhood
from repro.parallel import CommMethod, ParallelKind, ReplicaAllocation
from repro.plan import EvalOutcome


@pytest.fixture(scope="module")
def grouping(mlp_graph):
    avg = {n: 1.0 for n in mlp_graph.op_names}
    return group_operations(mlp_graph, avg, max_groups=8)


# make module-scoped fixtures from conftest session fixtures available
@pytest.fixture(scope="module")
def mlp_graph():
    from tests.helpers import make_mlp
    return make_mlp()


class TestActionEncoding:
    def test_num_actions(self, four_gpu):
        assert num_actions(four_gpu) == 4 + 4

    def test_mp_actions_decode_to_devices(self, four_gpu):
        for m in range(4):
            st = action_to_op_strategy(four_gpu, m)
            assert st.kind is ParallelKind.MP
            assert st.device == f"gpu{m}"

    def test_dp_actions_decode(self, four_gpu):
        m = four_gpu.num_devices
        st = action_to_op_strategy(four_gpu, m + 0)
        assert st.allocation is ReplicaAllocation.EVEN
        assert st.comm is CommMethod.PS
        st = action_to_op_strategy(four_gpu, m + 3)
        assert st.allocation is ReplicaAllocation.PROPORTIONAL
        assert st.comm is CommMethod.ALLREDUCE

    def test_out_of_range_rejected(self, four_gpu):
        with pytest.raises(StrategyError):
            action_to_op_strategy(four_gpu, 8)
        with pytest.raises(StrategyError):
            action_to_op_strategy(four_gpu, -1)

    def test_actions_to_strategy_covers_graph(self, mlp_graph, four_gpu,
                                              grouping):
        actions = [0] * grouping.num_groups
        st = actions_to_strategy(mlp_graph, four_gpu, grouping, actions)
        for name in mlp_graph.op_names:
            assert st.get(name).devices() == ["gpu0"]

    def test_wrong_action_count_rejected(self, mlp_graph, four_gpu, grouping):
        with pytest.raises(StrategyError):
            actions_to_strategy(mlp_graph, four_gpu, grouping, [0])

    def test_uniform_action_vector(self, four_gpu, grouping):
        vec = uniform_action_vector(four_gpu, grouping,
                                    ReplicaAllocation.PROPORTIONAL,
                                    CommMethod.ALLREDUCE)
        assert len(vec) == grouping.num_groups
        assert all(a == 4 + 3 for a in vec)

    def test_dp_actions_table_matches_paper_order(self):
        labels = [(a.value, c.value) for a, c in DP_ACTIONS]
        assert labels == [("even", "ps"), ("even", "allreduce"),
                          ("proportional", "ps"),
                          ("proportional", "allreduce")]


class TestPolicyNetwork:
    def _policy(self, feature_dim=10, actions=8):
        return PolicyNetwork(feature_dim, actions, gat_hidden=16,
                             gat_layers=2, gat_heads=2, strategy_dim=16,
                             strategy_heads=2, strategy_layers=1, seed=0)

    def _inputs(self, n_ops=12, n_groups=4, feature_dim=10):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(n_ops, feature_dim))
        src, dst = np.nonzero(rng.random((n_ops, n_ops)) < 0.2)
        nbr = Neighbourhood.from_edges(n_ops, src, dst)
        assignment = np.zeros((n_groups, n_ops))
        assignment[rng.integers(0, n_groups, n_ops), np.arange(n_ops)] = 1.0
        return features, nbr, assignment

    def test_sample_shapes(self):
        policy = self._policy()
        f, a, s = self._inputs()
        sample = policy.sample(f, a, s, np.random.default_rng(1))
        assert sample.actions.shape == (4,)
        assert (sample.actions >= 0).all() and (sample.actions < 8).all()
        assert sample.probs.shape == (4, 8)
        assert np.allclose(sample.probs.sum(axis=-1), 1.0)

    def test_greedy_picks_argmax(self):
        policy = self._policy()
        f, a, s = self._inputs()
        sample = policy.sample(f, a, s, np.random.default_rng(1), greedy=True)
        assert (sample.actions == sample.probs.argmax(axis=-1)).all()

    def test_forced_actions(self):
        policy = self._policy()
        f, a, s = self._inputs()
        forced = np.asarray([1, 2, 3, 0])
        sample = policy.sample(f, a, s, np.random.default_rng(1),
                               forced_actions=forced)
        assert (sample.actions == forced).all()

    def test_log_prob_matches_probs(self):
        policy = self._policy()
        f, a, s = self._inputs()
        sample = policy.sample(f, a, s, np.random.default_rng(2))
        expected = np.log(
            sample.probs[np.arange(4), sample.actions]
        ).sum()
        assert sample.log_prob.item() == pytest.approx(expected, rel=1e-6)

    def test_entropy_positive(self):
        policy = self._policy()
        f, a, s = self._inputs()
        sample = policy.sample(f, a, s, np.random.default_rng(3))
        assert sample.entropy.item() > 0

    def test_gradients_flow_to_all_parameters(self):
        policy = self._policy()
        f, a, s = self._inputs()
        sample = policy.sample(f, a, s, np.random.default_rng(4))
        sample.log_prob.backward()
        with_grad = sum(1 for p in policy.parameters() if p.grad is not None)
        assert with_grad > 0.9 * len(policy.parameters())

    def test_sampling_deterministic_per_seed(self):
        policy = self._policy()
        f, a, s = self._inputs()
        s1 = policy.sample(f, a, s, np.random.default_rng(7))
        s2 = policy.sample(f, a, s, np.random.default_rng(7))
        assert (s1.actions == s2.actions).all()


class TestGATMemory:
    def test_encoder_memory_grows_with_edges_not_ops_squared(self):
        """Forward and backward at the default sizes on 5,000 ops with
        about four neighbours each stay far below the 200 MB of a single
        dense (O, O) float64 matrix."""
        ops, groups, feature_dim = 5000, 60, 16
        cfg = AgentConfig()
        rng = np.random.default_rng(0)
        dst = np.repeat(np.arange(1, ops), 2)
        src = (rng.random(dst.size) * dst).astype(np.int64)  # earlier op
        nbr = Neighbourhood.from_edges(ops, src, dst)
        features = rng.normal(size=(ops, feature_dim))
        assignment = np.zeros((groups, ops))
        assignment[rng.integers(0, groups, ops), np.arange(ops)] = 1.0
        encoder = GATEncoder(feature_dim, cfg.gat_hidden, cfg.gat_layers,
                             cfg.gat_heads, seed=0)
        tracemalloc.start()
        try:
            out = encoder(features, nbr, assignment)
            out.sum().backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(p.grad is not None for p in encoder.parameters())
        assert peak < 64 * 2 ** 20


class TestReward:
    def _outcome(self, time, oom=False, infeasible=False):
        return EvalOutcome(time=time, dist_ops=1,
                           oom_devices=["gpu0"] if oom else [],
                           infeasible=infeasible)

    def test_feasible_reward(self):
        assert compute_reward(self._outcome(4.0)) == pytest.approx(-2.0)

    def test_oom_multiplies_by_ten(self):
        assert compute_reward(self._outcome(4.0, oom=True)) == pytest.approx(-20.0)

    def test_infeasible_huge_penalty(self):
        assert compute_reward(self._outcome(float("inf"), infeasible=True)) < -100

    def test_faster_is_better(self):
        assert compute_reward(self._outcome(0.1)) > compute_reward(
            self._outcome(1.0))

    def test_baseline_moving_average(self):
        b = MovingAverageBaseline(0.5)
        assert b.update(10.0) == 10.0    # first reward is its own baseline
        assert b.update(20.0) == 10.0    # returns value before folding
        assert b.value == pytest.approx(15.0)

    def test_baseline_invalid_decay(self):
        with pytest.raises(ValueError):
            MovingAverageBaseline(1.5)


class TestFeatureEncoder:
    def test_feature_matrix_standardized(self, four_gpu):
        from tests.helpers import make_mlp
        from repro.profiling import Profiler
        g = make_mlp(name="feat_mlp")
        profile = Profiler(seed=0).profile(g, four_gpu)
        enc = FeatureEncoder(four_gpu, profile)
        mat = enc.encode(g)
        assert mat.shape[0] == len(g)
        assert abs(mat.mean()) < 0.5
        assert np.isfinite(mat).all()

    def test_adjacency_symmetric_with_self_loops(self, four_gpu):
        from tests.helpers import make_mlp
        from repro.profiling import Profiler
        g = make_mlp(name="feat_mlp2")
        profile = Profiler(seed=0).profile(g, four_gpu)
        enc = FeatureEncoder(four_gpu, profile)
        nbr = enc.neighbourhood(g)
        entries = set(zip(nbr.row.tolist(), nbr.col.tolist()))
        assert all((o, o) in entries for o in range(len(g)))
        assert entries == {(c, r) for r, c in entries}

    def test_avg_exec_times_cover_graph(self, four_gpu):
        from tests.helpers import make_mlp
        from repro.profiling import Profiler
        g = make_mlp(name="feat_mlp3")
        profile = Profiler(seed=0).profile(g, four_gpu)
        enc = FeatureEncoder(four_gpu, profile)
        avg = enc.average_exec_times(g)
        assert set(avg) == set(g.op_names)
        assert all(v > 0 for v in avg.values())
