"""Learning-dynamics tests: the policy must actually learn."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.transformer_xl import RelativePositionBias, StrategyNetwork
from repro.nn.optim import Adam


class TestRelativePositionBias:
    def test_shape(self):
        bias = RelativePositionBias(heads=2, max_distance=4,
                                    rng=np.random.default_rng(0))
        out = bias(6)
        assert out.shape == (2, 6, 6)

    def test_translation_invariance(self):
        """Bias depends only on i - j (clipped)."""
        bias = RelativePositionBias(heads=1, max_distance=8,
                                    rng=np.random.default_rng(0))
        mat = bias(5).data[0]
        assert mat[0, 1] == pytest.approx(mat[2, 3])
        assert mat[1, 0] == pytest.approx(mat[3, 2])
        assert mat[0, 1] != pytest.approx(mat[1, 0])  # direction matters

    def test_clipping_beyond_max_distance(self):
        bias = RelativePositionBias(heads=1, max_distance=2,
                                    rng=np.random.default_rng(0))
        mat = bias(6).data[0]
        assert mat[0, 3] == pytest.approx(mat[0, 5])  # both clipped to +2

    def test_gradients_flow(self):
        bias = RelativePositionBias(heads=2, max_distance=3,
                                    rng=np.random.default_rng(0))
        out = bias(4)
        F.sum(F.mul(out, out)).backward()
        assert bias.table.grad is not None
        assert np.abs(bias.table.grad).sum() > 0


class TestPolicyLearning:
    def test_network_can_overfit_a_target_action(self):
        """REINFORCE-style updates must be able to concentrate the policy
        on a rewarded action — the minimal learning sanity check."""
        rng = np.random.default_rng(0)
        net = StrategyNetwork(6, 5, dim=16, heads=2, layers=1, seed=0)
        opt = Adam(net.parameters(), lr=5e-3)
        x = rng.normal(size=(3, 6))
        target = np.asarray([2, 0, 4])
        one_hot = np.eye(5)[target]
        for _ in range(150):
            logits = net(Tensor(x))
            logp = F.log_softmax(logits, axis=-1)
            loss = F.scale(F.sum(F.mul(logp, Tensor(one_hot))), -1.0)
            opt.zero_grad()
            loss.backward()
            opt.step()
        probs = np.exp(F.log_softmax(net(Tensor(x)), axis=-1).data)
        assert (probs.argmax(axis=-1) == target).all()
        assert probs[np.arange(3), target].min() > 0.8

    def test_entropy_decay_in_trainer(self, monkeypatch):
        """The trainer anneals its entropy weight per episode."""
        from repro.agent import AgentConfig, HeteroGAgent, reinforce
        from repro.cluster import cluster_4gpu
        from tests.helpers import make_mlp
        monkeypatch.setattr(reinforce, "ENTROPY_DECAY", 0.9)
        cfg = AgentConfig(max_groups=6, gat_hidden=16, gat_layers=2,
                          gat_heads=2, strategy_dim=16, strategy_heads=2,
                          strategy_layers=1)
        agent = HeteroGAgent(cluster_4gpu(), cfg)
        agent.add_graph(make_mlp(name="entropy_mlp"))
        before = agent.trainer._entropy_weight
        agent.train(3)
        after = agent.trainer._entropy_weight
        assert after == pytest.approx(before * 0.9 ** 3)

    def test_rewards_trend_upward_with_seeds(self):
        """Best-so-far simulated time is monotonically non-increasing."""
        from repro.agent import AgentConfig, HeteroGAgent
        from repro.cluster import cluster_4gpu
        from tests.helpers import make_mlp
        cfg = AgentConfig(max_groups=8, gat_hidden=16, gat_layers=2,
                          gat_heads=2, strategy_dim=16, strategy_heads=2,
                          strategy_layers=1)
        agent = HeteroGAgent(cluster_4gpu(), cfg)
        agent.add_graph(make_mlp(name="trend_mlp"))
        best_curve = []
        for _ in range(8):
            agent.trainer.train_episode()
            best_curve.append(agent.best_time("trend_mlp"))
        assert all(b >= a - 1e-12 for a, b in zip(best_curve[1:],
                                                  best_curve[:-1]))
        assert best_curve[-1] < float("inf")
