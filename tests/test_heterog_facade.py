"""Tests for the HeteroG facade and configuration plumbing."""

import pytest

from repro.agent import AgentConfig
from repro.cluster import cluster_4gpu
from repro.config import HeteroGConfig
from repro.heterog import HeteroG
from repro.parallel import single_device_strategy
from repro.plan import ExecutionPlan
from repro.resilience import FaultSchedule

from tests.helpers import make_mlp

FAST = AgentConfig(max_groups=8, gat_hidden=16, gat_layers=2, gat_heads=2,
                   strategy_dim=16, strategy_heads=2, strategy_layers=1)


@pytest.fixture(scope="module")
def four_gpu():
    return cluster_4gpu()


@pytest.fixture(scope="module")
def module(four_gpu):
    return HeteroG(four_gpu, HeteroGConfig(episodes=8, agent=FAST))


class TestFacade:
    def test_analyze_returns_analysis(self, module):
        graph = make_mlp(name="facade_a")
        analysis = module.analyze(graph)
        assert analysis.num_ops == len(graph)
        assert analysis.param_ops()
        assert analysis.gradient_ops()
        assert analysis.longest_path_flops() > 0

    def test_profile_covers_graph(self, module, four_gpu):
        graph = make_mlp(name="facade_b")
        profile = module.profile(graph)
        for op in graph:
            assert profile.op_time(op.name, "gpu0") > 0

    def test_plan_returns_feasible_strategy(self, module):
        graph = make_mlp(name="facade_c")
        strategy = module.plan(graph)
        assert sum(strategy.strategy_mix().values()) == pytest.approx(1.0)

    def test_deploy_and_run(self, module):
        graph = make_mlp(name="facade_d")
        deployment = module.deploy(graph)
        assert isinstance(deployment, ExecutionPlan)
        assert deployment.num_dist_ops >= len(graph)
        runner = module.runner(deployment)
        report = runner.run(2)
        assert report.mean_iteration_time > 0

    def test_order_scheduling_toggle(self, four_gpu):
        module = HeteroG(four_gpu, HeteroGConfig(
            episodes=4, use_order_scheduling=False, agent=FAST))
        graph = make_mlp(name="facade_e")
        deployment = module.deploy(graph)
        # FIFO scheduler: no candidate order was chosen
        assert deployment.schedule.chosen is None

    def test_replanner_carries_facade_config(self, four_gpu):
        """A replan searches under the facade's own configuration, noise
        settings included, not under the defaults."""
        config = HeteroGConfig(episodes=4, agent=FAST,
                               profile_noise_sigma=0.0,
                               engine_jitter_sigma=0.0)
        module = HeteroG(four_gpu, config)
        graph = make_mlp(name="facade_h")
        deployment = module.deploy(
            graph, strategy=single_device_strategy(graph, four_gpu))
        trainer = module.resilient_runner(
            deployment, FaultSchedule.parse("crash:gpu1@2"))
        assert trainer.replanner.config.profile_noise_sigma == 0.0
        assert trainer.replanner.config.engine_jitter_sigma == 0.0

    def test_config_seed_propagates(self, four_gpu):
        a = HeteroG(four_gpu, HeteroGConfig(episodes=5, seed=3, agent=FAST))
        b = HeteroG(four_gpu, HeteroGConfig(episodes=5, seed=3, agent=FAST))
        ga, gb = make_mlp(name="facade_f"), make_mlp(name="facade_f")
        sa, sb = a.plan(ga), b.plan(gb)
        assert {n: s.label() for n, s in sa.items()} == \
               {n: s.label() for n, s in sb.items()}

    def test_analysis_summary_keys(self, module):
        graph = make_mlp(name="facade_g")
        summary = module.analyze(graph).summary()
        assert {"ops", "edges", "param_ops", "gradient_ops",
                "critical_path_flops"} <= set(summary)


class TestConfig:
    def test_defaults(self):
        cfg = HeteroGConfig()
        assert cfg.episodes > 0
        assert cfg.use_order_scheduling
        assert isinstance(cfg.agent, AgentConfig)

    def test_paper_scale_config(self):
        cfg = AgentConfig.paper_scale()
        assert cfg.max_groups == 2000
        assert cfg.gat_layers == 12
        assert cfg.gat_heads == 8
        assert cfg.strategy_layers == 8
