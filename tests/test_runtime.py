"""Tests for the execution engine, runner, deployments, and API."""

import weakref

import pytest

import repro
from repro.agent import AgentConfig
from repro.baselines import dp_strategy
from repro.errors import OutOfMemoryError, ReproError
from repro.parallel import single_device_strategy
from repro.plan import PlanBuilder
from repro.resilience import FaultOverlay
from repro.runtime import (
    ConvergenceModel,
    DistributedRunner,
    ExecutionEngine,
    end_to_end_minutes,
)
from repro.service import PlanningService, PlanRequest
from repro.simulation import TruthCostModel
from repro.simulation.costs import _PRICE_CACHE_SLOTS
from repro.simulation.kernel import lower

from tests.helpers import make_mlp


class TestExecutionEngine:
    def test_jitter_varies_iterations(self, mlp_graph, four_gpu):
        dep = PlanBuilder(mlp_graph, four_gpu).build(
            single_device_strategy(mlp_graph, four_gpu))
        engine = ExecutionEngine(four_gpu, jitter_sigma=0.1, seed=0)
        stats = engine.measure(dep.dist, dep.schedule, dep.resident_bytes,
                               iterations=5)
        assert stats.iterations == 5
        assert stats.std > 0

    def test_zero_jitter_is_deterministic(self, mlp_graph, four_gpu):
        dep = PlanBuilder(mlp_graph, four_gpu).build(
            single_device_strategy(mlp_graph, four_gpu))
        engine = ExecutionEngine(four_gpu, jitter_sigma=0.0)
        stats = engine.measure(dep.dist, dep.schedule, dep.resident_bytes,
                               iterations=3)
        assert stats.std == pytest.approx(0.0)

    def test_oom_raises(self, four_gpu):
        """A graph whose parameters exceed one GPU must OOM on MP."""
        g = make_mlp(name="big_mlp", layers=2, width=4096)
        # inflate resident memory beyond the 11GB card by pinning to gpu2
        dep = PlanBuilder(g, four_gpu).build(
            single_device_strategy(g, four_gpu, "gpu2"))
        resident = {**dep.resident_bytes, "gpu2": 12 * 1024 ** 3}
        engine = ExecutionEngine(four_gpu)
        with pytest.raises(OutOfMemoryError):
            engine.run_iteration(dep.dist, dep.schedule, resident)

    def test_truth_differs_from_simulator_prediction(self, mlp_graph,
                                                     four_gpu):
        """The testbed and the Strategy Maker's simulator are different
        cost models (no circular evaluation)."""
        from repro.profiling import Profiler
        profile = Profiler(seed=0).profile(mlp_graph, four_gpu)
        st = dp_strategy("EV-AR", mlp_graph, four_gpu)
        sim_time = PlanBuilder(mlp_graph, four_gpu,
                               profile).evaluate(st).time
        dep = PlanBuilder(mlp_graph, four_gpu, profile).build(st)
        engine = ExecutionEngine(four_gpu, seed=3)
        truth = engine.measure(dep.dist, dep.schedule, dep.resident_bytes,
                               iterations=3).mean
        assert truth != pytest.approx(sim_time, rel=1e-6)
        # but they agree to within a plausible modelling error
        assert truth == pytest.approx(sim_time, rel=0.5)


class TestPriceCacheLifetime:
    """The truth model's price arrays live on its engine's provider,
    never on a kernel, so they die with the engine."""

    def test_measured_plan_kernel_holds_no_jittered_provider(
            self, mlp_graph, four_gpu):
        request = PlanRequest(
            graph=mlp_graph, cluster=four_gpu,
            strategy=dp_strategy("EV-AR", mlp_graph, four_gpu),
            measure_iterations=2)
        with PlanningService(workers=0) as service:
            assert service.plan(request).measured_time > 0
            plans = list(service.context_for(request).builder
                         .plan_cache._data.values())
        assert plans
        for plan in plans:
            kernel = plan.kernel
            for record in kernel._records.values():
                assert not isinstance(record.cost, TruthCostModel)

    def test_dropped_engine_dies_with_its_price_arrays(self, mlp_graph,
                                                       four_gpu):
        dep = PlanBuilder(mlp_graph, four_gpu).build(
            dp_strategy("EV-AR", mlp_graph, four_gpu))
        engine = ExecutionEngine(four_gpu, seed=0)
        engine.run_iteration(dep.dist, dep.schedule, dep.resident_bytes)
        kernel = lower(dep.dist)
        assert engine.cost._price_cache[id(kernel)][0] is kernel
        engine_ref = weakref.ref(engine)
        cost_ref = weakref.ref(engine.cost)
        del engine
        # no cycle keeps them: the engine, its provider and the provider's
        # price arrays go at once, while the plan's kernel lives on
        assert engine_ref() is None and cost_ref() is None
        assert lower(dep.dist) is kernel

    def test_long_lived_engine_keeps_at_most_the_slot_bound(
            self, mlp_graph, four_gpu):
        """A resilient trainer's engine runs a new kernel after every
        replan and a new overlay after every fault."""
        builder = PlanBuilder(mlp_graph, four_gpu)
        deps = [builder.build(dp_strategy(name, mlp_graph, four_gpu))
                for name in ("EV-AR", "CP-AR", "EV-PS", "CP-PS")]
        deps += [builder.build(
            single_device_strategy(mlp_graph, four_gpu, device))
                 for device in four_gpu.device_ids[:2]]
        assert len(deps) > _PRICE_CACHE_SLOTS
        engine = ExecutionEngine(four_gpu, seed=0)
        cache = engine.cost._price_cache
        for step, dep in enumerate(deps):
            if step == 2:
                engine.cost.set_fault_overlay(
                    FaultOverlay(compute_scale={"gpu3": 2.0}))
            for _ in range(2):
                engine.run_iteration(dep.dist, dep.schedule,
                                     dep.resident_bytes)
            assert len(cache) <= _PRICE_CACHE_SLOTS
            kernel, overlay = cache[id(lower(dep.dist))][:2]
            assert kernel is lower(dep.dist)
            assert overlay is engine.cost.fault_overlay


class TestRunner:
    def test_run_collects_iterations(self, mlp_graph, four_gpu):
        dep = PlanBuilder(mlp_graph, four_gpu).build(
            single_device_strategy(mlp_graph, four_gpu))
        runner = DistributedRunner(dep)
        report = runner.run(4)
        assert len(report.iteration_times) == 4
        assert report.total_seconds > 0

    def test_throughput_uses_global_batch(self, mlp_graph, four_gpu):
        dep = PlanBuilder(mlp_graph, four_gpu).build(
            single_device_strategy(mlp_graph, four_gpu))
        runner = DistributedRunner(dep)
        assert runner.global_batch == 8
        report = runner.run(2)
        assert report.throughput == pytest.approx(
            8 / report.mean_iteration_time)

    def test_invalid_steps(self, mlp_graph, four_gpu):
        dep = PlanBuilder(mlp_graph, four_gpu).build(
            single_device_strategy(mlp_graph, four_gpu))
        with pytest.raises(ReproError):
            DistributedRunner(dep).run(0)


class TestConvergence:
    def test_iterations_scale_inversely_with_batch(self):
        m192 = ConvergenceModel("vgg19", 192)
        m288 = ConvergenceModel("vgg19", 288)
        assert m192.iterations == pytest.approx(m288.iterations * 1.5, rel=0.01)

    def test_end_to_end_matches_paper_scale(self):
        """Paper Table 5: VGG19 CP-AR @8GPU = 0.591 s/iter -> ~661 min."""
        minutes = end_to_end_minutes("vgg19", 192, 0.591)
        assert minutes == pytest.approx(660.9, rel=0.05)

    def test_unknown_model_rejected(self):
        with pytest.raises(ReproError):
            ConvergenceModel("alexnet", 64).iterations


class TestClientAPI:
    CFG = repro.HeteroGConfig(
        episodes=6,
        agent=AgentConfig(max_groups=10, gat_hidden=16, gat_layers=2,
                          gat_heads=2, strategy_dim=16, strategy_heads=2,
                          strategy_layers=1),
    )

    def test_get_runner_end_to_end(self):
        runner = repro.get_runner(
            lambda: make_mlp(name="api_mlp"),
            lambda: repro.Dataset(batch_size=8),
            [{"host": "a", "gpu_model": "Tesla V100", "gpus": 2,
              "nic_gbps": 100},
             {"host": "b", "gpu_model": "GTX 1080Ti", "gpus": 2}],
            self.CFG,
        )
        report = runner.run(3)
        assert report.mean_iteration_time > 0

    def test_batch_mismatch_rejected(self):
        with pytest.raises(ReproError):
            repro.get_runner(
                lambda: make_mlp(name="api_mlp2"),
                lambda: repro.Dataset(batch_size=99),
                [{"host": "a", "gpu_model": "Tesla V100", "gpus": 2}],
                self.CFG,
            )

    def test_model_func_must_return_graph(self):
        with pytest.raises(ReproError):
            repro.get_runner(
                lambda: "not a graph",
                lambda: repro.Dataset(batch_size=8),
                [{"host": "a", "gpu_model": "Tesla V100", "gpus": 2}],
                self.CFG,
            )

    def test_unknown_gpu_model_rejected(self):
        with pytest.raises(ReproError):
            repro.parse_device_info(
                [{"host": "a", "gpu_model": "RTX 9090", "gpus": 2}])

    def test_missing_keys_rejected(self):
        with pytest.raises(ReproError):
            repro.parse_device_info([{"host": "a"}])

    def test_cluster_passthrough(self, four_gpu):
        assert repro.parse_device_info(four_gpu) is four_gpu

    def test_dataset_validation(self):
        with pytest.raises(ReproError):
            repro.Dataset(batch_size=0)


class TestHeteroGFacade:
    def test_plan_and_deploy(self, four_gpu):
        module = repro.HeteroG(four_gpu, TestClientAPI.CFG)
        g = make_mlp(name="facade_mlp")
        strategy = module.plan(g)
        dep = module.deploy(g, strategy)
        runner = module.runner(dep)
        report = runner.run(2)
        assert report.mean_iteration_time > 0
        # plan then deploy share one warm service context: the explicit-
        # strategy deploy reuses the search's profiled session
        assert module.service.stats.executed == 2
        result = module.plan_result(g, strategy=strategy)
        assert result.from_cache

    def test_analyze_requires_training_graph(self, four_gpu):
        from repro.errors import GraphError
        from repro.graph import GraphBuilder
        module = repro.HeteroG(four_gpu)
        b = GraphBuilder("fwd_only", 4)
        x = b.input((8,))
        b.dense(x, 4)
        with pytest.raises(GraphError):
            module.plan(b.graph)

    def test_every_front_door_rejects_a_forward_only_graph(self):
        """The Graph Analyzer's checks run once per planning context, so
        the facade's plan and deploy, the client API and the planning
        service all reject a graph without backward ops."""
        from repro.cluster import cluster_2gpu
        from repro.errors import GraphError
        from repro.graph import GraphBuilder

        def forward_only():
            b = GraphBuilder("fwd_loss_only", 4)
            b.softmax_loss(b.dense(b.input((8,)), 4), 4)
            return b.graph

        cluster = cluster_2gpu()
        doors = {
            "HeteroG.plan": lambda: repro.HeteroG(cluster).plan(
                forward_only()),
            "HeteroG.deploy": lambda: repro.HeteroG(cluster).deploy(
                forward_only()),
            "get_runner": lambda: repro.get_runner(
                forward_only, lambda: repro.Dataset(batch_size=4), cluster,
                TestClientAPI.CFG),
        }
        for name, door in doors.items():
            with pytest.raises(GraphError, match="no backward ops"):
                door()
        with PlanningService(workers=0) as service:
            with pytest.raises(GraphError, match="no backward ops"):
                service.plan(PlanRequest(graph=forward_only(),
                                         cluster=cluster))
            assert service.stats.executed == 0
