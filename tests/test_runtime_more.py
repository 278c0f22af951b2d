"""Additional runtime/deployment/convergence tests."""

import pytest

from repro.cluster import cluster_4gpu
from repro.parallel import single_device_strategy
from repro.parallel.serialize import load_strategy, save_strategy
from repro.plan import PlanBuilder
from repro.profiling import Profiler
from repro.runtime import (
    SAMPLES_TO_TARGET,
    ConvergenceModel,
    DistributedRunner,
)

from tests.helpers import make_mlp


@pytest.fixture(scope="module")
def four_gpu():
    return cluster_4gpu()


class TestDeployment:
    """A deployment is the plan ``PlanBuilder.build`` returns."""

    def test_build_defaults_profile(self, four_gpu):
        g = make_mlp(name="dep_mlp")
        dep = PlanBuilder(g, four_gpu).build(
            single_device_strategy(g, four_gpu))
        assert dep.profile is not None
        assert dep.num_dist_ops == len(g)

    def test_deployment_reuses_given_profile(self, four_gpu):
        g = make_mlp(name="dep_mlp2")
        profile = Profiler(seed=0).profile(g, four_gpu)
        dep = PlanBuilder(g, four_gpu, profile).build(
            single_device_strategy(g, four_gpu))
        assert dep.profile is profile

    def test_saved_strategy_redeploys_identically(self, four_gpu, tmp_path):
        """The strategy-artifact workflow: search once, persist, redeploy."""
        g = make_mlp(name="dep_mlp3")
        strategy = single_device_strategy(g, four_gpu, "gpu1")
        path = str(tmp_path / "st.json")
        save_strategy(strategy, path)
        loaded = load_strategy(path, g, four_gpu)
        d1 = PlanBuilder(g, four_gpu).build(strategy)
        d2 = PlanBuilder(g, four_gpu).build(loaded)
        assert d1.dist.op_names == d2.dist.op_names
        r1 = DistributedRunner(d1).run(2)
        r2 = DistributedRunner(d2).run(2)
        assert r1.mean_iteration_time == pytest.approx(
            r2.mean_iteration_time, rel=0.2)


class TestDeploymentConstructorShapes:
    """A deployment is an ``ExecutionPlan``: the runtime exports no
    deployment type or constructor of its own."""

    def test_deprecated_aliases_removed(self):
        import repro.runtime as runtime
        for name in ("make_deployment", "deployment_from_plan",
                     "Deployment", "build_deployment"):
            assert not hasattr(runtime, name), name


class TestConvergenceModel:
    def test_all_cnn_models_have_budgets(self):
        for model in ("vgg19", "resnet200", "inception_v3", "mobilenet_v2",
                      "nasnet"):
            assert model in SAMPLES_TO_TARGET

    def test_iterations_rounding(self):
        m = ConvergenceModel("vgg19", 192)
        assert m.iterations == round(SAMPLES_TO_TARGET["vgg19"] / 192)

    def test_minutes_proportional_to_iteration_time(self):
        m = ConvergenceModel("nasnet", 192)
        assert m.end_to_end_minutes(1.0) == pytest.approx(
            2 * m.end_to_end_minutes(0.5))

    def test_paper_table5_cross_check_12gpu(self):
        """Paper consistency: Table 5's 12-GPU HeteroG minutes over
        Table 4's per-iteration time gives 2/3 the 8-GPU iteration count
        (global batch x1.5)."""
        iters_8 = 513.1 * 60 / 0.462
        iters_12 = 369.8 * 60 / 0.503
        assert iters_12 == pytest.approx(iters_8 * 2 / 3, rel=0.02)


class TestTrainingReport:
    def test_empty_report_nan(self):
        from repro.runtime.runner import TrainingReport
        r = TrainingReport(steps=0, global_batch=8)
        assert r.throughput == 0.0
        assert r.total_seconds == 0.0
