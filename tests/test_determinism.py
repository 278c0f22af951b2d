"""End-to-end determinism: every stochastic component is seed-driven."""

import pytest

from repro.cluster import cluster_4gpu
from repro.baselines import dp_strategy, post_strategy
from repro.experiments import ExperimentContext
from repro.profiling import Profiler

from tests.helpers import make_mlp


@pytest.fixture(scope="module")
def four_gpu():
    return cluster_4gpu()


def test_profile_then_measure_reproducible(four_gpu):
    """Same seeds end to end -> identical measured iteration time."""
    def run():
        g = make_mlp(name="det_e2e")
        ctx = ExperimentContext(four_gpu, seed=11)
        return ctx.measure(g, dp_strategy("CP-AR", g, four_gpu), "CP-AR").time

    assert run() == run()


def test_engine_seed_changes_measurement(four_gpu):
    g = make_mlp(name="det_e2e2")
    a = ExperimentContext(four_gpu, seed=1)
    b = ExperimentContext(four_gpu, seed=2)
    ta = a.measure(g, dp_strategy("CP-AR", g, four_gpu), "CP-AR").time
    tb = b.measure(g, dp_strategy("CP-AR", g, four_gpu), "CP-AR").time
    assert ta != tb
    assert ta == pytest.approx(tb, rel=0.2)  # jitter, not chaos


def test_heterog_search_reproducible(four_gpu):
    from repro.agent import AgentConfig

    cfg = AgentConfig(max_groups=8, gat_hidden=16, gat_layers=2,
                      gat_heads=2, strategy_dim=16, strategy_heads=2,
                      strategy_layers=1, seed=5)

    def run():
        g = make_mlp(name="det_search")
        ctx = ExperimentContext(four_gpu, seed=5)
        return ctx.run_heterog(g, episodes=6, agent_config=cfg).time

    assert run() == run()


def test_post_search_independent_of_call_order(four_gpu):
    """Searches must not leak RNG state between invocations."""
    g1 = make_mlp(name="det_post1")
    g2 = make_mlp(name="det_post2", layers=2)
    t_alone = post_strategy(g1, four_gpu, seed=9, rounds=2)
    post_strategy(g2, four_gpu, seed=1, rounds=2)  # interleaved other work
    t_again = post_strategy(g1, four_gpu, seed=9, rounds=2)
    mix_a = t_alone.strategy_mix()
    mix_b = t_again.strategy_mix()
    assert mix_a == mix_b


def test_profiler_noise_isolated_per_seed(four_gpu):
    g = make_mlp(name="det_prof")
    p1 = Profiler(seed=3).profile(g, four_gpu)
    p2 = Profiler(seed=3).profile(g, four_gpu)
    name = g.op_names[5]
    assert p1.op_time(name, "gpu2") == p2.op_time(name, "gpu2")


def test_faulted_run_reproducible(four_gpu):
    """Same seed + same fault schedule -> identical simulated timeline,
    including detection iterations and the post-replan deployment."""
    from repro.agent import AgentConfig
    from repro.config import HeteroGConfig
    from repro.plan import PlanBuilder
    from repro.profiling import Profiler
    from repro.resilience import (
        FaultInjector,
        FaultSchedule,
        Replanner,
        ResilientTrainer,
    )
    from repro.runtime import ExecutionEngine

    cfg = AgentConfig(max_groups=8, gat_hidden=16, gat_layers=2,
                      gat_heads=2, strategy_dim=16, strategy_heads=2,
                      strategy_layers=1, seed=5)

    def run():
        g = make_mlp(name="det_faults")
        profile = Profiler(seed=0).profile(g, four_gpu)
        deployment = PlanBuilder(g, four_gpu, profile).build(
            dp_strategy("CP-AR", g, four_gpu))
        injector = FaultInjector(
            four_gpu,
            FaultSchedule.parse("straggler:gpu3@1x2.0, crash:gpu1@3"))
        engine = ExecutionEngine(four_gpu, seed=21,
                                 fault_injector=injector)
        replanner = Replanner(g, four_gpu,
                              config=HeteroGConfig(seed=5, agent=cfg),
                              episodes=2)
        trainer = ResilientTrainer(deployment, injector, engine=engine,
                                   replanner=replanner)
        report = trainer.run(6)
        return (
            report.iteration_times,
            [(d.iteration, d.kind, d.resource) for d in report.detections],
            trainer.deployment.strategy.strategy_mix(),
        )

    assert run() == run()


def test_empty_fault_schedule_is_inert(four_gpu):
    """An injector with no faults leaves the engine's RNG stream and
    timeline bit-identical to a run without any injector."""
    from repro.plan import PlanBuilder
    from repro.profiling import Profiler
    from repro.resilience import FaultInjector, FaultSchedule
    from repro.runtime import ExecutionEngine

    g = make_mlp(name="det_inert")
    profile = Profiler(seed=0).profile(g, four_gpu)
    deployment = PlanBuilder(g, four_gpu, profile).build(
        dp_strategy("CP-AR", g, four_gpu))

    def run(injector):
        engine = ExecutionEngine(four_gpu, seed=13,
                                 fault_injector=injector)
        stats = engine.measure(deployment.dist, deployment.schedule,
                               deployment.resident_bytes, iterations=4)
        return stats.times

    assert run(None) == \
        run(FaultInjector(four_gpu, FaultSchedule.empty()))
