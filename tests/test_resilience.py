"""Resilience subsystem: fault injection, detection, elastic replanning."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.agent import AgentConfig
from repro.baselines import dp_strategy
from repro.cluster import cluster_4gpu
from repro.config import HeteroGConfig
from repro.errors import DeviceLostError, PlacementError, ReproError
from repro.parallel.distgraph import DistGraph, DistOpKind
from repro.plan import PlanBuilder
from repro.profiling import Profiler
from repro.resilience import (
    FailureDetector,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    Replanner,
    ResilientTrainer,
)
from repro.runtime import ExecutionEngine

from tests.helpers import make_mlp

TINY_AGENT = dict(max_groups=8, gat_hidden=16, gat_layers=2, gat_heads=2,
                  strategy_dim=16, strategy_heads=2, strategy_layers=1)


@pytest.fixture(scope="module")
def four_gpu():
    return cluster_4gpu()


@pytest.fixture(scope="module")
def mlp():
    return make_mlp(name="resil_mlp")


@pytest.fixture(scope="module")
def deployment(four_gpu, mlp):
    profile = Profiler(seed=0).profile(mlp, four_gpu)
    strategy = dp_strategy("CP-AR", mlp, four_gpu)
    return PlanBuilder(mlp, four_gpu, profile).build(strategy)


def touched_devices(dist: DistGraph):
    """Every device id an op of ``dist`` computes on or communicates with."""
    devices = set()
    for name in dist.op_names:
        op = dist.op(name)
        if op.is_compute:
            devices.add(op.device)
        elif op.kind is DistOpKind.TRANSFER:
            devices.update((op.src_device, op.dst_device))
        else:
            devices.update(op.devices)
    return devices


# --------------------------------------------------------------------- #
class TestSchedule:
    def test_parse_roundtrip(self):
        sched = FaultSchedule.parse(
            "crash:gpu3@5, degrade:server1@8x0.5, straggler:gpu2@3x1.7")
        assert len(sched) == 3
        # iteration-sorted regardless of spec order
        assert [e.iteration for e in sched] == [3, 5, 8]
        # and printed back in that order; exact factors print short
        assert str(sched) == \
            "straggler:gpu2@3x1.7,crash:gpu3@5,degrade:server1@8x0.5"
        kinds = {e.kind for e in sched}
        assert kinds == {FaultKind.DEVICE_CRASH, FaultKind.LINK_DEGRADE,
                         FaultKind.STRAGGLER}

    @pytest.mark.parametrize("spec", [
        "boom:gpu0@1",            # unknown kind
        "crash:gpu0",             # missing iteration
        "degrade:server0@2x1.5",  # degrade factor must be < 1
        "straggler:gpu1@2x0.5",   # straggler factor must be > 1
        "crash:gpu0@-1",          # negative iteration
    ])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ReproError):
            FaultSchedule.parse(spec)

    def test_random_is_deterministic_and_leaves_survivors(self, four_gpu):
        a = FaultSchedule.random(four_gpu, seed=7, events=6)
        b = FaultSchedule.random(four_gpu, seed=7, events=6)
        assert [e.label for e in a] == [e.label for e in b]
        crashes = [e for e in a if e.kind is FaultKind.DEVICE_CRASH]
        assert len(crashes) <= four_gpu.num_devices - 1

    @pytest.mark.parametrize("seed", range(10))
    def test_printed_random_schedule_replays(self, four_gpu, seed):
        """The printed spec parses back to the same schedule, so a run's
        schedule line can be replayed through ``--schedule``."""
        sched = FaultSchedule.random(four_gpu, seed=seed, events=6)
        assert FaultSchedule.parse(str(sched)) == sched


# --------------------------------------------------------------------- #
class TestClusterDerivation:
    def test_without_devices_preserves_ids(self, four_gpu):
        degraded = four_gpu.without_devices(["gpu1"])
        assert degraded.device_ids == ["gpu0", "gpu2", "gpu3"]
        # surviving devices keep their identity (specs, server, id)
        for dev in degraded.devices:
            assert dev is four_gpu.device(dev.device_id)
        assert all("gpu1" not in (lk.src, lk.dst)
                   for lk in degraded.links())

    def test_without_devices_validates(self, four_gpu):
        with pytest.raises(ReproError):
            four_gpu.without_devices(["gpu99"])
        with pytest.raises(PlacementError):
            four_gpu.without_devices(four_gpu.device_ids)

    def test_with_scaled_links(self, four_gpu):
        scaled = four_gpu.with_scaled_links(0.5, involving="server1")
        for link in four_gpu.links():
            before = link.bandwidth
            after = scaled.link(link.src, link.dst).bandwidth
            crosses = not link.intra_server and "server1" in (
                four_gpu.device(link.src).server,
                four_gpu.device(link.dst).server)
            assert after == pytest.approx(
                before * 0.5 if crosses else before)

    def test_with_scaled_compute(self, four_gpu):
        slowed = four_gpu.with_scaled_compute({"gpu0": 0.5})
        assert slowed.device("gpu0").spec.peak_flops == pytest.approx(
            four_gpu.device("gpu0").spec.peak_flops * 0.5)
        assert slowed.device("gpu1").spec.peak_flops == pytest.approx(
            four_gpu.device("gpu1").spec.peak_flops)
        # memory capacity is untouched: a slow GPU still holds its tensors
        assert slowed.device("gpu0").memory_bytes == \
            four_gpu.device("gpu0").memory_bytes


# --------------------------------------------------------------------- #
class TestInjector:
    def test_unknown_target_rejected(self, four_gpu):
        with pytest.raises(ReproError):
            FaultInjector(four_gpu, FaultSchedule.parse("crash:gpu9@1"))
        with pytest.raises(ReproError):
            # crash needs a device, not a server
            FaultInjector(four_gpu, FaultSchedule.parse("crash:server0@1"))

    def test_crash_makes_engine_raise(self, four_gpu, deployment):
        injector = FaultInjector(
            four_gpu, FaultSchedule.parse("crash:gpu2@1"))
        engine = ExecutionEngine(four_gpu, seed=5, fault_injector=injector)
        # healthy before the fault fires
        engine.run_iteration(deployment.dist, deployment.schedule,
                             deployment.resident_bytes)
        injector.advance(1)
        with pytest.raises(DeviceLostError) as exc:
            engine.run_iteration(deployment.dist, deployment.schedule,
                                 deployment.resident_bytes)
        assert exc.value.device == "gpu2"

    def test_straggler_slows_iterations(self, four_gpu, deployment):
        def mean_time(schedule):
            injector = FaultInjector(four_gpu, schedule)
            engine = ExecutionEngine(four_gpu, seed=5,
                                     fault_injector=injector)
            injector.advance(0)
            stats = engine.measure(deployment.dist, deployment.schedule,
                                   deployment.resident_bytes,
                                   iterations=3)
            return stats.mean

        healthy = mean_time(FaultSchedule.empty())
        # gpu3 (a 1080Ti) is the compute bottleneck of this deployment
        slowed = mean_time(FaultSchedule.parse("straggler:gpu3@0x5.0"))
        assert slowed > healthy * 1.2

    def test_degrade_slows_cross_server_traffic(self, four_gpu, deployment):
        def mean_time(schedule):
            injector = FaultInjector(four_gpu, schedule)
            engine = ExecutionEngine(four_gpu, seed=5,
                                     fault_injector=injector)
            injector.advance(0)
            stats = engine.measure(deployment.dist, deployment.schedule,
                                   deployment.resident_bytes,
                                   iterations=3)
            return stats.mean

        healthy = mean_time(FaultSchedule.empty())
        degraded = mean_time(FaultSchedule.parse("degrade:server1@0x0.2"))
        assert degraded > healthy

    def test_degraded_cluster_reflects_all_faults(self, four_gpu):
        injector = FaultInjector(four_gpu, FaultSchedule.parse(
            "crash:gpu3@1, straggler:gpu0@1x2.0, degrade:server0@1x0.5"))
        injector.advance(1)
        degraded = injector.degraded_cluster()
        assert degraded.device_ids == ["gpu0", "gpu1", "gpu2"]
        assert degraded.device("gpu0").spec.peak_flops == pytest.approx(
            four_gpu.device("gpu0").spec.peak_flops / 2.0)


# --------------------------------------------------------------------- #
class TestEmptySchedulePaired:
    def test_bit_identical_to_uninstrumented_run(self, four_gpu,
                                                 deployment):
        """Empty fault schedule -> the whole measured run is
        bit-identical to one without any injector at all."""

        def run(with_injector: bool):
            injector = FaultInjector(four_gpu, FaultSchedule.empty()) \
                if with_injector else None
            engine = ExecutionEngine(four_gpu, seed=33,
                                     fault_injector=injector)
            if injector is not None:
                for i in range(4):
                    assert injector.advance(i) == []
            stats = engine.measure(deployment.dist, deployment.schedule,
                                   deployment.resident_bytes, iterations=3)
            last = stats.last_result
            return stats.times, dict(last.peak_memory), last.makespan

        assert run(False) == run(True)


# --------------------------------------------------------------------- #
class TestDetector:
    def test_classifies_hard_failures(self):
        detector = FailureDetector()
        event = detector.observe_error(4, DeviceLostError("gpu2", "op7"))
        assert (event.kind, event.resource, event.is_hard) == \
            ("device_lost", "gpu2", True)
        with pytest.raises(ReproError):
            detector.observe_error(4, RuntimeError("unrelated"))

    def test_flags_straggler_blowup_once(self):
        detector = FailureDetector()

        def result(gpu0_busy):
            # what the detector reads of a result
            return SimpleNamespace(
                makespan=gpu0_busy,
                device_busy={"gpu0": gpu0_busy, "gpu1": 1.0},
                link_busy={"link:gpu0->gpu1": 0.2},
            )

        assert detector.observe(0, result(1.0)) == []   # warmup
        assert detector.observe(1, result(1.02)) == []  # warmup
        assert detector.observe(2, result(1.01)) == []  # healthy
        events = detector.observe(3, result(2.0))       # blow-up
        assert [(e.kind, e.resource) for e in events] == \
            [("straggler", "gpu0")]
        assert events[0].severity > 1.4
        # flagged once, not re-reported while still slow
        assert detector.observe(4, result(2.1)) == []
        detector.reset()
        assert detector.observe(5, result(2.1)) == []   # re-warming


# --------------------------------------------------------------------- #
class TestCrashRecovery:
    def test_detect_replan_resume(self, four_gpu, mlp):
        """A crashed GPU is detected, replanned around on the warm plan
        layer, and training resumes OOM-free on the survivors."""
        config = AgentConfig(seed=3, **TINY_AGENT)
        profile = Profiler(seed=0).profile(mlp, four_gpu)
        strategy = dp_strategy("CP-AR", mlp, four_gpu)
        deployment = PlanBuilder(mlp, four_gpu, profile).build(strategy)
        injector = FaultInjector(four_gpu,
                                 FaultSchedule.parse("crash:gpu1@2"))
        engine = ExecutionEngine(four_gpu, seed=9, fault_injector=injector)
        replanner = Replanner(mlp, four_gpu,
                              config=HeteroGConfig(seed=3, agent=config),
                              episodes=2)
        with telemetry.session() as session:
            trainer = ResilientTrainer(deployment, injector, engine=engine,
                                       replanner=replanner)
            report = trainer.run(6)
            hits = session.registry.get("plan_cache_hits_total",
                                        labels={"kind": "plan"})
            mttr_metric = session.registry.get("resilience_mttr_seconds")

        assert not report.stalled and report.completed_steps == 6
        assert any(d.kind == "device_lost" and d.resource == "gpu1"
                   for d in report.detections)
        replans = [r for r in report.recoveries if r.action == "replan"]
        assert len(replans) == 1
        assert replans[0].plan_cache_hits > 0     # warm plan layer reused
        assert replans[0].devices_after == 3
        assert report.mttr > 0 and report.lost_work > 0
        assert hits is not None and hits.value > 0
        assert mttr_metric is not None \
            and mttr_metric.value == pytest.approx(report.mttr)
        # the new deployment never touches the dead device
        assert "gpu1" not in touched_devices(trainer.deployment.dist)

    def test_ride_policy_stalls_on_crash(self, four_gpu, deployment):
        injector = FaultInjector(four_gpu,
                                 FaultSchedule.parse("crash:gpu1@2"))
        engine = ExecutionEngine(four_gpu, seed=9, fault_injector=injector)
        trainer = ResilientTrainer(deployment, injector, engine=engine,
                                   policy="ride")
        report = trainer.run(6)
        assert report.stalled and report.completed_steps == 2
        assert math.isinf(report.total_seconds)
        assert math.isnan(report.mttr)

    def test_ride_policy_survives_straggler(self, four_gpu, deployment):
        injector = FaultInjector(
            four_gpu, FaultSchedule.parse("straggler:gpu0@2x3.0"))
        engine = ExecutionEngine(four_gpu, seed=9, fault_injector=injector)
        trainer = ResilientTrainer(deployment, injector, engine=engine,
                                   policy="ride")
        report = trainer.run(8)
        assert not report.stalled and report.completed_steps == 8
        assert any(d.kind == "straggler" for d in report.detections)
        assert all(r.action == "ride" for r in report.recoveries)


# --------------------------------------------------------------------- #
class TestReplanProperty:
    """Replanning never places work on failed devices or removed links."""

    @given(crashed=st.sets(
        st.sampled_from(["gpu0", "gpu1", "gpu2", "gpu3"]),
        min_size=1, max_size=2))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_replan_avoids_failed_resources(self, replan_env, crashed):
        cluster, replanner = replan_env
        degraded = cluster.without_devices(crashed)
        recovery = replanner.replan(degraded)
        assert recovery.feasible
        dist = recovery.deployment.dist
        used = touched_devices(dist)
        assert used.isdisjoint(crashed)
        # every transfer routes over a link that still exists
        for name in dist.op_names:
            op = dist.op(name)
            if op.kind is DistOpKind.TRANSFER:
                assert degraded.link(op.src_device, op.dst_device) \
                    is not None

    @pytest.fixture(scope="class")
    def replan_env(self, four_gpu, mlp):
        config = AgentConfig(seed=5, **TINY_AGENT)
        return four_gpu, Replanner(
            mlp, four_gpu, config=HeteroGConfig(seed=5, agent=config),
            episodes=2)
