"""Elastic fleets: capacity events, churn schedules, scale-up policy."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.agent import AgentConfig
from repro.baselines import dp_strategy
from repro.cluster import cluster_2gpu, cluster_4gpu
from repro.config import HeteroGConfig
from repro.elastic import ChurnSchedule, ElasticPolicy
from repro.errors import ReproError
from repro.parallel.strategy import single_device_strategy
from repro.plan import PlanBuilder, fingerprint_cluster
from repro.profiling import MeasurementNoise, Profiler
from repro.resilience import (
    CAPACITY_KINDS,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    Replanner,
    ResilientTrainer,
)
from repro.runtime import ExecutionEngine

from tests.helpers import make_mlp
from tests.test_resilience import TINY_AGENT, touched_devices


@pytest.fixture(scope="module")
def four_gpu():
    return cluster_4gpu()


@pytest.fixture(scope="module")
def two_gpu():
    return cluster_2gpu()


@pytest.fixture(scope="module")
def mlp():
    return make_mlp(name="elastic_mlp")


@pytest.fixture(scope="module")
def deployment(two_gpu, mlp):
    profile = Profiler(seed=0).profile(mlp, two_gpu)
    strategy = dp_strategy("CP-AR", mlp, two_gpu)
    return PlanBuilder(mlp, two_gpu, profile).build(strategy)


# --------------------------------------------------------------------- #
class TestCapacityScheduleGrammar:
    def test_parse_roundtrips_capacity_events(self):
        spec = ("join:server0@2x2,server_join:v100@3x2,"
                "preempt:gpu1@4x2,reclaim:gpu1@8")
        sched = FaultSchedule.parse(spec)
        assert str(sched) == spec
        assert {e.kind for e in sched} == CAPACITY_KINDS
        assert all(e.is_capacity for e in sched)

    def test_duplicate_events_rejected_with_colliding_specs(self):
        with pytest.raises(ReproError) as exc:
            FaultSchedule.parse("crash:gpu1@3,straggler:gpu1@3x2.0")
        msg = str(exc.value)
        assert "crash:gpu1@3" in msg and "straggler:gpu1@3x2" in msg
        # same event listed twice collides with itself too
        with pytest.raises(ReproError):
            FaultSchedule.parse("join:server0@2x1,join:server0@2x1")

    @pytest.mark.parametrize("spec", [
        "join:server0@2x0",       # join count must be >= 1
        "join:server0@2x1.5",     # ... and a whole number
        "preempt:gpu0@2x0.5",     # notice window must be >= 1
        "server_join:v100@2x0",   # server join needs >= 1 GPU
    ])
    def test_bad_capacity_factors_rejected(self, spec):
        with pytest.raises(ReproError):
            FaultSchedule.parse(spec)

    def test_random_with_capacity_kinds_is_deterministic(self, four_gpu):
        kinds = (FaultKind.DEVICE_CRASH, FaultKind.DEVICE_JOIN,
                 FaultKind.SERVER_JOIN, FaultKind.PREEMPT,
                 FaultKind.RECLAIM)
        a = FaultSchedule.random(four_gpu, seed=11, events=8, kinds=kinds)
        b = FaultSchedule.random(four_gpu, seed=11, events=8, kinds=kinds)
        assert str(a) == str(b)
        # the generated schedule is injectable as-is
        injector = FaultInjector(four_gpu, a)
        for i in range(20):
            injector.advance(i)

    def test_legacy_random_unchanged_without_capacity_kinds(self, four_gpu):
        """Default random() draws only the degradation kinds, so old
        seeded schedules stay byte-identical."""
        sched = FaultSchedule.random(four_gpu, seed=7, events=6)
        assert not any(e.is_capacity for e in sched)


# --------------------------------------------------------------------- #
class TestChurnSchedule:
    def test_same_seed_is_byte_identical(self, four_gpu):
        churn = ChurnSchedule(arrival_rate=0.4, preempt_rate=0.3,
                              reclaim_probability=0.5, seed=9)
        again = ChurnSchedule(arrival_rate=0.4, preempt_rate=0.3,
                              reclaim_probability=0.5, seed=9)
        assert str(churn.schedule(four_gpu)) == str(again.schedule(four_gpu))
        different = ChurnSchedule(arrival_rate=0.4, preempt_rate=0.3,
                                  reclaim_probability=0.5, seed=10)
        assert str(churn.schedule(four_gpu)) \
            != str(different.schedule(four_gpu))

    def test_generated_timeline_is_injectable(self, four_gpu):
        churn = ChurnSchedule(arrival_rate=0.5, preempt_rate=0.4,
                              reclaim_probability=0.8, horizon=24, seed=3)
        injector = FaultInjector(four_gpu, churn.schedule(four_gpu))
        for i in range(30):
            injector.advance(i)
        assert injector.current_cluster().num_devices >= 2

    def test_empty_rates_give_empty_schedule(self, four_gpu):
        churn = ChurnSchedule()
        assert churn.is_empty
        assert len(churn.schedule(four_gpu)) == 0

    @pytest.mark.parametrize("kwargs", [
        dict(arrival_rate=-0.1),
        dict(preempt_rate=-1.0),
        dict(notice=0),
        dict(reclaim_probability=1.5),
        dict(server_fraction=-0.1),
        dict(gpu_model="tpu"),
        dict(horizon=1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            ChurnSchedule(**kwargs)


# --------------------------------------------------------------------- #
class TestWithDevices:
    """with_devices is the identity-preserving growth dual of
    without_devices (subcluster, by contrast, renumbers)."""

    @given(removed=st.sets(
        st.sampled_from(["gpu0", "gpu1", "gpu2", "gpu3"]),
        min_size=1, max_size=3))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_roundtrip_restores_cluster_fingerprint(self, removed):
        cluster = cluster_4gpu()
        shrunk = cluster.without_devices(removed)
        # templates cover the whole-server-removed case, where the
        # shrunk cluster no longer knows the server's NIC/intra specs
        restored = shrunk.with_devices(
            [cluster.device(d) for d in sorted(removed)],
            templates={s.name: s for s in cluster.servers})
        assert fingerprint_cluster(restored) \
            == fingerprint_cluster(cluster)
        # identity, not just equality: same ids in the same order
        assert restored.device_ids == cluster.device_ids

    def test_subcluster_renumbers_but_without_devices_does_not(
            self, four_gpu):
        sub = four_gpu.subcluster(["gpu1", "gpu2", "gpu3"])
        assert sub.device_ids == ["gpu0", "gpu1", "gpu2"]  # renumbered
        kept = four_gpu.without_devices(["gpu0"])
        assert kept.device_ids == ["gpu1", "gpu2", "gpu3"]  # preserved

    def test_joined_devices_get_fresh_ids_and_wired_links(self, four_gpu):
        grown = four_gpu.with_joined_devices("server1", count=2)
        assert grown.device_ids == \
            four_gpu.device_ids + ["gpu4", "gpu5"]
        for dev in four_gpu.devices:       # existing devices untouched
            assert grown.device(dev.device_id) is dev
        # new intra-server link matches the existing intra-server links
        existing = four_gpu.link("gpu2", "gpu3")
        assert grown.link("gpu4", "gpu5").bandwidth == existing.bandwidth
        # cross-server links exist in both directions
        assert grown.link("gpu0", "gpu5") is not None
        assert grown.link("gpu5", "gpu0") is not None

    def test_joined_server_requires_fresh_name(self, four_gpu):
        from repro.cluster import NIC_50G, PCIE3, ServerSpec, TESLA_P100
        grown = four_gpu.with_joined_server(
            ServerSpec("server9", TESLA_P100, 2, NIC_50G,
                       intra_link=PCIE3))
        assert grown.num_devices == 6
        assert grown.device("gpu4").server == "server9"
        with pytest.raises(ReproError):
            four_gpu.with_joined_server(
                ServerSpec("server0", TESLA_P100, 2, NIC_50G,
                           intra_link=PCIE3))

    def test_with_devices_validates(self, four_gpu):
        with pytest.raises(ReproError):
            four_gpu.with_devices([four_gpu.device("gpu0")])  # duplicate
        assert four_gpu.with_devices([]) is four_gpu          # no-op


# --------------------------------------------------------------------- #
class TestInjectorCapacityLifecycle:
    def test_join_grows_fleet_without_renumbering(self, four_gpu):
        injector = FaultInjector(
            four_gpu, FaultSchedule.parse("join:server0@1x2"))
        injector.advance(1)
        fleet = injector.physical_cluster()
        assert fleet.device_ids == four_gpu.device_ids + ["gpu4", "gpu5"]
        assert injector.current_cluster().num_devices == 6

    def test_preempt_fires_synthesized_crash_at_deadline(self, four_gpu):
        injector = FaultInjector(
            four_gpu, FaultSchedule.parse("preempt:gpu3@2x2"))
        fired = injector.advance(2)
        assert [e.kind for e in fired] == [FaultKind.PREEMPT]
        assert injector.preempt_pending == {"gpu3": 4}
        assert "gpu3" in injector.current_cluster().device_ids  # not dead
        fired = injector.advance(4)
        assert [e.kind for e in fired] == [FaultKind.DEVICE_CRASH]
        assert "gpu3" not in injector.current_cluster().device_ids
        assert injector.preempt_pending == {}

    def test_reclaim_restores_the_device(self, four_gpu):
        injector = FaultInjector(four_gpu, FaultSchedule.parse(
            "crash:gpu2@1,reclaim:gpu2@4"))
        injector.advance(1)
        assert "gpu2" not in injector.current_cluster().device_ids
        injector.advance(4)
        restored = injector.current_cluster()
        assert "gpu2" in restored.device_ids
        assert fingerprint_cluster(restored) == fingerprint_cluster(four_gpu)

    def test_reclaim_without_death_rejected(self, four_gpu):
        injector = FaultInjector(
            four_gpu, FaultSchedule.parse("reclaim:gpu2@3"))
        with pytest.raises(ReproError):
            injector.advance(3)

    def test_preempt_unknown_device_rejected_at_activation(self, four_gpu):
        # gpu9 is a plausible future joiner at parse time, but no join
        # ever brings it: activation must fail loudly
        injector = FaultInjector(
            four_gpu, FaultSchedule.parse("preempt:gpu9@2x2"))
        with pytest.raises(ReproError):
            injector.advance(2)


# --------------------------------------------------------------------- #
class TestEmptyChurnPaired:
    def test_empty_churn_is_bit_identical_to_fault_only_path(
            self, two_gpu, deployment):
        """ChurnSchedule with zero rates -> the elastic trainer's output
        is bit-identical to the plain PR-4 replan trainer's."""

        def run(policy, schedule):
            injector = FaultInjector(two_gpu, schedule)
            engine = ExecutionEngine(two_gpu, seed=17,
                                     fault_injector=injector)
            trainer = ResilientTrainer(deployment, injector, engine=engine,
                                       policy=policy)
            report = trainer.run(5)
            return report.iteration_times, report.total_seconds

        churn = ChurnSchedule().schedule(two_gpu)
        assert run("elastic", churn) == run("replan", FaultSchedule.empty())


# --------------------------------------------------------------------- #
class TestElasticTrainer:
    @pytest.fixture(scope="class")
    def replanner(self, two_gpu, mlp):
        config = AgentConfig(seed=3, **TINY_AGENT)
        return Replanner(mlp, two_gpu,
                         config=HeteroGConfig(seed=3, agent=config),
                         episodes=2)

    def test_arrival_scale_up_is_warm_and_beats_ride(
            self, two_gpu, deployment, replanner):
        schedule = FaultSchedule.parse("server_join:v100@2x2")

        def run(policy):
            injector = FaultInjector(two_gpu, schedule)
            engine = ExecutionEngine(two_gpu, seed=21,
                                     fault_injector=injector)
            trainer = ResilientTrainer(
                deployment, injector, engine=engine,
                replanner=replanner if policy == "elastic" else None,
                policy=policy)
            return trainer, trainer.run(8)

        with telemetry.session() as session:
            trainer, elastic = run("elastic")
            hits = session.registry.get("plan_cache_hits_total",
                                        labels={"kind": "plan"})
        _, ride = run("ride")

        assert not elastic.stalled and elastic.completed_steps == 8
        scale_ups = [r for r in elastic.recoveries
                     if r.action == "scale_up"]
        assert len(scale_ups) == 1
        assert scale_ups[0].trigger == "arrival"
        assert scale_ups[0].lost_work_seconds == 0.0
        # the replan onto the with_devices-grown fleet hit the warm
        # plan layer
        assert hits is not None and hits.value > 0
        # the adopted plan actually uses the arrived capacity...
        assert touched_devices(trainer.deployment.dist) \
            & {"gpu2", "gpu3"}
        # ...and the run strictly beats riding the old fleet
        assert elastic.total_seconds < ride.total_seconds

    def test_preempt_notice_drains_before_death(
            self, two_gpu, mlp, deployment, replanner):
        schedule = FaultSchedule.parse("preempt:gpu1@2x2")

        def run(policy):
            injector = FaultInjector(two_gpu, schedule)
            engine = ExecutionEngine(two_gpu, seed=21,
                                     fault_injector=injector)
            trainer = ResilientTrainer(deployment, injector, engine=engine,
                                       replanner=replanner, policy=policy)
            return trainer, trainer.run(8)

        trainer, elastic = run("elastic")
        _, late = run("replan")

        assert not elastic.stalled and elastic.completed_steps == 8
        drains = [r for r in elastic.recoveries
                  if r.trigger == "preempt_notice"]
        assert len(drains) == 1 and drains[0].action == "replan"
        # drained before the deadline: nothing was lost, no detection
        # event ever fired, and the dead device is not touched
        assert elastic.lost_work == 0.0
        assert elastic.detections == []
        assert "gpu1" not in touched_devices(trainer.deployment.dist)
        # the late (replan-on-crash) baseline pays detection + search
        assert late.mttr > elastic.mttr
        assert late.lost_work > 0.0

    def test_scale_up_skipped_when_it_does_not_pay(
            self, two_gpu, deployment, replanner):
        injector = FaultInjector(
            two_gpu, FaultSchedule.parse("server_join:v100@2x2"))
        engine = ExecutionEngine(two_gpu, seed=21,
                                 fault_injector=injector)
        # an absurd restart cost: no savings can justify replanning
        trainer = ResilientTrainer(deployment, injector, engine=engine,
                                   replanner=replanner, policy="elastic",
                                   restart_overhead=1e9)
        report = trainer.run(6)
        assert not report.stalled
        assert report.recoveries == []
        assert trainer.deployment is deployment     # old plan kept

    def test_fast_path_is_priced_under_the_replanner_config(
            self, two_gpu, four_gpu, mlp, deployment, monkeypatch):
        """The all-on-the-fastest-arrival candidate is built by the
        replanner's service under its config (a non-default seed and
        profiling noise here), on the warm context its replan used: it
        is priced on the same profile as the searched plan it races,
        and the grown cluster is not profiled again."""
        config = HeteroGConfig(seed=3, profile_noise_sigma=0.05,
                               agent=AgentConfig(seed=3, **TINY_AGENT))
        replanner = Replanner(mlp, two_gpu, config=config, episodes=2)
        trainer = ResilientTrainer(
            deployment, FaultInjector(two_gpu, FaultSchedule.empty()),
            replanner=replanner, policy="elastic")
        replanner.replan(four_gpu)
        profiled = []
        profile = Profiler.profile
        monkeypatch.setattr(
            Profiler, "profile",
            lambda self, *a: profiled.append(a) or profile(self, *a))
        plan, predicted = trainer._fast_path_candidate(four_gpu)
        assert profiled == []
        monkeypatch.undo()

        fastest = max((four_gpu.device(d) for d in ("gpu2", "gpu3")),
                      key=lambda d: d.compute_power).device_id
        strategy = single_device_strategy(mlp, four_gpu, device=fastest)
        assert touched_devices(plan.dist) == {fastest}
        own = Profiler(noise=MeasurementNoise(0.05), seed=3).profile(
            mlp, four_gpu)
        want = PlanBuilder(mlp, four_gpu, own).build(strategy)
        assert predicted == want.sim_result.makespan
        # the profiler's defaults would have priced it differently
        assert predicted != PlanBuilder(mlp, four_gpu).build(
            strategy).sim_result.makespan

    def test_rejects_unknown_policy(self, two_gpu, deployment):
        injector = FaultInjector(two_gpu, FaultSchedule.empty())
        with pytest.raises(ReproError):
            ResilientTrainer(deployment, injector, policy="magic")


# --------------------------------------------------------------------- #
class TestElasticPolicy:
    def test_search_cost_ema(self):
        policy = ElasticPolicy(search_cost_smoothing=0.5)
        assert policy.search_cost_estimate == 0.0
        policy.observe_search(2.0)
        assert policy.search_cost_estimate == 2.0
        policy.observe_search(4.0)
        assert policy.search_cost_estimate == pytest.approx(3.0)

    def test_decide_needs_a_power_gain(self, two_gpu, deployment):
        policy = ElasticPolicy()
        decision = policy.decide(deployment, two_gpu,
                                 healthy_mean=0.5, remaining_steps=10)
        assert not decision.replan
        assert decision.expected_savings == 0.0

    def test_decide_prices_savings_against_cost(self, two_gpu, deployment):
        injector = FaultInjector(
            two_gpu, FaultSchedule.parse("server_join:v100@1x2"))
        injector.advance(1)
        grown = injector.current_cluster()
        cheap = ElasticPolicy(restart_overhead=0.0)
        decision = cheap.decide(deployment, grown,
                                healthy_mean=0.5, remaining_steps=10)
        assert decision.replan
        assert decision.expected_savings > 0.0
        assert decision.bound_after < decision.bound_before
        pricey = ElasticPolicy(restart_overhead=1e9)
        assert not pricey.decide(deployment, grown, healthy_mean=0.5,
                                 remaining_steps=10).replan

    def test_should_adopt_requires_strict_improvement(self):
        policy = ElasticPolicy()
        assert policy.should_adopt(1.0, 0.99)
        assert not policy.should_adopt(1.0, 1.0)
        assert policy.should_adopt(float("nan"), 5.0)  # nothing to compare
        margin = ElasticPolicy(min_predicted_gain=0.1)
        assert not margin.should_adopt(1.0, 0.95)
        assert margin.should_adopt(1.0, 0.85)

    def test_validation(self):
        with pytest.raises(ReproError):
            ElasticPolicy(search_cost_smoothing=0.0)
        with pytest.raises(ReproError):
            ElasticPolicy(min_predicted_gain=1.0)
