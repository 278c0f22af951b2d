"""Planning service: typed requests, coalescing, admission control,
and concurrency determinism."""

import dataclasses
import threading
import time

import pytest

from repro import telemetry
from repro.agent import AgentConfig
from repro.baselines import dp_strategy
from repro.cluster import cluster_4gpu
from repro.config import HeteroGConfig
from repro.errors import (
    CompileError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from repro.parallel.compiler import GraphCompiler
from repro.service import PlanRequest, PlanningService

from tests.helpers import make_mlp

FAST = AgentConfig(max_groups=8, gat_hidden=16, gat_layers=2, gat_heads=2,
                   strategy_dim=16, strategy_heads=2, strategy_layers=1)


def fast_config(seed: int = 0) -> HeteroGConfig:
    return HeteroGConfig(episodes=3, seed=seed, agent=FAST)


@pytest.fixture(scope="module")
def four_gpu():
    return cluster_4gpu()


@pytest.fixture(scope="module")
def mlp():
    return make_mlp(name="svc_mlp")


def search_request(graph, cluster, *, episodes=3, seed=0, **kw) -> PlanRequest:
    return PlanRequest(graph=graph, cluster=cluster, episodes=episodes,
                       config=fast_config(seed), **kw)


class GatedService(PlanningService):
    """A service whose workers block in ``_serve`` until released —
    makes coalescing, overload, deadline and priority tests
    deterministic instead of racy."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.serve_order = []

    def _serve(self, request, queue_seconds):
        self.serve_order.append(request.label)
        self.entered.set()
        assert self.gate.wait(30), "test never released the service gate"
        return super()._serve(request, queue_seconds)


# --------------------------------------------------------------------- #
class TestRequestValidation:
    def test_graph_must_be_computation_graph(self, four_gpu):
        with pytest.raises(ReproError):
            PlanRequest(graph="not a graph", cluster=four_gpu)

    def test_strategy_type_checked(self, mlp, four_gpu):
        with pytest.raises(ReproError):
            PlanRequest(graph=mlp, cluster=four_gpu, strategy="CP-AR")

    @pytest.mark.parametrize("kwargs", [
        dict(episodes=0),
        dict(max_rounds=0),
        dict(measure_iterations=0),
        dict(timeout=0.0),
        dict(timeout=-1.0),
    ])
    def test_bounds_checked(self, mlp, four_gpu, kwargs):
        with pytest.raises(ReproError):
            PlanRequest(graph=mlp, cluster=four_gpu, **kwargs)

    def test_device_info_parsed_at_boundary(self, mlp):
        request = PlanRequest(graph=mlp, cluster=[
            {"host": "a", "gpu_model": "Tesla V100", "gpus": 2}])
        assert request.cluster.num_devices == 2

    def test_bad_device_info_is_repro_error(self, mlp):
        with pytest.raises(ReproError, match="known"):
            PlanRequest(graph=mlp, cluster=[
                {"host": "a", "gpu_model": "TPUv9", "gpus": 2}])
        with pytest.raises(ReproError):
            PlanRequest(graph=mlp, cluster=[{"gpus": 2}])
        with pytest.raises(ReproError):
            PlanRequest(graph=mlp, cluster=[
                {"gpu_model": "Tesla V100", "gpus": "many"}])
        with pytest.raises(ReproError):
            PlanRequest(graph=mlp, cluster=42)

    def test_fingerprint_separates_work(self, mlp, four_gpu):
        a = search_request(mlp, four_gpu, episodes=3)
        b = search_request(mlp, four_gpu, episodes=4)
        c = search_request(mlp, four_gpu, episodes=3)
        assert a.fingerprint == c.fingerprint
        assert a.fingerprint != b.fingerprint
        assert a.context_key == b.context_key  # same warm session though

    def test_label_and_timeout_not_fingerprinted(self, mlp, four_gpu):
        a = search_request(mlp, four_gpu, label="x", timeout=5.0, priority=2)
        b = search_request(mlp, four_gpu)
        assert a.fingerprint == b.fingerprint


def _changed(value):
    """A different value of the same type (new field types must add a
    case here rather than slip past the fingerprint guard)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2 if value else 0.5
    raise TypeError(f"no changed value for {value!r}")


# config fields that cannot change a result or are overridden, so they
# stay out of the fingerprint on purpose
_NOT_FINGERPRINTED = {
    "checkpoint_path",            # never read while planning
    "agent.seed",                 # overridden by the config's seed
}


class TestFingerprintCoverage:
    """A knob that can change a result must be part of the fingerprint."""

    def test_every_config_field_is_fingerprinted(self, mlp, four_gpu):
        def fingerprint(config):
            # episodes=None: the config's episode budget is the search's
            return PlanRequest(graph=mlp, cluster=four_gpu,
                               config=config).fingerprint

        reference = fingerprint(fast_config())
        paths = [f.name for f in dataclasses.fields(HeteroGConfig)
                 if f.name != "agent"]
        paths += [f"agent.{f.name}" for f in dataclasses.fields(AgentConfig)]
        missed, stale = [], []
        for path in paths:
            config = fast_config()
            config.agent = dataclasses.replace(config.agent)
            *owner, name = path.split(".")
            target = config.agent if owner else config
            value = getattr(target, name)
            setattr(target, name, "elsewhere.ckpt"
                    if path == "checkpoint_path" else _changed(value))
            same = fingerprint(config) == reference
            if same and path not in _NOT_FINGERPRINTED:
                missed.append(path)
            elif not same and path in _NOT_FINGERPRINTED:
                stale.append(path)
        assert missed == [], "fields missing from the fingerprint"
        assert stale == [], "allow-listed fields that are fingerprinted"


class TestServiceValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(workers=-1),
        dict(max_queue=0),
        dict(max_contexts=0),
    ])
    def test_constructor_bounds(self, kwargs):
        with pytest.raises(ReproError):
            PlanningService(**kwargs)

    def test_submit_requires_plan_request(self, four_gpu):
        with PlanningService(workers=0) as service:
            with pytest.raises(ReproError):
                service.submit("plan please")

    def test_closed_service_rejects(self, mlp, four_gpu):
        service = PlanningService(workers=0)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(search_request(mlp, four_gpu))


# --------------------------------------------------------------------- #
class TestInlineService:
    """workers=0: the deterministic synchronous mode facades use."""

    def test_search_and_result_cache(self, mlp, four_gpu):
        with PlanningService(workers=0) as service:
            first = service.plan(search_request(mlp, four_gpu))
            again = service.plan(search_request(mlp, four_gpu))
        assert first.feasible and first.deployment is not None
        assert not first.from_cache and again.from_cache
        assert again.strategy is first.strategy
        assert service.stats.executed == 1
        assert service.stats.result_hits == 1

    def test_build_reuses_warm_context(self, mlp, four_gpu):
        with PlanningService(workers=0) as service:
            searched = service.plan(search_request(mlp, four_gpu))
            built = service.plan(PlanRequest(
                graph=mlp, cluster=four_gpu, strategy=searched.strategy,
                config=fast_config()))
        assert built.reused_context
        assert built.deployment is not None
        assert built.outcome.feasible

    def test_measure_after_search_compiles_nothing(self, mlp, four_gpu,
                                                   monkeypatch):
        """One builder per context: the agent searches on the context's
        builder, so building and measuring the winner afterwards is a
        plan-cache hit, and every answer's deployment is the cached
        plan itself."""
        compiles = []
        compile_ = GraphCompiler.compile
        monkeypatch.setattr(
            GraphCompiler, "compile",
            lambda self, *args: compiles.append(args) or compile_(self, *args))
        request = search_request(mlp, four_gpu)
        with PlanningService(workers=0) as service:
            searched = service.plan(request)
            context = service.context_for(request)
            assert context.builder is context.agent.context(mlp.name).builder
            searched_compiles = len(compiles)
            assert searched.deployment is context.builder.build(
                searched.strategy)
            measured = service.plan(PlanRequest(
                graph=mlp, cluster=four_gpu, strategy=searched.strategy,
                measure_iterations=2, config=fast_config()))
        assert searched_compiles > 0
        assert len(compiles) == searched_compiles
        assert measured.deployment is searched.deployment
        assert measured.outcome.time == searched.outcome.time
        assert measured.measured_time is not None

    def test_build_request_compiles_once(self, mlp, four_gpu, monkeypatch):
        """A build request builds before it evaluates: a fresh strategy
        compiles once and its plan stays cached, and a strategy that
        fails to compile also compiles once, its infeasible outcome
        cached."""
        compiles = []
        compile_ = GraphCompiler.compile
        monkeypatch.setattr(
            GraphCompiler, "compile",
            lambda self, *args: compiles.append(args) or compile_(self, *args))
        good = dp_strategy("EV-AR", mlp, four_gpu)
        request = PlanRequest(graph=mlp, cluster=four_gpu, strategy=good,
                              config=fast_config())
        with PlanningService(workers=0) as service:
            built = service.plan(request)
            assert len(compiles) == 1
            assert built.outcome.feasible
            builder = service.context_for(request).builder
            assert built.deployment is builder.build(good)

            def failing(self, *args):
                compiles.append(args)
                raise CompileError("forced failure")

            monkeypatch.setattr(GraphCompiler, "compile", failing)
            bad = dp_strategy("CP-AR", mlp, four_gpu)
            failed = service.plan(PlanRequest(
                graph=mlp, cluster=four_gpu, strategy=bad,
                config=fast_config()))
            assert len(compiles) == 2
            assert failed.outcome.infeasible and failed.deployment is None
            assert builder.evaluate(bad) is failed.outcome
        assert len(compiles) == 2

    def test_config_order_flag_is_honoured(self, mlp, four_gpu):
        """``HeteroGConfig.use_order_scheduling=False`` builds with the
        default FIFO order instead of being served the ordered plan, and
        its plan carries the FIFO run the flight record's blame reads."""
        strategy = dp_strategy("CP-AR", mlp, four_gpu)
        fifo_config = dataclasses.replace(fast_config(),
                                          use_order_scheduling=False)
        ordered = PlanRequest(graph=mlp, cluster=four_gpu,
                              strategy=strategy, config=fast_config())
        fifo = PlanRequest(graph=mlp, cluster=four_gpu, strategy=strategy,
                           config=fifo_config)
        assert ordered.fingerprint != fifo.fingerprint
        with PlanningService(workers=0) as service:
            first = service.plan(ordered)
            second = service.plan(fifo)
        assert first.deployment.schedule.chosen is not None
        assert not second.from_cache
        assert second.deployment.schedule.chosen is None
        assert service.recorder.get(fifo.request_id).blame

    def test_failure_not_cached(self, mlp, four_gpu):
        """A failed request must not poison the result cache."""
        from repro.parallel import single_device_strategy
        other = make_mlp(name="svc_other", layers=1)
        # a strategy for a smaller graph is missing ops of ``mlp``
        bad = single_device_strategy(other, four_gpu)
        with PlanningService(workers=0) as service:
            def doomed():
                return PlanRequest(graph=mlp, cluster=four_gpu, strategy=bad,
                                   config=fast_config())
            with pytest.raises(ReproError):
                service.plan(doomed())
            assert service.stats.failed == 1
            # the failure was not recorded as a servable result
            with pytest.raises(ReproError):
                service.plan(doomed())
            assert service.stats.result_hits == 0


# --------------------------------------------------------------------- #
class TestCoalescing:
    def test_concurrent_duplicates_coalesce_bit_identical(self, mlp,
                                                          four_gpu):
        """N concurrent duplicates -> exactly 1 evaluation, N-1 coalesced
        (counted by ``service_coalesced_total``), results bit-identical
        to naive serial replanning."""
        duplicates = 5

        # serial baseline: each request replans on a cold service
        serial = []
        for _ in range(2):
            with PlanningService(workers=0) as cold:
                serial.append(cold.plan(search_request(mlp, four_gpu)))

        registry = telemetry.MetricsRegistry()
        with telemetry.session(registry=registry):
            service = GatedService(workers=2)
            try:
                tickets = [service.submit(search_request(mlp, four_gpu))
                           for _ in range(duplicates)]
                # all five share the single in-flight ticket
                assert len({id(t) for t in tickets}) == 1
                service.gate.set()
                results = [t.result(30.0) for t in tickets]
            finally:
                service.gate.set()
                service.close()

        assert service.stats.executed == 1
        assert service.stats.coalesced == duplicates - 1
        coalesced = registry.get("service_coalesced_total")
        assert coalesced is not None and coalesced.value == duplicates - 1
        assert results[0].coalesced == duplicates - 1

        label = {n: s.label() for n, s in serial[0].strategy.items()}
        for result in serial[1:] + results:
            assert {n: s.label() for n, s in result.strategy.items()} == label
            assert result.outcome.time == serial[0].outcome.time

    def test_late_duplicates_hit_result_cache(self, mlp, four_gpu):
        with PlanningService(workers=2) as service:
            first = service.plan(search_request(mlp, four_gpu))
            late = service.plan(search_request(mlp, four_gpu))
        assert late.from_cache
        assert late.outcome.time == first.outcome.time
        assert service.stats.executed == 1


# --------------------------------------------------------------------- #
class TestAdmissionControl:
    def test_overload_rejects_structured(self, mlp, four_gpu):
        service = GatedService(workers=1, max_queue=1)
        try:
            blocker = service.submit(
                search_request(mlp, four_gpu, episodes=1, label="blocker"))
            assert service.entered.wait(10)  # worker busy, queue empty
            service.submit(search_request(mlp, four_gpu, episodes=2,
                                          label="queued"))
            with pytest.raises(ServiceOverloadedError) as exc:
                service.submit(search_request(mlp, four_gpu, episodes=3,
                                              label="rejected"))
            assert exc.value.queue_depth == 1
            assert exc.value.limit == 1
            assert service.stats.rejected == 1
        finally:
            service.gate.set()
            blocker.result(30.0)
            service.close()

    def test_queue_deadline_fails_fast_without_evaluating(self, mlp,
                                                          four_gpu):
        registry = telemetry.MetricsRegistry()
        with telemetry.session(registry=registry):
            service = GatedService(workers=1, max_queue=8)
            try:
                blocker = service.submit(
                    search_request(mlp, four_gpu, episodes=1,
                                   label="blocker"))
                assert service.entered.wait(10)
                doomed = service.submit(
                    search_request(mlp, four_gpu, episodes=2,
                                   label="doomed", timeout=0.05))
                time.sleep(0.2)        # let the deadline lapse while queued
                service.gate.set()
                with pytest.raises(ServiceTimeoutError) as exc:
                    doomed.result(30.0)
                assert exc.value.stage == "queue"
                blocker.result(30.0)
                # the expired request was never served
                assert service.serve_order == ["blocker"]
                assert service.stats.timeouts == 1
                # ... and did not poison the cache: the same fingerprint
                # evaluates successfully afterwards
                retry = service.plan(
                    search_request(mlp, four_gpu, episodes=2, label="retry"))
                assert retry.feasible and not retry.from_cache
            finally:
                service.gate.set()
                service.close()
        timeouts = registry.get("service_timeouts_total",
                                labels={"stage": "queue"})
        assert timeouts is not None and timeouts.value == 1

    def test_wait_timeout_leaves_computation_running(self, mlp, four_gpu):
        service = GatedService(workers=1)
        try:
            request = search_request(mlp, four_gpu, timeout=0.05)
            with pytest.raises(ServiceTimeoutError) as exc:
                service.plan(request)
            assert exc.value.stage == "wait"
            service.gate.set()
            # the in-flight computation completes and is cached; a later
            # identical request is served without re-evaluating
            result = service.plan(search_request(mlp, four_gpu))
            assert result.feasible
            assert service.stats.executed == 1
        finally:
            service.gate.set()
            service.close()

    def test_close_fails_queued_requests(self, mlp, four_gpu):
        service = GatedService(workers=1)
        blocker = service.submit(
            search_request(mlp, four_gpu, episodes=1, label="blocker"))
        assert service.entered.wait(10)
        queued = service.submit(
            search_request(mlp, four_gpu, episodes=2, label="queued"))
        # close() first drains the queue (failing pending tickets), then
        # joins the workers — release the gate only after the drain so
        # the queued request is deterministically failed, not served
        closer = threading.Thread(target=service.close)
        closer.start()
        with pytest.raises(ServiceClosedError):
            queued.result(10.0)
        service.gate.set()
        blocker.result(30.0)  # the in-flight request still completed
        closer.join(30.0)
        assert not closer.is_alive()
        with pytest.raises(ServiceClosedError):
            service.submit(search_request(mlp, four_gpu, episodes=3))

    def test_priority_orders_the_queue(self, mlp, four_gpu):
        service = GatedService(workers=1)
        try:
            tickets = [service.submit(
                search_request(mlp, four_gpu, episodes=1, label="blocker"))]
            assert service.entered.wait(10)
            tickets.append(service.submit(
                search_request(mlp, four_gpu, episodes=2, label="low",
                               priority=0)))
            tickets.append(service.submit(
                search_request(mlp, four_gpu, episodes=3, label="high",
                               priority=5)))
            service.gate.set()
            for ticket in tickets:
                ticket.result(30.0)
            assert service.serve_order == ["blocker", "high", "low"]
        finally:
            service.gate.set()
            service.close()


# --------------------------------------------------------------------- #
class TestServiceTelemetry:
    def test_request_metrics_emitted(self, mlp, four_gpu):
        registry = telemetry.MetricsRegistry()
        with telemetry.session(registry=registry):
            with PlanningService(workers=2) as service:
                service.plan(search_request(mlp, four_gpu))
        completed = registry.get("service_requests_total",
                                 labels={"status": "completed"})
        assert completed is not None and completed.value == 1
        latency = registry.get("service_latency_seconds")
        assert latency is not None and latency.total == 1
        depth = registry.get("service_queue_depth")
        assert depth is not None and depth.value == 0

    def test_pipeline_spans_survive_the_redesign(self, mlp, four_gpu):
        """The service still emits the pipeline.* spans reporting needs."""
        with telemetry.session() as tel:
            with PlanningService(workers=0) as service:
                service.plan(search_request(mlp, four_gpu))
        names = {event["name"] for event in tel.tracer.to_events()}
        assert {"service.request", "pipeline.profile", "pipeline.group",
                "pipeline.search", "pipeline.schedule"} <= names
