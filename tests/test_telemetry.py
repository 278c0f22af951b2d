"""Tests for ``repro.telemetry``: registry, tracer, critical path, and
the no-op guarantees when telemetry is disabled."""

import json
import threading
from types import SimpleNamespace

import pytest

from repro import telemetry
from repro.baselines import dp_strategy
from repro.cluster import cluster_4gpu
from repro.parallel import GraphCompiler, single_device_strategy
from repro.parallel.distgraph import DistGraph, DistOp, DistOpKind
from repro.scheduling import ListScheduler
from repro.simulation import ProfileCostModel, Simulator
from repro.simulation.kernel import lower
from repro.simulation.costs import MappingCostModel
from repro.telemetry import (
    IDLE_KEY,
    MetricsRegistry,
    Tracer,
    critical_path,
)

from tests.helpers import exact_profile, make_mlp


# --------------------------------------------------------------------- #
class TestRegistry:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("runs").inc()
        reg.counter("runs").inc(2)
        assert reg.counter("runs").value == 3
        with pytest.raises(ValueError):
            reg.counter("runs").inc(-1)
        reg.gauge("depth").set(4.5)
        reg.gauge("depth").inc(-0.5)
        assert reg.gauge("depth").value == 4.0

    def test_labels_address_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("waits", labels={"resource": "gpu0"}).inc(1)
        reg.counter("waits", labels={"resource": "gpu1"}).inc(5)
        assert reg.counter("waits", labels={"resource": "gpu0"}).value == 1
        assert len(reg) == 2

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_histogram_bucketing(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=[0.001, 0.01, 0.1, 1.0])
        for value in [0.0005, 0.005, 0.005, 0.05, 0.5, 5.0]:
            hist.observe(value)
        assert hist.total == 6
        assert hist.counts == [1, 2, 1, 1, 1]
        cumulative = dict(hist.cumulative())
        assert cumulative[0.001] == 1
        assert cumulative[0.01] == 3
        assert cumulative[1.0] == 5
        assert cumulative[float("inf")] == 6
        assert hist.min == 0.0005 and hist.max == 5.0
        assert hist.mean == pytest.approx(sum(
            [0.0005, 0.005, 0.005, 0.05, 0.5, 5.0]) / 6)

    def test_histogram_boundary_lands_in_its_bucket(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h", buckets=[1.0, 2.0])
        hist.observe(1.0)  # le semantics: boundary belongs to the bucket
        assert dict(hist.cumulative())[1.0] == 1

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", labels={"kind": "compute"},
                    help="ops done").inc(7)
        reg.histogram("dur", buckets=[0.1, 1.0]).observe(0.05)
        text = reg.to_prometheus()
        assert "# TYPE ops_total counter" in text
        assert 'ops_total{kind="compute"} 7.0' in text
        assert 'dur_bucket{le="0.1"} 1' in text
        assert 'dur_bucket{le="+Inf"} 1' in text
        assert "dur_count 1" in text

    def test_json_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.gauge("g").set(2.0)
        reg.histogram("h", buckets=[1.0]).observe(0.5)
        path = tmp_path / "metrics.json"
        reg.save_json(str(path))
        data = json.loads(path.read_text())
        by_name = {m["name"]: m for m in data["metrics"]}
        assert by_name["g"]["value"] == 2.0
        assert by_name["h"]["count"] == 1
        assert by_name["h"]["buckets"][-1]["le"] == "+Inf"


# --------------------------------------------------------------------- #
class TestTracer:
    def test_span_nesting_and_export(self):
        tracer = Tracer()
        with tracer.span("outer", model="mlp"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner2"):
                pass
        events = tracer.to_events()
        assert [e["name"] for e in events] == ["outer", "inner", "inner2"]
        outer = next(e for e in events if e["name"] == "outer")
        inner = next(e for e in events if e["name"] == "inner")
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        assert outer["attrs"] == {"model": "mlp"}
        assert all(e["duration"] >= 0 for e in events)

    def test_error_annotated(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("bad"):
                raise RuntimeError("boom")
        (event,) = tracer.to_events()
        assert event["attrs"]["error"] == "RuntimeError"

    def test_jsonl_export(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", k=1):
            pass
        path = tmp_path / "spans.jsonl"
        tracer.save_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "a"

    def test_threads_trace_independently(self):
        tracer = Tracer()

        def work():
            with tracer.span("worker"):
                pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        with tracer.span("main"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        events = tracer.to_events()
        workers = [e for e in events if e["name"] == "worker"]
        # worker spans must not be parented under another thread's span
        assert len(workers) == 4
        assert all(w["parent_id"] is None for w in workers)

    def test_chrome_events(self):
        tracer = Tracer()
        with tracer.span("phase", model="mlp"):
            pass
        events = tracer.chrome_events(pid=7)
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 1
        assert slices[0]["pid"] == 7
        assert slices[0]["args"]["model"] == "mlp"
        assert any(e["name"] == "process_name" for e in events)


# --------------------------------------------------------------------- #
def _three_op_chain() -> DistGraph:
    """a(gpu0, 0..1) -> transfer(1..3) -> b(gpu1, 4..6) with an idle gap."""
    g = DistGraph("chain")
    g.add(DistOp("a", DistOpKind.COMPUTE, device="gpu0"))
    g.add(DistOp("t", DistOpKind.TRANSFER, src_device="gpu0",
                 dst_device="gpu1", size_bytes=8.0), deps=["a"])
    g.add(DistOp("b", DistOpKind.COMPUTE, device="gpu1"), deps=["t"])
    return g


def _traced(makespan, schedule):
    """A duck-typed result: what :func:`critical_path` reads of one."""
    return SimpleNamespace(makespan=makespan, schedule=schedule)


class TestCriticalPath:
    def test_blame_on_hand_built_dag(self):
        dist = _three_op_chain()
        result = _traced(
            6.0, {"a": (0.0, 1.0), "t": (1.0, 3.0), "b": (4.0, 6.0)})
        report = critical_path(dist, result)
        assert [s.op for s in report.segments] == ["a", "t", "b"]
        assert report.blame["gpu0"] == pytest.approx(1.0)
        assert report.blame["link:gpu0->gpu1"] == pytest.approx(2.0)
        assert report.blame["gpu1"] == pytest.approx(2.0)
        assert report.blame[IDLE_KEY] == pytest.approx(1.0)
        fractions = report.blame_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert report.segments[-1].blocked_by == "t"
        assert report.segments[-1].idle_before == pytest.approx(1.0)
        assert report.straggler() in ("gpu1",)

    def test_resource_contention_blamed(self):
        # two independent ops on one device: the second waits for the
        # first even though there is no DAG edge between them
        g = DistGraph("contend")
        g.add(DistOp("x", DistOpKind.COMPUTE, device="gpu0"))
        g.add(DistOp("y", DistOpKind.COMPUTE, device="gpu0"))
        result = _traced(5.0, {"x": (0.0, 2.0), "y": (2.0, 5.0)})
        report = critical_path(g, result)
        assert [s.op for s in report.segments] == ["x", "y"]
        assert report.segments[1].blocked_by == "x"
        assert report.blame["gpu0"] == pytest.approx(5.0)
        assert sum(report.blame_fractions().values()) == pytest.approx(1.0)

    def test_idle_gap_breakdown(self):
        dist = _three_op_chain()
        result = _traced(
            6.0, {"a": (0.0, 1.0), "t": (1.0, 3.0), "b": (4.0, 6.0)})
        report = critical_path(dist, result)
        assert report.per_resource_idle["gpu0"] == pytest.approx(5.0)
        assert report.per_resource_idle["gpu1"] == pytest.approx(4.0)
        assert (4.0, 6.0) not in report.idle_gaps["gpu1"]
        assert (0.0, 4.0) in report.idle_gaps["gpu1"]

    def test_requires_trace(self):
        dist = _three_op_chain()
        # the run of an empty graph has an empty schedule
        empty = Simulator(MappingCostModel({})).run(DistGraph("empty"))
        with pytest.raises(ValueError):
            critical_path(dist, empty)

    def test_truncated_trace_blames_tail_on_idle(self):
        """A device lost mid-trace leaves the makespan tail uncovered;
        the fractions must still partition [0, makespan]."""
        dist = _three_op_chain()
        # gpu1 died before running "b": the trace stops at t's finish
        # (3.0) but the iteration is still accounted at makespan 6.0
        result = _traced(6.0, {"a": (0.0, 1.0), "t": (1.0, 3.0)})
        report = critical_path(dist, result)
        assert [s.op for s in report.segments] == ["a", "t"]
        assert report.blame[IDLE_KEY] == pytest.approx(3.0)
        assert sum(report.blame_fractions().values()) == pytest.approx(1.0)

    def test_on_simulated_run(self):
        cluster = cluster_4gpu()
        graph = make_mlp(name="cp_mlp")
        profile = exact_profile(graph, cluster)
        dist = GraphCompiler(ProfileCostModel(cluster, profile)).compile(
            graph, single_device_strategy(graph, cluster))
        result = Simulator(ProfileCostModel(cluster, profile)).run(dist)
        report = critical_path(dist, result)
        assert sum(report.blame_fractions().values()) == pytest.approx(1.0)
        assert report.segments[0].start == pytest.approx(0.0)
        assert report.segments[-1].end == pytest.approx(result.makespan)


# --------------------------------------------------------------------- #
class TestAmbientSession:
    def test_disabled_by_default(self):
        assert telemetry.active() is None

    def test_session_scopes_enablement(self):
        with telemetry.session() as tel:
            assert telemetry.active() is tel
            with telemetry.span("x"):
                pass
            assert len(tel.tracer) == 1
        assert telemetry.active() is None

    def test_span_is_noop_when_disabled(self):
        with telemetry.span("ignored") as span:
            span.set(k=1)  # must not raise

    def test_simulator_results_identical_with_telemetry_disabled(self):
        """Regression guard: telemetry must never perturb simulation."""
        cluster = cluster_4gpu()
        graph = make_mlp(name="tel_mlp")
        profile = exact_profile(graph, cluster)
        dist = GraphCompiler(ProfileCostModel(cluster, profile)).compile(
            graph, single_device_strategy(graph, cluster))
        sim = Simulator(ProfileCostModel(cluster, profile))

        baseline = sim.run(dist)
        with telemetry.session():
            instrumented = sim.run(dist)
        repeat = sim.run(dist)

        for other in (instrumented, repeat):
            assert other.makespan == baseline.makespan
            assert other.schedule == baseline.schedule
            assert other.device_busy == baseline.device_busy
            assert other.link_busy == baseline.link_busy
            assert other.peak_memory == baseline.peak_memory
            assert other.communication_time == baseline.communication_time

    def test_contended_results_identical_and_waits_accounted(self):
        """Data parallelism over four GPUs with ring all-reduce: ops
        queue on links and the NCCL token, so the wait-queue drain runs
        with telemetry on.  Under FIFO, rank, strict rank and a rank run
        pruned at 0.9x its makespan, results must not move, the
        queue-wait histogram must hold each started op's start minus its
        latest predecessor's finish, and each wait must be charged to
        the op's own resource whose previous holder finished last."""
        cluster = cluster_4gpu()
        graph = make_mlp(name="tel_dp")
        profile = exact_profile(graph, cluster)
        dist = GraphCompiler(ProfileCostModel(cluster, profile)).compile(
            graph, dp_strategy("EV-AR", graph, cluster))
        cost = ProfileCostModel(cluster, profile)
        sim = Simulator(cost)
        kernel = lower(dist)
        resources_of = {
            name: [kernel.resource_names[r] for r in kernel.res_ids[i]]
            for i, name in enumerate(kernel.names)}
        rank = ListScheduler().schedule(dist, cost).order
        cut = 0.9 * sim.run(dist, order=rank).makespan
        cases = ({"order": None}, {"order": rank},
                 {"order": rank, "strict": True},
                 {"order": rank, "prune_above": cut})
        for kw in cases:
            baseline = sim.run(dist, **kw)
            with telemetry.session() as tel:
                traced = sim.run(dist, **kw)
            assert traced.makespan == baseline.makespan
            assert traced.schedule == baseline.schedule
            assert traced.device_busy == baseline.device_busy
            assert traced.link_busy == baseline.link_busy
            assert traced.peak_memory == baseline.peak_memory
            assert traced.pruned == baseline.pruned == ("prune_above" in kw)

            schedule = traced.schedule
            expected = 0.0
            charged = {}
            released = {}  # resource -> finish of its latest holder
            for name, (start, finish) in schedule.items():  # start order
                ready = max((schedule[p][1]
                             for p in dist.predecessors(name)), default=0.0)
                wait = start - ready
                expected += wait
                if wait > 0:
                    held = [r for r in resources_of[name] if r in released]
                    # on a tie, the later resource in the op's list
                    last = max(reversed(held), key=released.__getitem__)
                    if not kw.get("strict"):
                        assert released[last] == start
                    charged[last] = charged.get(last, 0.0) + wait
                for r in resources_of[name]:
                    released[r] = finish
            waits = tel.registry.histogram("sim_queue_wait_seconds")
            assert waits.total == len(schedule)
            assert waits.sum == expected
            assert expected > 0  # something really queued
            per_resource = {
                m.label_dict["resource"]: m.value
                for m in tel.registry.metrics()
                if m.name == "sim_resource_wait_seconds_total"}
            assert per_resource == pytest.approx(charged)
            assert sum(per_resource.values()) == pytest.approx(expected)
            # ops still running at a prune cut did not complete
            completed = sum(m.value for m in tel.registry.metrics()
                            if m.name == "sim_ops_total")
            assert completed == tel.registry.counter("sim_events_total").value
            assert (completed < len(schedule)) == traced.pruned

    def test_engine_metrics_collected(self):
        cluster = cluster_4gpu()
        graph = make_mlp(name="tel_mlp2")
        profile = exact_profile(graph, cluster)
        dist = GraphCompiler(ProfileCostModel(cluster, profile)).compile(
            graph, single_device_strategy(graph, cluster))
        sim = Simulator(ProfileCostModel(cluster, profile))
        with telemetry.session() as tel:
            sim.run(dist)
        reg = tel.registry
        assert reg.counter("sim_runs_total").value == 1
        assert reg.counter("sim_events_total").value == len(dist)
        assert reg.histogram("sim_queue_wait_seconds").total == len(dist)
        spans = tel.tracer.to_events()
        assert [s["name"] for s in spans] == ["simulate"]
