"""Request-scoped observability: journal schema, flight recorder,
SLO accounting, correlation ids, and telemetry session re-entrancy."""

import json
import os
import signal
import sys
import threading

import pytest

from repro import telemetry
from repro.agent import AgentConfig
from repro.cluster import cluster_4gpu
from repro.config import HeteroGConfig
from repro.errors import (
    JournalSchemaError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceTimeoutError,
)
from repro.plan import PlanCache
from repro.service import (
    PlanRequest,
    PlanningService,
    ProcessFleetBackend,
    ServiceStats,
)
from repro.service.backends.fleet import FleetStats
from repro.telemetry import (
    SCHEMA_VERSION,
    FlightRecorder,
    Journal,
    JournalEvent,
    SLOTarget,
    SLOTracker,
    filter_events,
    new_request_id,
    postmortem_report,
    priority_class,
    replay_tracker,
    request_scope,
    validate_event,
)

from tests.helpers import make_mlp

FAST = AgentConfig(max_groups=8, gat_hidden=16, gat_layers=2, gat_heads=2,
                   strategy_dim=16, strategy_heads=2, strategy_layers=1)


def fast_config(seed: int = 0) -> HeteroGConfig:
    return HeteroGConfig(episodes=2, seed=seed, agent=FAST)


@pytest.fixture(scope="module")
def four_gpu():
    return cluster_4gpu()


@pytest.fixture(scope="module")
def mlp():
    return make_mlp(name="jrnl_mlp")


def search_request(graph, cluster, *, episodes=2, seed=0, **kw) -> PlanRequest:
    return PlanRequest(graph=graph, cluster=cluster, episodes=episodes,
                       config=fast_config(seed), **kw)


# --------------------------------------------------------------------- #
class TestJournalSchema:
    def test_emit_validates_and_stamps_base_fields(self):
        journal = Journal()
        entry = journal.emit("cache_hit", "req-x")
        data = entry.to_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["event"] == "cache_hit"
        assert data["request_id"] == "req-x"
        assert isinstance(data["ts"], float)

    def test_unknown_event_type_rejected(self):
        journal = Journal()
        with pytest.raises(JournalSchemaError, match="unknown journal event"):
            journal.emit("made_up_event", "req-x")

    def test_missing_required_field_rejected(self):
        journal = Journal()
        with pytest.raises(JournalSchemaError, match="missing required"):
            journal.emit("rejected", "req-x", queue_depth=3)  # no 'limit'

    def test_reader_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {"schema_version": SCHEMA_VERSION, "event": "cache_hit",
                "request_id": "req-1", "ts": 1.0}
        for bad in (
                {**good, "schema_version": 99},       # future version
                {**good, "event": "nonsense"},        # unknown type
                {k: v for k, v in good.items() if k != "ts"},  # no base
        ):
            path.write_text(json.dumps(bad) + "\n")
            with pytest.raises(JournalSchemaError):
                Journal.load(str(path))
        path.write_text(json.dumps(good) + "\n")
        assert len(Journal.load(str(path))) == 1

    def test_save_load_round_trip_is_bit_identical(self, tmp_path):
        journal = Journal()
        journal.emit("request_accepted", "req-1", graph="g", label="l",
                     priority=2, queue_depth=0)
        journal.emit("timeout", "req-1", stage="queue", seconds=0.5)
        journal.emit("fault_detected", "ep-1", kind="device_lost",
                     resource="gpu1")
        path = tmp_path / "j.jsonl"
        journal.save_jsonl(str(path))
        first = path.read_text()
        reloaded = Journal.load(str(path))
        again = "".join(json.dumps(e.to_dict()) + "\n" for e in reloaded)
        assert again == first

    def test_filters(self):
        journal = Journal()
        journal.emit("request_accepted", "req-000001", graph="g", label="",
                     priority=0, queue_depth=0)
        journal.emit("completed", "req-000001", seconds=0.1)
        journal.emit("completed", "req-000002", seconds=0.2)
        assert len(journal.events(request_id="req-000001")) == 2
        assert len(journal.events(event="completed")) == 2
        assert len(journal.events(phase="admission")) == 1
        assert len(journal.events(tail=1)) == 1
        # prefix match
        assert len(filter_events(journal.events(), request_id="req-0000")) \
            == 3

    def test_capacity_bounds_memory(self):
        journal = Journal(capacity=4)
        for i in range(10):
            journal.emit("cache_hit", f"req-{i}")
        assert len(journal) == 4
        assert journal.emitted == 10
        assert journal.events()[0].request_id == "req-6"

    def test_validate_event_accepts_extra_attrs(self):
        validate_event({"schema_version": SCHEMA_VERSION,
                        "event": "cache_hit", "request_id": "r",
                        "ts": 0.0, "anything": "extra"})

    def test_streaming_sink(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        journal = Journal(path=str(path))
        journal.emit("cache_hit", "req-1")
        journal.emit("cache_hit", "req-2")
        journal.close()
        assert len(Journal.load(str(path))) == 2


# --------------------------------------------------------------------- #
class TestRequestIds:
    def test_auto_assigned_and_unique(self, mlp, four_gpu):
        a = search_request(mlp, four_gpu)
        b = search_request(mlp, four_gpu)
        assert a.request_id and b.request_id
        assert a.request_id != b.request_id
        # correlation ids never split fingerprints (caching stays sound)
        assert a.fingerprint == b.fingerprint

    def test_parent_captured_from_ambient_scope(self, mlp, four_gpu):
        with request_scope("ep-000042"):
            child = search_request(mlp, four_gpu)
        orphan = search_request(mlp, four_gpu)
        assert child.parent_id == "ep-000042"
        assert orphan.parent_id == ""

    def test_explicit_ids_respected(self, mlp, four_gpu):
        req = search_request(mlp, four_gpu)
        explicit = PlanRequest(graph=mlp, cluster=four_gpu, episodes=2,
                               config=fast_config(),
                               request_id="req-custom", parent_id="ep-9")
        assert explicit.request_id == "req-custom"
        assert explicit.parent_id == "ep-9"
        assert req.request_id != "req-custom"


# --------------------------------------------------------------------- #
def accept(rec: FlightRecorder, request_id: str) -> None:
    """Open ``request_id``'s record the way the service does."""
    rec.emit(request_id, "request_accepted", graph="g", label="",
             priority=0, queue_depth=0)


class TestFlightRecorder:
    def test_ring_evicts_oldest_finished_first(self):
        rec = FlightRecorder(capacity=2)
        accept(rec, "req-a")
        rec.emit("req-a", "completed", seconds=0.1)
        accept(rec, "req-b")        # inflight
        accept(rec, "req-c")        # over capacity: evict finished req-a
        assert rec.get("req-a") is None
        assert rec.get("req-b") is not None
        assert rec.get("req-c") is not None

    def test_per_record_event_cap_counts_drops(self):
        rec = FlightRecorder(max_events=3)
        accept(rec, "req-a")
        for _ in range(4):
            rec.emit("req-a", "cache_hit")
        record = rec.get("req-a")
        assert len(record.events) == 3
        assert record.dropped_events == 2

    def test_first_terminal_status_wins(self):
        rec = FlightRecorder()
        accept(rec, "req-a")
        assert rec.emit("req-a", "timeout", stage="wait", seconds=1.0)
        # late completion after the timeout: no second seal, but the
        # breakdown and blame it carries still reach the record
        assert not rec.emit("req-a", "completed", seconds=2.0,
                            queue_seconds=0.5, service_seconds=1.5,
                            blame={"gpu0": 1.0})
        record = rec.get("req-a")
        assert record.status == "timeout"
        assert record.finished_ts == record.events[1].ts
        assert record.queue_seconds == 0.5
        assert record.service_seconds == 1.5
        assert record.blame == {"gpu0": 1.0}

    def test_header_fields_from_first_carrier(self):
        rec = FlightRecorder()
        rec.emit("ep-1", "episode_started", policy="replan", steps=4,
                 label="resilience", graph="g")
        rec.emit("ep-1", "request_accepted", graph="other", label="x",
                 priority=3, queue_depth=0)
        record = rec.get("ep-1")
        assert record.label == "resilience" and record.graph == "g"
        assert record.priority == 3         # first event to carry it
        assert record.submitted_ts == record.events[0].ts

    def test_sealing_event_past_cap_still_seals(self):
        rec = FlightRecorder()
        accept(rec, "req-long")
        for i in range(rec.max_events):
            rec.emit("req-long", "candidate_evaluated", feasible=True,
                     time=float(i))
        blame = {"gpu0": 0.75, "idle": 0.25}
        assert rec.emit("req-long", "completed", seconds=3.0, blame=blame)
        record = rec.get("req-long")
        assert record.status == "completed" and record.blame == blame
        assert len(record.events) == rec.max_events
        assert record.dropped_events == 2
        assert record.events[-1].event == "candidate_evaluated"
        assert record.finished_ts == \
            rec.journal.events(event="completed")[0].ts
        # the rebuild applies the same cap
        rebuilt = FlightRecorder.from_events(rec.journal.events())
        assert rebuilt.get("req-long").to_dict() == record.to_dict()

    def test_get_by_unique_prefix(self):
        rec = FlightRecorder()
        accept(rec, "req-000123")
        accept(rec, "req-000456")
        assert rec.get("req-0001").request_id == "req-000123"
        assert rec.get("req-000") is None  # ambiguous

    def test_new_request_id_prefixes(self):
        assert new_request_id("ep").startswith("ep-")
        assert new_request_id() != new_request_id()


# --------------------------------------------------------------------- #
class GatedService(PlanningService):
    """Service whose ``_serve`` blocks until ``gate`` is set, so a test
    can hold a computation in flight while it submits more work."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gate = threading.Event()
        self.entered = threading.Event()

    def _serve(self, request, queue_seconds):
        self.entered.set()
        assert self.gate.wait(30), "test never released the gate"
        return super()._serve(request, queue_seconds)


class GatedInline(GatedService):
    """workers=0 gated service: a concurrent inline submission
    deterministically hits admission control."""

    def __init__(self, **kwargs):
        super().__init__(workers=0, **kwargs)


class TestServiceObservability:
    def test_completed_request_timeline_without_tracing(self, mlp,
                                                        four_gpu):
        """Acceptance: the flight recorder reconstructs a request's full
        timeline with the telemetry session never enabled."""
        assert telemetry.active() is None
        rec = FlightRecorder()
        with PlanningService(workers=0, recorder=rec) as service:
            result = service.plan(search_request(mlp, four_gpu))
        assert telemetry.active() is None
        record = rec.get(result.request_id)
        assert record is not None and record.status == "completed"
        names = [e.event for e in record.events]
        assert names[0] == "request_accepted"
        assert "context_cold" in names
        assert "search_started" in names
        assert "candidate_evaluated" in names
        assert "plan_built" in names
        assert names[-1] == "completed"
        assert all(e.request_id == result.request_id
                   for e in record.events)
        assert all(e.schema_version == SCHEMA_VERSION
                   for e in record.events)
        report = postmortem_report(record)
        assert result.request_id in report
        assert "queue wait" in report and "timeline:" in report

    def test_context_lookup_journals_nothing(self, mlp, four_gpu):
        """The facade's profile step looks a context up without serving
        a request: it opens no flight record (such a record would never
        seal), and the first served request journals the warm context."""
        from repro.heterog import HeteroG

        rec = FlightRecorder()
        with PlanningService(workers=0, recorder=rec) as service:
            facade = HeteroG(four_gpu, config=fast_config(),
                             service=service)
            for _ in range(3):
                facade.profile(mlp)
            assert rec.records() == [] and len(rec.journal) == 0
            result = facade.plan_result(mlp)
        record = rec.get(result.request_id)
        assert record.status == "completed"
        assert [e.event for e in record.events
                if e.phase == "context"] == ["context_warm"]

    def test_cache_hit_and_coalesced_dispositions(self, mlp, four_gpu):
        rec = FlightRecorder()
        with PlanningService(workers=0, recorder=rec) as service:
            first = service.plan(search_request(mlp, four_gpu, seed=1))
            second = service.plan(search_request(mlp, four_gpu, seed=1))
        hit = rec.get(second.request_id)
        assert hit.status == "completed"
        assert [e.event for e in hit.events] == \
            ["request_accepted", "cache_hit", "completed"]
        assert "result cache" in hit.disposition()
        assert second.from_cache and second.request_id != first.request_id

    def test_forced_timeout_leaves_complete_record(self, mlp, four_gpu,
                                                   tmp_path):
        """Satellite: a forced ServiceTimeoutError under workers=0
        leaves a full flight timeline that round-trips bit-identically
        through the JSONL schema reader."""
        rec = FlightRecorder()
        request = search_request(mlp, four_gpu, seed=2, timeout=1e-9)
        with PlanningService(workers=0, recorder=rec) as service:
            with pytest.raises(ServiceTimeoutError) as excinfo:
                service.plan(request)
        assert excinfo.value.stage == "queue"
        assert excinfo.value.request_id == request.request_id
        record = rec.get(request.request_id)
        assert record.status == "timeout"
        names = [e.event for e in record.events]
        assert names[0] == "request_accepted" and "timeout" in names
        timeout_event = next(e for e in record.events
                             if e.event == "timeout")
        assert timeout_event.attrs["stage"] == "queue"
        # bit-identical JSONL round trip, then rebuild the same record
        path = tmp_path / "timeout.jsonl"
        rec.journal.save_jsonl(str(path))
        first = path.read_text()
        loaded = Journal.load(str(path))
        again = "".join(json.dumps(e.to_dict()) + "\n" for e in loaded)
        assert again == first
        rebuilt = FlightRecorder.from_events(loaded).get(request.request_id)
        assert rebuilt.status == "timeout"
        assert [e.event for e in rebuilt.events] == names

    def test_forced_overload_leaves_complete_record(self, mlp, four_gpu,
                                                    tmp_path):
        """Satellite: a forced ServiceOverloadedError (inline admission
        control) leaves a rejected record that round-trips through the
        JSONL reader bit-identically."""
        rec = FlightRecorder()
        service = GatedInline(max_queue=1, recorder=rec)
        blocked = search_request(mlp, four_gpu, seed=3)
        rejected = search_request(mlp, four_gpu, seed=4)
        worker = threading.Thread(target=lambda: service.plan(blocked),
                                  daemon=True)
        worker.start()
        assert service.entered.wait(30)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            service.submit(rejected)
        service.gate.set()
        worker.join(timeout=30)
        service.close()
        assert excinfo.value.request_id == rejected.request_id
        record = rec.get(rejected.request_id)
        assert record.status == "rejected"
        assert [e.event for e in record.events] == \
            ["request_accepted", "rejected"]
        assert record.events[-1].attrs["limit"] == 1
        path = tmp_path / "overload.jsonl"
        rec.journal.save_jsonl(str(path))
        first = path.read_text()
        loaded = Journal.load(str(path))
        again = "".join(json.dumps(e.to_dict()) + "\n" for e in loaded)
        assert again == first
        rebuilt = FlightRecorder.from_events(loaded).get(
            rejected.request_id)
        assert rebuilt.status == "rejected"

    def test_snapshot_exposes_caches_contexts_and_slo(self, mlp, four_gpu):
        rec = FlightRecorder()
        with PlanningService(workers=0, recorder=rec) as service:
            service.plan(search_request(mlp, four_gpu, seed=5))
            service.plan(search_request(mlp, four_gpu, seed=5))  # hit
            snapshot = service.snapshot()
        stats = snapshot["stats"]
        assert stats["result_hits"] == 1 and stats["result_misses"] == 1
        assert stats["contexts_warm"] == 1
        assert snapshot["contexts"] == {"warm": 1, "capacity": 16}
        cache = snapshot["result_cache"]
        assert cache["hits"] == 1 and cache["size"] == 1
        assert snapshot["queue"]["capacity"] == 64
        assert snapshot["inflight"] == []
        slo = snapshot["slo"]["batch"]
        assert slo["requests"] == 2 and slo["breaches"] == 0

    def test_spans_carry_request_id_when_traced(self, mlp, four_gpu):
        rec = FlightRecorder()
        with telemetry.session() as tel:
            with PlanningService(workers=0, recorder=rec) as service:
                result = service.plan(search_request(mlp, four_gpu, seed=6))
        tagged = [s for s in tel.tracer.to_events()
                  if s["attrs"].get("request_id") == result.request_id]
        names = {s["name"] for s in tagged}
        assert "pipeline.search" in names
        assert "plan.build" in names


# --------------------------------------------------------------------- #
class TestSLO:
    def test_priority_classes(self):
        assert priority_class(0) == "batch"
        assert priority_class(1) == "interactive"
        assert priority_class(9) == "interactive"
        assert priority_class(10) == "critical"

    def test_error_budget_accounting(self):
        tracker = SLOTracker({"batch": SLOTarget(objective_seconds=1.0,
                                                 target=0.9)})
        for _ in range(8):
            tracker.observe("batch", 0.5)
        tracker.observe("batch", 5.0)           # too slow
        tracker.observe("batch", 0.1, ok=False)  # failed
        state = tracker.snapshot()["batch"]
        assert state["requests"] == 10
        assert state["good"] == 8 and state["breaches"] == 2
        assert state["compliance"] == pytest.approx(0.8)
        assert state["error_budget"] == pytest.approx(1.0)
        assert state["budget_burn"] == pytest.approx(2.0)  # SLO blown
        assert state["worst_latency"] == 5.0

    def test_rejects_bad_targets(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            SLOTarget(objective_seconds=-1.0)
        with pytest.raises(ReproError):
            SLOTarget(objective_seconds=1.0, target=1.5)

    def test_replay_from_journal_events(self):
        events = [
            JournalEvent("completed", "r1", 1.0,
                         {"seconds": 0.5, "slo_class": "batch"}),
            JournalEvent("timeout", "r2", 2.0,
                         {"stage": "queue", "seconds": 9.0,
                          "slo_class": "batch"}),
            JournalEvent("cache_hit", "r3", 3.0, {}),  # ignored
            # the computation behind r2's timeout finishes late: r2 is
            # already sealed, so it is not counted twice
            JournalEvent("completed", "r2", 4.0,
                         {"seconds": 11.0, "slo_class": "batch"}),
        ]
        state = replay_tracker(events).snapshot()["batch"]
        assert state["requests"] == 2
        assert state["good"] == 1 and state["breaches"] == 1


# --------------------------------------------------------------------- #
def run_resilient_episode(graph, cluster, rec, slo=None):
    """Six training steps with gpu1 crashing at step 2 (one replan),
    journaled into ``rec``; returns the trainer after the run."""
    from repro.baselines import dp_strategy
    from repro.profiling import Profiler
    from repro.resilience import (
        FaultInjector,
        FaultSchedule,
        Replanner,
        ResilientTrainer,
    )
    from repro.plan import PlanBuilder
    from repro.runtime import ExecutionEngine

    config = AgentConfig(seed=3, max_groups=8, gat_hidden=16,
                         gat_layers=2, gat_heads=2, strategy_dim=16,
                         strategy_heads=2, strategy_layers=1)
    profile = Profiler(seed=0).profile(graph, cluster)
    deployment = PlanBuilder(graph, cluster, profile).build(
        dp_strategy("CP-AR", graph, cluster))
    injector = FaultInjector(cluster, FaultSchedule.parse("crash:gpu1@2"))
    engine = ExecutionEngine(cluster, seed=9, fault_injector=injector)
    replanner = Replanner(
        graph, cluster, config=HeteroGConfig(seed=3, agent=config),
        episodes=2,
        service=PlanningService(workers=0, name="replanner",
                                recorder=rec, slo=slo))
    trainer = ResilientTrainer(deployment, injector, engine=engine,
                               replanner=replanner, recorder=rec)
    report = trainer.run(6)
    assert not report.stalled
    return trainer


class TestResilienceEpisodeTrace:
    def test_fault_detect_replan_resume_is_one_linked_trace(self, mlp,
                                                            four_gpu):
        """Tentpole acceptance: a fault -> detect -> replan -> resume
        episode is one correlated trace — the episode record holds the
        detection and replan events, and the replan's service request is
        linked back through parent_id."""
        rec = FlightRecorder()
        trainer = run_resilient_episode(mlp, four_gpu, rec)

        episode = rec.get(trainer.episode_id)
        assert episode is not None and episode.status == "completed"
        names = [e.event for e in episode.events]
        assert names[0] == "episode_started"
        for expected in ("fault_detected", "replan_started",
                         "replan_completed", "resumed"):
            assert expected in names
        fault = next(e for e in episode.events
                     if e.event == "fault_detected")
        assert fault.attrs["kind"] == "device_lost"
        assert fault.attrs["resource"] == "gpu1"

        # the replan's own service request links back to the episode
        replans = [r for r in rec.records()
                   if r.parent_id == trainer.episode_id]
        assert len(replans) >= 1
        assert all(r.label == "replan" for r in replans)
        replan_done = next(e for e in episode.events
                           if e.event == "replan_completed")
        assert replan_done.attrs["request_id_of_replan"] \
            in {r.request_id for r in replans}
        # postmortem of the episode reads end-to-end
        text = postmortem_report(episode)
        assert "fault_detected" in text and "resumed" in text


# --------------------------------------------------------------------- #
class TestLiveReplayParity:
    def test_records_and_slo_rebuild_identically(self, mlp, four_gpu,
                                                 tmp_path):
        """Every sealed record of a mixed workload, and the SLO state,
        are identical live and rebuilt from the saved JSONL journal."""
        from repro.errors import ReproError
        from repro.parallel import single_device_strategy

        rec = FlightRecorder()
        slo = SLOTracker()

        # fresh search with blame, then its result-cache hit; then a
        # wait-stage timeout whose computation completes later, and a
        # duplicate coalesced onto it, on a one-worker thread backend
        threaded = GatedService(workers=1, recorder=rec, slo=slo)
        threaded.gate.set()
        fresh = threaded.plan(search_request(mlp, four_gpu, seed=7))
        threaded.plan(search_request(mlp, four_gpu, seed=7))
        threaded.gate.clear()
        slow = search_request(mlp, four_gpu, seed=8, timeout=0.5)
        with pytest.raises(ServiceTimeoutError) as excinfo:
            threaded.plan(slow)
        assert excinfo.value.stage == "wait"
        duplicate = search_request(mlp, four_gpu, seed=8)
        ticket = threaded.submit(duplicate)
        threaded.gate.set()
        ticket.result(30)
        threaded.close()

        # inline: an admission rejection, a queue timeout, a failure
        inline = GatedInline(max_queue=1, recorder=rec, slo=slo)
        blocked = threading.Thread(
            target=lambda: inline.plan(search_request(mlp, four_gpu,
                                                      seed=9)),
            daemon=True)
        blocked.start()
        assert inline.entered.wait(30)
        rejected = search_request(mlp, four_gpu, seed=10)
        with pytest.raises(ServiceOverloadedError):
            inline.submit(rejected)
        inline.gate.set()
        blocked.join(timeout=30)
        queued = search_request(mlp, four_gpu, seed=11, timeout=1e-9)
        with pytest.raises(ServiceTimeoutError):
            inline.plan(queued)
        doomed = PlanRequest(
            graph=mlp, cluster=four_gpu, config=fast_config(),
            strategy=single_device_strategy(
                make_mlp(name="jrnl_other", layers=1), four_gpu))
        with pytest.raises(ReproError):
            inline.plan(doomed)
        inline.close()

        trainer = run_resilient_episode(mlp, four_gpu, rec, slo=slo)

        path = tmp_path / "parity.jsonl"
        rec.journal.save_jsonl(str(path))
        loaded = Journal.load(str(path))
        rebuilt = FlightRecorder.from_events(loaded)
        sealed = [r for r in rec.records() if r.done]
        for record in sealed:
            twin = rebuilt.get(record.request_id)
            assert twin.to_dict() == record.to_dict()
            assert postmortem_report(twin) == postmortem_report(record)
        assert threaded.snapshot()["slo"] == \
            replay_tracker(loaded).snapshot()

        # the workload covers what the parity has to hold for
        status = {r.request_id: r.status for r in sealed}
        assert rec.get(fresh.request_id).blame
        assert status[slow.request_id] == "timeout"
        assert "completed" in [e.event for e in
                               rec.get(slow.request_id).events]
        assert status[duplicate.request_id] == "coalesced"
        assert status[rejected.request_id] == "rejected"
        assert status[queued.request_id] == "timeout"
        assert status[doomed.request_id] == "failed"
        assert status[trainer.episode_id] == "completed"
        assert len(loaded) < rec.journal.capacity
        # the wait-stage timeout is one breach; its late completion is
        # not counted again
        batch = slo.snapshot()["batch"]
        assert batch["breaches"] == 3
        assert batch["requests"] == batch["good"] + 3

    def test_close_seals_queued_requests_as_failed(self, mlp, four_gpu,
                                                   tmp_path):
        """Requests still queued at close() get a terminal ``failed``
        event: sealed records, one ``stats.failed`` and one SLO breach
        each, and the same records and SLO state rebuilt from JSONL."""
        rec = FlightRecorder()
        service = GatedService(workers=1, recorder=rec, slo=SLOTracker())
        running = service.submit(search_request(mlp, four_gpu, seed=12))
        assert service.entered.wait(30)
        queued = [search_request(mlp, four_gpu, seed=seed)
                  for seed in range(13, 17)]
        tickets = [service.submit(request) for request in queued]
        closer = threading.Thread(target=service.close, daemon=True)
        closer.start()
        for ticket in tickets:
            with pytest.raises(ServiceClosedError):
                ticket.result(30)
        # the queued tickets fail before the in-flight one is released
        service.gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        running.result(30)

        for request in queued:
            record = rec.get(request.request_id)
            assert record.status == "failed"
            assert record.events[-1].attrs["error"] == "ServiceClosedError"
        stats = service.stats
        assert (stats.completed, stats.failed) == (1, len(queued))
        batch = service.slo.snapshot()["batch"]
        assert batch["requests"] == 1 + len(queued)
        assert batch["breaches"] == len(queued)

        path = tmp_path / "closed.jsonl"
        rec.journal.save_jsonl(str(path))
        loaded = Journal.load(str(path))
        rebuilt = FlightRecorder.from_events(loaded)
        for record in rec.records():
            assert record.done
            assert rebuilt.get(record.request_id).to_dict() == \
                record.to_dict()
        assert replay_tracker(loaded).snapshot() == service.slo.snapshot()


# --------------------------------------------------------------------- #
def _drive_inline(rec, mlp, four_gpu):
    """Inline: coalesced + wait timeout onto a held request, a
    rejection, a cache hit, a queue timeout and a failure."""
    from repro.errors import ReproError
    from repro.parallel import single_device_strategy

    service = GatedInline(max_queue=1, recorder=rec)
    held = threading.Thread(
        target=lambda: service.plan(search_request(mlp, four_gpu,
                                                   seed=21)),
        daemon=True)
    held.start()
    assert service.entered.wait(30)
    with pytest.raises(ServiceTimeoutError, match="wait"):
        service.plan(search_request(mlp, four_gpu, seed=21, timeout=0.05))
    with pytest.raises(ServiceOverloadedError):
        service.submit(search_request(mlp, four_gpu, seed=22))
    service.gate.set()
    held.join(timeout=30)
    assert service.plan(search_request(mlp, four_gpu, seed=21)).from_cache
    with pytest.raises(ServiceTimeoutError, match="queue"):
        service.plan(search_request(mlp, four_gpu, seed=23, timeout=1e-9))
    with pytest.raises(ReproError):
        service.plan(PlanRequest(
            graph=mlp, cluster=four_gpu, config=fast_config(),
            strategy=single_device_strategy(
                make_mlp(name="fold_other", layers=1), four_gpu)))
    service.close()
    return service


def _drive_thread(rec, mlp, four_gpu):
    """One thread worker: coalesced + wait timeout onto a held request,
    a queue timeout and a fresh request queued behind it, a rejection,
    a cache hit, then a request still queued at close()."""
    service = GatedService(workers=1, max_queue=2, recorder=rec)
    first = service.submit(search_request(mlp, four_gpu, seed=31))
    assert service.entered.wait(30)
    with pytest.raises(ServiceTimeoutError, match="wait"):
        service.plan(search_request(mlp, four_gpu, seed=31, timeout=0.05))
    expired = service.submit(search_request(mlp, four_gpu, seed=32,
                                            timeout=1e-3))
    queued = service.submit(search_request(mlp, four_gpu, seed=33))
    with pytest.raises(ServiceOverloadedError):
        service.submit(search_request(mlp, four_gpu, seed=34))
    service.gate.set()
    first.result(30)
    queued.result(30)
    with pytest.raises(ServiceTimeoutError, match="queue"):
        expired.result(30)
    assert service.plan(search_request(mlp, four_gpu, seed=31)).from_cache
    service.gate.clear()
    service.entered.clear()
    held = service.submit(search_request(mlp, four_gpu, seed=35))
    assert service.entered.wait(30)
    stranded = service.submit(search_request(mlp, four_gpu, seed=36))
    closer = threading.Thread(target=service.close, daemon=True)
    closer.start()
    with pytest.raises(ServiceClosedError):
        stranded.result(30)
    service.gate.set()
    closer.join(timeout=30)
    held.result(30)
    return service


def _drive_fleet(rec, mlp, four_gpu):
    """The thread workload on a one-worker fleet whose worker is killed
    mid-request (re-dispatched to its replacement)."""
    backend = ProcessFleetBackend(
        1, heartbeat_interval=0.1, heartbeat_timeout=1.0,
        stall_labels={"slow": 1.0})
    service = PlanningService(workers=1, backend=backend, max_queue=2,
                              recorder=rec)
    first = service.submit(search_request(mlp, four_gpu, seed=41,
                                          label="slow-1"))
    victim = backend.wait_serving(first.fingerprint, timeout=20)
    assert victim is not None
    with pytest.raises(ServiceTimeoutError, match="wait"):
        service.plan(search_request(mlp, four_gpu, seed=41, timeout=0.05))
    expired = service.submit(search_request(mlp, four_gpu, seed=42,
                                            timeout=1e-3))
    queued = service.submit(search_request(mlp, four_gpu, seed=43))
    with pytest.raises(ServiceOverloadedError):
        service.submit(search_request(mlp, four_gpu, seed=44))
    os.kill(backend.worker_pids()[victim], signal.SIGKILL)
    first.result(60)
    queued.result(60)
    with pytest.raises(ServiceTimeoutError, match="queue"):
        expired.result(60)
    assert service.plan(search_request(mlp, four_gpu, seed=41)).from_cache
    held = service.submit(search_request(mlp, four_gpu, seed=45,
                                         label="slow-2"))
    assert backend.wait_serving(held.fingerprint, timeout=20) is not None
    stranded = service.submit(search_request(mlp, four_gpu, seed=46))
    service.close()
    with pytest.raises(ServiceClosedError):
        stranded.result(30)
    held.result(30)
    return service


class TestStatsAreJournalFolds:
    def test_concurrent_folds_lose_no_update(self):
        """Emitters fold with or without their own locks held; the
        tally's lock alone keeps every count."""
        stats, threads, rounds = FleetStats(), 8, 2000

        def fold():
            for _ in range(rounds):
                stats.fold("dispatched", {})
                stats.fold("worker_spawn", {})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=fold, daemon=True)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert stats.dispatched == stats.spawned == threads * rounds

    @pytest.mark.parametrize("drive", [
        _drive_inline,
        _drive_thread,
        pytest.param(_drive_fleet, marks=pytest.mark.slow),
    ], ids=["inline", "thread", "fleet"])
    def test_stats_and_counters_fold_from_saved_journal(
            self, drive, mlp, four_gpu, tmp_path):
        """The service and fleet stats of a mixed workload, and their
        session counters, equal the same fold over the saved JSONL
        journal, replayed in a fresh tally."""
        rec = FlightRecorder()
        registry = telemetry.MetricsRegistry()
        with telemetry.session(registry=registry):
            service = drive(rec, mlp, four_gpu)
        snapshot = service.snapshot()
        path = tmp_path / "fold.jsonl"
        rec.journal.save_jsonl(str(path))
        loaded = Journal.load(str(path))
        replayed, replayed_fleet = ServiceStats(PlanCache(1), {}), \
            FleetStats()
        for entry in loaded:
            replayed.fold(entry.event, entry.attrs)
            replayed_fleet.fold(entry.event, entry.attrs)

        stats = snapshot["stats"]
        folded = {k: getattr(replayed, k) for k in ServiceStats.FIELDS}
        assert folded == {k: stats[k] for k in ServiceStats.FIELDS}
        assert all(folded.values()), folded   # every fact was exercised
        # the keys that are not folds are read from their owners
        assert set(stats) - set(ServiceStats.FIELDS) == {
            "executed", "result_hits", "result_misses", "contexts_warm"}
        hits = sum(e.event == "cache_hit" for e in loaded)
        assert stats["result_hits"] == hits == 1
        assert stats["result_misses"] == stats["submitted"] - hits
        assert stats["contexts_warm"] == snapshot["contexts"]["warm"]

        fleet = {k: getattr(replayed_fleet, k) for k in FleetStats.FIELDS}
        live_fleet = snapshot["backend"].get("stats")
        if live_fleet is None:
            assert not any(fleet.values())
        else:
            assert set(live_fleet) - set(fleet) == {"heartbeats"}
            assert fleet == {k: live_fleet[k] for k in FleetStats.FIELDS}
            assert (fleet["spawned"], fleet["exited"], fleet["lost"],
                    fleet["redispatched"]) == (2, 2, 1, 1)

        def counter(name, **labels):
            metric = registry.get(name, labels)
            return metric.value if metric is not None else 0

        assert counter("service_requests_total", status="completed") \
            == stats["completed"]
        assert counter("service_requests_total", status="failed") \
            == stats["failed"]
        assert counter("service_coalesced_total") == stats["coalesced"]
        assert counter("service_rejected_total") == stats["rejected"]
        assert counter("service_timeouts_total", stage="wait") \
            + counter("service_timeouts_total", stage="queue") \
            == stats["timeouts"]
        assert counter("service_fleet_workers_lost_total") == fleet["lost"]
        assert counter("service_fleet_redispatched_total") \
            == fleet["redispatched"]
        assert counter("service_fleet_results_discarded_total") \
            == fleet["discarded"]


# --------------------------------------------------------------------- #
class TestSessionReentrancy:
    """Satellite: nested/re-entrant telemetry sessions compose."""

    def test_disable_restores_prior_session(self):
        outer = telemetry.enable()
        inner = telemetry.enable()
        assert telemetry.active() is inner
        telemetry.disable()
        assert telemetry.active() is outer
        telemetry.disable()
        assert telemetry.active() is None

    def test_disable_without_session_is_noop(self):
        assert telemetry.active() is None
        telemetry.disable()
        assert telemetry.active() is None

    def test_nested_session_restores_outer(self):
        with telemetry.session() as outer:
            with telemetry.session() as inner:
                assert telemetry.active() is inner
                with telemetry.span("inner.work"):
                    pass
            assert telemetry.active() is outer
            with telemetry.span("outer.work"):
                pass
        assert telemetry.active() is None
        assert [s["name"] for s in inner.tracer.to_events()] \
            == ["inner.work"]
        assert [s["name"] for s in outer.tracer.to_events()] \
            == ["outer.work"]

    def test_session_unwinds_stray_enables(self):
        with telemetry.session() as tel:
            telemetry.enable()   # opened inside, never disabled
            telemetry.enable()
            assert telemetry.active() is not tel
        assert telemetry.active() is None
