"""Execution backends: wire protocol, the backend seam, and the
process-fleet failure paths (kill mid-request, re-dispatch,
false-positive heartbeats, drain)."""

import os
import signal
import threading
import time
import warnings

import pytest

from repro.agent import AgentConfig
from repro.cluster import cluster_4gpu
from repro.config import HeteroGConfig
from repro.errors import (
    FleetProtocolError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
    WorkerLostError,
)
from repro.service import (
    InlineBackend,
    PlanRequest,
    PlanningService,
    ProcessFleetBackend,
    ThreadBackend,
    make_backend,
)
from repro.service.messages import (
    CompletedMessage,
    HeartbeatMessage,
    PlanRequestMessage,
    ShutdownMessage,
    message_from_wire,
    rebuild_error,
)
from repro.telemetry.flight import FlightRecorder

from tests.helpers import make_mlp

FAST = AgentConfig(max_groups=8, gat_hidden=16, gat_layers=2, gat_heads=2,
                   strategy_dim=16, strategy_heads=2, strategy_layers=1)

# fleet knobs tuned for fast, deterministic failure tests
FLEET_KW = dict(heartbeat_interval=0.1, heartbeat_timeout=1.0)


def fast_config(seed: int = 0) -> HeteroGConfig:
    return HeteroGConfig(episodes=2, seed=seed, agent=FAST)


@pytest.fixture(scope="module")
def four_gpu():
    return cluster_4gpu()


@pytest.fixture(scope="module")
def mlp():
    return make_mlp(name="backend_mlp")


def search_request(graph, cluster, *, episodes=2, seed=0, **kw) -> PlanRequest:
    return PlanRequest(graph=graph, cluster=cluster, episodes=episodes,
                       config=fast_config(seed), **kw)


def journal_events(service, rid=None, event=None):
    return [e for e in service.recorder.journal.events(
        request_id=rid, event=event)]


# --------------------------------------------------------------------- #
# wire protocol
class TestMessages:
    def test_round_trip(self):
        msg = PlanRequestMessage(ticket="fp", request=None,
                                 queue_seconds=0.5, stall_seconds=0.0)
        back = message_from_wire(msg.to_wire())
        assert back == msg

    def test_all_types_round_trip(self):
        for msg in (ShutdownMessage(reason="r"),
                    HeartbeatMessage(worker="w0", ts=1.0, served=3),
                    CompletedMessage(ticket="fp", worker="w0",
                                     result=None)):
            assert message_from_wire(msg.to_wire()) == msg

    def test_non_dict_rejected(self):
        with pytest.raises(FleetProtocolError):
            message_from_wire("nope")

    def test_missing_version_rejected(self):
        wire = ShutdownMessage().to_wire()
        del wire["v"]
        with pytest.raises(FleetProtocolError, match="missing 'v'"):
            message_from_wire(wire)

    def test_future_version_rejected(self):
        wire = ShutdownMessage().to_wire()
        wire["v"] = 99
        with pytest.raises(FleetProtocolError, match="version"):
            message_from_wire(wire)

    def test_unknown_type_rejected(self):
        wire = ShutdownMessage().to_wire()
        wire["type"] = "flux_capacitor"
        with pytest.raises(FleetProtocolError, match="unknown message"):
            message_from_wire(wire)

    def test_field_mismatch_rejected(self):
        wire = HeartbeatMessage(worker="w0").to_wire()
        wire["extra"] = 1
        with pytest.raises(FleetProtocolError, match="unexpected"):
            message_from_wire(wire)
        del wire["extra"]
        del wire["served"]
        with pytest.raises(FleetProtocolError, match="missing"):
            message_from_wire(wire)

    def test_rebuild_known_error(self):
        err = rebuild_error("ServiceClosedError", "gone")
        assert isinstance(err, ServiceClosedError)
        assert "gone" in str(err)

    def test_rebuild_structured_error_degrades(self):
        err = rebuild_error("ServiceOverloadedError", "full")
        assert not isinstance(err, ServiceOverloadedError)
        assert isinstance(err, ReproError)
        assert "ServiceOverloadedError" in str(err)

    def test_rebuild_unknown_type_degrades(self):
        err = rebuild_error("SomethingElse", "boom")
        assert isinstance(err, ReproError)
        assert "SomethingElse: boom" in str(err)


# --------------------------------------------------------------------- #
# the seam itself
class TestBackendSeam:
    def test_auto_mapping(self):
        assert isinstance(make_backend("auto", workers=0), InlineBackend)
        assert isinstance(make_backend("auto", workers=2), ThreadBackend)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown execution backend"):
            make_backend("carrier_pigeon", workers=2)

    def test_fleet_needs_workers(self):
        with pytest.raises(ReproError):
            make_backend("fleet", workers=0)

    def test_instance_with_options_rejected(self):
        with pytest.raises(ReproError):
            make_backend(InlineBackend(), workers=0,
                         options={"x": 1})

    def test_backend_cannot_be_rebound(self):
        backend = InlineBackend()
        with PlanningService(workers=0, backend=backend):
            with pytest.raises(ReproError, match="already bound"):
                PlanningService(workers=0, backend=backend)

    def test_snapshot_reports_backend(self):
        with PlanningService(workers=0, name="snap") as svc:
            assert svc.snapshot()["backend"]["name"] == "inline"
        with PlanningService(workers=1, name="snap2") as svc:
            assert svc.snapshot()["backend"]["name"] == "thread"

    @pytest.mark.parametrize("kwargs", [
        dict(workers=0),
        dict(workers=2),
        dict(workers=2, backend="fleet"),
    ])
    def test_close_is_idempotent(self, kwargs):
        svc = PlanningService(name="idem", **kwargs)
        svc.close()
        svc.close()  # second close must be a no-op, not an error
        assert svc.snapshot()["backend"]["closed"]

    def test_results_identical_across_inline_and_thread(self, mlp,
                                                        four_gpu):
        results = {}
        for name, kwargs in (("inline", dict(workers=0)),
                             ("thread", dict(workers=2))):
            with PlanningService(name=f"bit-{name}", **kwargs) as svc:
                results[name] = svc.plan(search_request(mlp, four_gpu))
        inline, thread = results["inline"], results["thread"]
        assert inline.outcome.time == thread.outcome.time
        assert {n: s.label() for n, s in inline.strategy.items()} \
            == {n: s.label() for n, s in thread.strategy.items()}


class TestThreadBackendClose:
    def test_join_timeout_is_surfaced(self, mlp, four_gpu):
        release = threading.Event()
        entered = threading.Event()

        class StuckService(PlanningService):
            def _serve(self, request, queue_seconds):
                entered.set()
                release.wait(30)
                return super()._serve(request, queue_seconds)

        svc = StuckService(workers=1, name="stuck",
                           backend_options={"join_timeout": 0.2},
                           recorder=FlightRecorder())
        ticket = svc.submit(search_request(mlp, four_gpu))
        assert entered.wait(10)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            svc.close()
        assert any("did not exit" in str(w.message) for w in caught)
        assert svc._backend.stalled_joins == 1
        stalls = journal_events(svc, event="worker_join_timeout")
        assert len(stalls) == 1
        assert stalls[0].attrs["worker"].startswith("stuck-worker")
        release.set()  # let the stuck request finish
        ticket.result(30)


# --------------------------------------------------------------------- #
# fleet failure paths
@pytest.mark.slow
class TestFleetBackend:
    def fleet_service(self, name, workers=2, *, stall=None, **kw):
        opts = dict(FLEET_KW, **kw)
        if stall:
            opts["stall_labels"] = stall
        backend = ProcessFleetBackend(workers, **opts)
        svc = PlanningService(workers=workers, backend=backend,
                              name=name, recorder=FlightRecorder())
        return svc, backend

    def test_serves_and_caches(self, mlp, four_gpu):
        svc, backend = self.fleet_service("basic")
        with svc:
            first = svc.plan(search_request(mlp, four_gpu))
            again = svc.plan(search_request(mlp, four_gpu))
        assert first.outcome.time == again.outcome.time
        assert again.from_cache
        assert svc.stats.completed == 1

    def test_matches_inline_results(self, mlp, four_gpu):
        with PlanningService(workers=0, name="ref") as ref:
            expected = ref.plan(search_request(mlp, four_gpu))
        svc, _ = self.fleet_service("bitfleet")
        with svc:
            got = svc.plan(search_request(mlp, four_gpu))
        assert got.outcome.time == expected.outcome.time
        assert {n: s.label() for n, s in got.strategy.items()} \
            == {n: s.label() for n, s in expected.strategy.items()}

    def test_worker_killed_mid_request_redispatches(self, mlp, four_gpu):
        svc, backend = self.fleet_service(
            "kill", stall={"victim": 1.5})
        with svc:
            waiters = []
            ticket = svc.submit(search_request(mlp, four_gpu,
                                               label="victim-1"))
            # coalesced duplicates must see exactly the one result
            for _ in range(2):
                waiters.append(svc.submit(
                    search_request(mlp, four_gpu, label="victim-1")))
            wid = backend.wait_serving(ticket.fingerprint, timeout=20)
            assert wid is not None
            os.kill(backend.worker_pids()[wid], signal.SIGKILL)
            result = ticket.result(60)
            assert result.outcome.feasible or result.outcome.time > 0
            for waiter in waiters:
                assert waiter is ticket  # coalesced onto the same ticket
            assert result.coalesced == 2
        # the episode is reconstructable from the journal:
        # worker_lost -> request_redispatched -> completed
        events = [e.event for e in svc.recorder.journal.events()]
        assert "worker_lost" in events
        assert "request_redispatched" in events
        assert events.index("worker_lost") \
            < events.index("request_redispatched") \
            < len(events) - 1 - events[::-1].index("completed")
        redisp = journal_events(svc, event="request_redispatched")
        assert redisp[0].attrs["worker"] == wid
        assert redisp[0].attrs["attempt"] == 1
        assert backend.stats.redispatched == 1

    def test_idle_worker_killed_is_respawned(self, mlp, four_gpu):
        svc, backend = self.fleet_service("respawn")
        with svc:
            svc.plan(search_request(mlp, four_gpu))  # starts the fleet
            pids = backend.worker_pids()
            assert len(pids) == 2
            victim = sorted(pids)[0]
            os.kill(pids[victim], signal.SIGKILL)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                alive = backend.worker_pids()
                if victim not in alive and len(alive) == 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("lost idle worker was not respawned")
            # the replacement serves traffic
            fresh = svc.plan(search_request(mlp, four_gpu, seed=7))
            assert fresh.outcome.time > 0
        spawns = journal_events(svc, event="worker_spawn")
        losses = journal_events(svc, event="worker_lost")
        assert len(spawns) == 3  # 2 initial + 1 replacement
        assert len(losses) == 1
        assert backend.snapshot()["stats"]["spawned"] == 3

    def test_heartbeat_false_positive_discards_late_result(
            self, mlp, four_gpu):
        # SIGSTOP silences heartbeats without killing the worker: the
        # manager declares it lost and re-dispatches; when the worker
        # is resumed its late result must be discarded, not delivered
        # a second time.
        svc, backend = self.fleet_service(
            "stall", stall={"slow": 1.5}, heartbeat_timeout=0.5)
        with svc:
            ticket = svc.submit(search_request(mlp, four_gpu,
                                               label="slow-1"))
            wid = backend.wait_serving(ticket.fingerprint, timeout=20)
            pid = backend.worker_pids()[wid]
            os.kill(pid, signal.SIGSTOP)
            try:
                result = ticket.result(60)   # served by the survivor
                assert result.outcome.time > 0
            finally:
                os.kill(pid, signal.SIGCONT)
            # the resumed worker finishes its stalled copy eventually;
            # the manager must discard it (at-most-once per ticket)
            deadline = time.monotonic() + 20
            while backend.stats.discarded < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            assert backend.stats.discarded == 1
        discards = journal_events(svc, event="worker_result_discarded")
        assert len(discards) == 1
        assert discards[0].attrs["worker"] == wid
        assert svc.stats.completed == 1  # resolved exactly once

    def test_redispatch_budget_exhausted(self, mlp, four_gpu):
        svc, backend = self.fleet_service(
            "budget", workers=1, stall={"doom": 30.0},
            redispatch_limit=0)
        with svc:
            ticket = svc.submit(search_request(mlp, four_gpu,
                                               label="doom-1"))
            wid = backend.wait_serving(ticket.fingerprint, timeout=20)
            os.kill(backend.worker_pids()[wid], signal.SIGKILL)
            with pytest.raises(WorkerLostError) as excinfo:
                ticket.result(60)
            assert excinfo.value.attempts == 1
            assert excinfo.value.workers == [wid]
        assert backend.stats.redispatched == 0

    def test_graceful_drain_under_load(self, mlp, four_gpu):
        svc, backend = self.fleet_service("drain", workers=2)
        with svc:
            tickets = [svc.submit(search_request(mlp, four_gpu, seed=i))
                       for i in range(6)]
            svc.close()
            statuses = []
            for ticket in tickets:
                try:
                    ticket.result(60)
                    statuses.append("ok")
                except ServiceClosedError:
                    statuses.append("closed")
            # every ticket resolved exactly one way; in-flight work
            # drained, the rest failed fast with ServiceClosedError
            assert len(statuses) == 6
            assert backend.snapshot()["alive"] == 0
        exits = journal_events(svc, event="worker_exit")
        assert len(exits) >= 2
