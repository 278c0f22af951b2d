"""Fleet resilience smoke: a killed worker never loses a request.

Spawns a 2-worker process fleet behind the planning service, kills one
worker mid-request (a deterministic ``stall_labels`` window guarantees
the request is on the worker when the SIGKILL lands), and asserts the
fleet's core promise end to end:

- the request still completes, served by the surviving worker after
  re-dispatch;
- the episode is reconstructable from the journal — ``worker_lost`` ->
  ``request_redispatched`` -> ``completed`` in order — and every fleet
  event validates against the versioned schema, in memory and after a
  JSONL round trip;
- the fleet respawns a replacement, so capacity recovers.
"""

from __future__ import annotations

import json
import os
import signal

from repro.agent import AgentConfig
from repro.cluster import cluster_4gpu
from repro.config import HeteroGConfig
from repro.graph.models import build_model
from repro.service import PlanRequest, PlanningService, ProcessFleetBackend
from repro.service.backends import fleet
from repro.telemetry import FlightRecorder, Journal, validate_event


def _request(graph, cluster, *, seed=0, **kw) -> PlanRequest:
    config = HeteroGConfig(seed=seed, agent=AgentConfig(
        max_groups=8, gat_hidden=16, gat_layers=2, gat_heads=2,
        strategy_dim=16, strategy_heads=2, strategy_layers=1))
    return PlanRequest(graph=graph, cluster=cluster, episodes=2,
                       config=config, **kw)


def test_fleet_survives_worker_kill(quick, report, tmp_path, monkeypatch):
    size = "tiny" if quick else "bench"
    cluster = cluster_4gpu()
    graph = build_model("vgg19", size)
    recorder = FlightRecorder()

    # a fast failure detector: beats every 0.1 s, lost after 1 s
    monkeypatch.setattr(fleet, "HEARTBEAT_INTERVAL", 0.1)
    monkeypatch.setattr(fleet, "HEARTBEAT_TIMEOUT", 1.0)
    backend = ProcessFleetBackend(2, stall_labels={"victim": 1.5})
    with PlanningService(workers=2, backend=backend, name="smoke",
                         recorder=recorder) as service:
        ticket = service.submit(_request(graph, cluster,
                                         label="victim-kill"))
        victim = backend.wait_serving(ticket.fingerprint, timeout=30)
        assert victim is not None, "request never started serving"
        os.kill(backend.worker_pids()[victim], signal.SIGKILL)

        result = ticket.result(120)
        assert result.outcome.time > 0
        snapshot = backend.snapshot()
        assert snapshot["stats"]["lost"] == 1
        assert snapshot["stats"]["redispatched"] == 1
        assert snapshot["stats"]["spawned"] == 3  # 2 initial + respawn

    # the episode reconstructs from the journal, in causal order
    events = recorder.journal.events()
    kinds = [e.event for e in events]
    assert "worker_lost" in kinds
    assert "request_redispatched" in kinds
    assert kinds.index("worker_lost") \
        < kinds.index("request_redispatched") \
        < len(kinds) - 1 - kinds[::-1].index("completed")

    # every fleet event validates, in memory and after a round trip
    for entry in events:
        validate_event(entry.to_dict())
    path = tmp_path / "journal.jsonl"
    recorder.journal.save_jsonl(str(path))
    reloaded = Journal.load(str(path))
    assert [json.dumps(e.to_dict()) for e in reloaded] \
        == [json.dumps(e.to_dict()) for e in events]

    fleet_events = [e for e in events if e.phase == "fleet"]
    body = "\n".join(
        f"{e.event:26s} {' '.join(f'{k}={e.attrs[k]}' for k in sorted(e.attrs))}"
        for e in fleet_events)
    report("Fleet kill-mid-request smoke — redispatch + respawn", body)
