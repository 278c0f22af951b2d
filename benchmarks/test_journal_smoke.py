"""Journal schema smoke: every event a served workload emits validates.

The request-scoped observability layer promises that the journal is a
*closed* schema — every event any layer emits carries the base fields
(``schema_version``, ``event``, ``request_id``, ``ts``) plus its event
type's required attributes, and a saved journal re-validates line by
line in a fresh reader.  This smoke drives a mixed workload (fresh
evaluations, a duplicate served from the result cache, a forced queue
timeout, a forced admission rejection) through a ``workers=0`` service
and re-validates the full stream, so a schema drift in any emitter
fails CI instead of corrupting postmortems.  The flight records rebuilt
from the saved file must equal the live recorder's on every sealed
request: both are folds over the same events.
"""

from __future__ import annotations

import json

import pytest

from repro.agent import AgentConfig
from repro.cluster import cluster_4gpu
from repro.config import HeteroGConfig
from repro.errors import ServiceTimeoutError
from repro.graph.models import build_model
from repro.service import PlanRequest, PlanningService
from repro.telemetry import (
    EVENT_SCHEMAS,
    SCHEMA_VERSION,
    FlightRecorder,
    Journal,
    validate_event,
)


def _request(graph, cluster, *, seed=0, **kw) -> PlanRequest:
    config = HeteroGConfig(seed=seed, agent=AgentConfig(
        max_groups=8, gat_hidden=16, gat_layers=2, gat_heads=2,
        strategy_dim=16, strategy_heads=2, strategy_layers=1))
    return PlanRequest(graph=graph, cluster=cluster, episodes=2,
                       config=config, **kw)


def test_journal_schema_smoke(quick, report, tmp_path):
    size = "tiny" if quick else "bench"
    cluster = cluster_4gpu()
    graph = build_model("vgg19", size)
    recorder = FlightRecorder()

    with PlanningService(workers=0, recorder=recorder) as service:
        service.plan(_request(graph, cluster, seed=0))
        service.plan(_request(graph, cluster, seed=0))   # result-cache hit
        service.plan(_request(graph, cluster, seed=1, priority=3))
        with pytest.raises(ServiceTimeoutError):
            service.plan(_request(graph, cluster, seed=2, timeout=1e-9))

    # every emitted event validates against the versioned schema ...
    events = recorder.journal.events()
    assert events, "the workload emitted no journal events"
    for entry in events:
        data = entry.to_dict()
        validate_event(data)
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["request_id"]

    # ... and the saved stream re-validates line by line in a fresh
    # reader, bit-identically
    path = tmp_path / "journal.jsonl"
    recorder.journal.save_jsonl(str(path))
    reloaded = Journal.load(str(path))
    assert [json.dumps(e.to_dict()) for e in reloaded] \
        == [json.dumps(e.to_dict()) for e in events]

    # ... and the records rebuilt from the file equal the live ones
    rebuilt = FlightRecorder.from_events(reloaded)
    sealed = [r for r in recorder.records() if r.done]
    assert sealed, "the workload sealed no flight record"
    for record in sealed:
        assert rebuilt.get(record.request_id).to_dict() \
            == record.to_dict()

    kinds = {e.event for e in events}
    assert {"request_accepted", "cache_hit", "search_started",
            "candidate_evaluated", "plan_built", "completed",
            "timeout"} <= kinds
    assert kinds <= set(EVENT_SCHEMAS)

    outcomes = [e for e in events
                if e.event in ("completed", "failed", "timeout")]
    by_status = {}
    for e in outcomes:
        by_status[e.event] = by_status.get(e.event, 0) + 1
    report("journal schema smoke",
           f"model {graph.name} on {cluster}\n"
           f"events emitted  : {len(events)}\n"
           f"event types     : {', '.join(sorted(kinds))}\n"
           f"outcomes        : {by_status}\n"
           f"all {len(events)} events valid against schema v"
           f"{SCHEMA_VERSION}\n"
           f"{len(sealed)} sealed records rebuilt identically from JSONL")
