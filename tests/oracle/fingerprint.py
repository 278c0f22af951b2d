"""Test-only oracle: fingerprints that encode the whole payload per call.

:mod:`repro.plan.fingerprint` assembles each digest's JSON text from
pieces encoded once (a graph's payload and sorted op-name keys, each
``OpStrategy``'s payload, each strategy's digest per context).  These
are the original functions it must match byte for byte: every call
builds the full payload and hands it to ``json.dumps`` with sorted
keys.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.plan.fingerprint import (
    _cluster_payload,
    _graph_payload,
    _op_strategy_payload,
    _profile_payload,
)
from repro.service.request import _config_payload


def _digest(payload: Any) -> str:
    """sha256 of the canonical JSON text of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_context(graph, cluster, profile, *,
                      use_order_scheduling: bool) -> str:
    """``fingerprint_context``."""
    return _digest({
        "graph": _graph_payload(graph),
        "cluster": _cluster_payload(cluster),
        "profile": _profile_payload(profile),
        "use_order_scheduling": bool(use_order_scheduling),
    })


def reference_strategy(context_fingerprint: str, strategy) -> str:
    """``fingerprint_strategy``."""
    return _digest({
        "context": context_fingerprint,
        "per_op": {name: _op_strategy_payload(st)
                   for name, st in strategy.items()},
    })


def reference_context_key(request) -> str:
    """``PlanRequest.context_key``."""
    payload = {
        "graph": _graph_payload(request.graph),
        "cluster": _cluster_payload(request.cluster),
        "use_order_scheduling": bool(request.config.use_order_scheduling),
        "config": _config_payload(request.config),
    }
    if request.profile is not None:
        payload["profile"] = _profile_payload(request.profile)
    return _digest(payload)


def reference_request(request) -> str:
    """``PlanRequest.fingerprint``."""
    if request.is_search:
        mode: Any = ("search", request.budget, request.max_rounds)
    else:
        mode = ("build", {name: _op_strategy_payload(st)
                          for name, st in request.strategy.items()})
    return _digest({
        "context": reference_context_key(request),
        "mode": mode,
        "measure": request.measure_iterations or 0,
    })
