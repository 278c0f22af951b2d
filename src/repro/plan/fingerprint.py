"""Content-addressed fingerprints for the plan layer.

A fingerprint names *everything* that determines the outcome of the
compile -> schedule -> simulate chain: the computation graph, the cluster
topology, the fitted profile, the scheduler flag and the candidate
strategy.  Two evaluations with equal fingerprints are
guaranteed to produce bit-identical plans and simulation results, which
is what makes :class:`~repro.plan.cache.PlanCache` sound.

The expensive context part (graph + cluster + profile + flags) is hashed
once per :class:`~repro.plan.builder.PlanBuilder`; per-strategy
fingerprints then only hash the strategy's per-op decisions on top of
the cached context digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..parallel.strategy import OpStrategy, ParallelKind, Strategy
from ..profiling.profiler import Profile


def _digest(payload: Any) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _graph_payload(graph: ComputationGraph) -> Any:
    ops = []
    for op in graph:
        ops.append((
            op.name, op.op_type, op.phase.value, op.flops, op.param_bytes,
            float(op.output.size_bytes), op.output.batch_dim,
            op.forward_ref, bool(op.batch_scaled),
        ))
    return {
        "name": graph.name,
        "ops": ops,
        "edges": sorted(graph.edges()),
    }


def _cluster_payload(cluster: Cluster) -> Any:
    devices = [
        (d.device_id, d.server, d.spec.model, int(d.memory_bytes),
         int(d.usable_memory_bytes))
        for d in cluster.devices
    ]
    links = [
        (link.src, link.dst, float(link.bandwidth), float(link.latency))
        for link in cluster.links()
    ]
    return {"devices": devices, "links": sorted(links)}


def _profile_payload(profile: Profile) -> Any:
    op_models = {
        f"{op}\x00{model}": (reg.slope, reg.intercept)
        for (op, model), reg in profile.op_models.items()
    }
    link_models = {
        f"{src}\x00{dst}": (reg.inv_bandwidth, reg.latency)
        for (src, dst), reg in profile.link_models.items()
    }
    return {
        "graph": profile.graph_name,
        "device_model": dict(profile.device_model),
        "op_models": op_models,
        "link_models": link_models,
    }


def fingerprint_cluster(cluster: Cluster) -> str:
    """Digest of a cluster topology alone (devices, in order, + links).

    Two clusters with equal fingerprints are interchangeable for the
    plan layer.  The elastic subsystem relies on this to check that
    :meth:`~repro.cluster.topology.Cluster.with_devices` round-trips
    :meth:`~repro.cluster.topology.Cluster.without_devices` exactly.
    """
    return _digest(_cluster_payload(cluster))


def fingerprint_context(graph: ComputationGraph, cluster: Cluster,
                        profile: Profile, *, use_order_scheduling: bool) -> str:
    """Digest of one (graph, cluster, profile, flags) evaluation context."""
    return _digest({
        "graph": _graph_payload(graph),
        "cluster": _cluster_payload(cluster),
        "profile": _profile_payload(profile),
        "use_order_scheduling": bool(use_order_scheduling),
    })


def _op_strategy_payload(st: OpStrategy) -> Any:
    if st.kind is ParallelKind.MP:
        return ("mp", st.device)
    return (
        "dp",
        sorted(st.replicas.items()),
        st.comm.value if st.comm else None,
        st.allocation.value if st.allocation else None,
    )


def fingerprint_strategy(context_fingerprint: str, strategy: Strategy) -> str:
    """Digest of a candidate strategy within one evaluation context."""
    # groups share one OpStrategy object: build each payload once, keyed
    # by identity (the strategy keeps every object alive for the call)
    payloads: Dict[int, Any] = {}
    per_op = {}
    for name, st in strategy.items():
        payload = payloads.get(id(st))
        if payload is None:
            payload = payloads[id(st)] = _op_strategy_payload(st)
        per_op[name] = payload
    return _digest({"context": context_fingerprint, "per_op": per_op})
