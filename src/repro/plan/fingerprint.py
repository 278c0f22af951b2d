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

Every digest is the sha256 of the canonical JSON text of a payload
(``json.dumps`` with sorted keys and compact separators), and that text
is assembled from pieces encoded once: a graph's payload and its
sorted op-name keys once per graph version, each distinct
:class:`OpStrategy`'s payload once per object, and each strategy's
digest once per context (:meth:`Strategy.set` forgets it).  The JSON
encoder writes a nested value exactly as it writes it alone, so the
assembled text is byte-identical to encoding the whole payload at once.
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Any, Dict, List, Tuple

from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..parallel.strategy import OpStrategy, ParallelKind, Strategy
from ..profiling.profiler import Profile


def _json(payload: Any) -> str:
    """The canonical JSON text of ``payload``."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _object_text(parts: Dict[str, str]) -> str:
    """The canonical JSON text of a dict whose values are given as
    their canonical JSON texts."""
    return "{" + ",".join(json.dumps(key) + ":" + parts[key]
                          for key in sorted(parts)) + "}"


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


def _graph_pieces(graph: ComputationGraph
                  ) -> Tuple[int, str, List[str], List[str]]:
    """``(version, payload text, sorted op names, their encoded keys)``
    of ``graph``, encoded once per graph version."""
    cached = getattr(graph, "_fingerprint_pieces", None)
    if cached is None or cached[0] != graph.version:
        names = sorted(graph.op_names)
        cached = (graph.version, _json(_graph_payload(graph)), names,
                  [json.dumps(name) + ":" for name in names])
        graph._fingerprint_pieces = cached
    return cached


def _graph_text(graph: ComputationGraph) -> str:
    """The canonical JSON text of ``graph``'s payload."""
    return _graph_pieces(graph)[1]


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


def fingerprint_context(graph: ComputationGraph, cluster: Cluster,
                        profile: Profile, *, use_order_scheduling: bool) -> str:
    """Digest of one (graph, cluster, profile, flags) evaluation context."""
    return _sha(_object_text({
        "graph": _graph_text(graph),
        "cluster": _json(_cluster_payload(cluster)),
        "profile": _json(_profile_payload(profile)),
        "use_order_scheduling": _json(bool(use_order_scheduling)),
    }))


def _op_strategy_payload(st: OpStrategy) -> Any:
    if st.kind is ParallelKind.MP:
        return ("mp", st.device)
    return (
        "dp",
        sorted(st.replicas.items()),
        st.comm.value if st.comm else None,
        st.allocation.value if st.allocation else None,
    )


def _op_strategy_text(st: OpStrategy) -> str:
    """The canonical JSON text of ``st``'s payload, cached on the
    (frozen) object: groups share one OpStrategy across their ops.  The
    text is interned: a cluster has a handful of distinct payloads, and
    a search keeps thousands of OpStrategy objects alive."""
    text = st._fingerprint_text
    if text is None:
        text = sys.intern(_json(_op_strategy_payload(st)))
        object.__setattr__(st, "_fingerprint_text", text)
    return text


def _per_op_text(strategy: Strategy) -> str:
    """The canonical JSON text of ``{op name: payload}`` over every op
    ``strategy`` assigns."""
    per_op = dict(strategy.items())
    _, _, names, keys = _graph_pieces(strategy.graph)
    if len(per_op) != len(names):
        # a partial strategy: its own names, sorted and encoded here
        # (every assigned name is an op of the graph)
        names = sorted(per_op)
        keys = [json.dumps(name) + ":" for name in names]
    texts = map(_op_strategy_text, map(per_op.__getitem__, names))
    return "{" + ",".join(map(str.__add__, keys, texts)) + "}"


def fingerprint_strategy(context_fingerprint: str, strategy: Strategy) -> str:
    """Digest of a candidate strategy within one evaluation context,
    memoized on the strategy per context."""
    memo = strategy._fingerprints
    fp = memo.get(context_fingerprint)
    if fp is None:
        fp = memo[context_fingerprint] = _sha(_object_text({
            "context": _json(context_fingerprint),
            "per_op": _per_op_text(strategy),
        }))
    return fp
