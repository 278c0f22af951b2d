"""Shared test helpers (importable, unlike conftest)."""

from __future__ import annotations

from typing import Dict, List

from repro.cluster import NIC_100G, NVLINK, TESLA_V100, Cluster, ServerSpec
from repro.cluster.presets import SWITCH_BANDWIDTH
from repro.graph import GraphBuilder, build_training_graph
from repro.graph.dag import ComputationGraph
from repro.parallel.distgraph import DistGraph, DistOpKind
from repro.profiling import MeasurementNoise, Profile, Profiler


def make_mlp(batch_size: int = 8, layers: int = 3, width: int = 32,
             name: str = "mlp") -> ComputationGraph:
    """A small dense training graph used across tests."""
    b = GraphBuilder(name, batch_size)
    x = b.input((16,))
    for i in range(layers):
        x = b.dense(x, width, layer=f"fc{i}")
        x = b.activation(x, layer=f"fc{i}")
    b.softmax_loss(x, 10)
    return build_training_graph(b)


def exact_profile(graph: ComputationGraph, cluster: Cluster) -> Profile:
    """A noise-free profile: its predictors match the analytic truth
    exactly, for deterministic, bias-free predictions."""
    return Profiler(noise=MeasurementNoise(sigma=0.0)).profile(graph, cluster)


def instances(dist: DistGraph) -> Dict[str, List[str]]:
    """Training-op name -> names of its compute (or apply) instances in
    ``dist``, in emission order."""
    out: Dict[str, List[str]] = {}
    for op in dist:
        if op.kind is DistOpKind.COMPUTE or op.kind is DistOpKind.APPLY:
            out.setdefault(op.source_op.name, []).append(op.name)
    return out


def homogeneous_cluster(num_gpus: int = 4, gpus_per_server: int = 2) -> Cluster:
    """An all-V100 cluster, for homogeneous-vs-heterogeneous comparisons."""
    servers = []
    remaining = num_gpus
    idx = 0
    while remaining > 0:
        count = min(gpus_per_server, remaining)
        servers.append(
            ServerSpec(f"server{idx}", TESLA_V100, count, NIC_100G,
                       intra_link=NVLINK)
        )
        remaining -= count
        idx += 1
    return Cluster(servers, switch_bandwidth=SWITCH_BANDWIDTH)


def pruned_sweep(builder, strategies):
    """A serial sweep that prunes each candidate at the best exact
    feasible makespan before it, as a search threads its incumbent
    through ``prune_above``: the reference ``evaluate_many(keep=1)``
    must match."""
    outcomes, best = [], float("inf")
    for strategy in strategies:
        outcome = builder.evaluate(strategy, prune_above=best)
        if outcome.feasible and outcome.time < best:
            best = outcome.time
        outcomes.append(outcome)
    return outcomes
