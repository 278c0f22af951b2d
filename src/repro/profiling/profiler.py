"""The Profiler facade (paper Sec. 3.3).

Profiles a DNN graph against a cluster: measures every op on every GPU
model at representative batch fractions, measures every link at several
transfer sizes, and fits the linear-regression predictors the Strategy
Maker's simulator consumes.

Deduplication matches the paper's practice: ops are measured once per
(op, GPU model) — devices of the same model share timings — and links once
per (bandwidth, latency) class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..cluster.topology import Cluster
from ..errors import ProfilingError
from ..graph.dag import ComputationGraph
from .cost_model import op_time, transfer_time
from .measurements import DEFAULT_FRACTIONS, DEFAULT_SIZES, MeasurementNoise
from .regression import OpTimeRegression, TransferTimeRegression


@dataclass
class Profile:
    """Fitted predictors for one (graph, cluster) pair."""

    graph_name: str
    op_models: Dict[Tuple[str, str], OpTimeRegression] = field(default_factory=dict)
    link_models: Dict[Tuple[str, str], TransferTimeRegression] = field(
        default_factory=dict
    )
    # device_id -> GPU model string (to index op_models)
    device_model: Dict[str, str] = field(default_factory=dict)

    def op_time(self, op_name: str, device_id: str,
                batch_fraction: float = 1.0) -> float:
        model = self.device_model.get(device_id)
        if model is None:
            raise ProfilingError(f"device {device_id!r} was not profiled")
        key = (op_name, model)
        if key not in self.op_models:
            raise ProfilingError(
                f"op {op_name!r} was not profiled on {model!r}"
            )
        return self.op_models[key].predict(batch_fraction)

    def transfer_time(self, src: str, dst: str, size_bytes: float) -> float:
        if src == dst:
            return 0.0
        key = (src, dst)
        if key not in self.link_models:
            raise ProfilingError(f"link {src!r}->{dst!r} was not profiled")
        return self.link_models[key].predict(size_bytes)

    def bandwidth(self, src: str, dst: str) -> float:
        if src == dst:
            return float("inf")
        return self.link_models[(src, dst)].bandwidth


class Profiler:
    """Runs (synthetic) profiling and fits prediction models: ops at the
    batch fractions :data:`DEFAULT_FRACTIONS`, links at the transfer
    sizes :data:`DEFAULT_SIZES`."""

    def __init__(
        self,
        noise: MeasurementNoise = MeasurementNoise(),
        seed: int = 0,
    ):
        self.noise = noise
        self.seed = seed

    def profile(self, graph: ComputationGraph, cluster: Cluster) -> Profile:
        rng = np.random.default_rng(self.seed)
        profile = Profile(graph_name=graph.name)
        profile.device_model = {
            d.device_id: d.spec.model for d in cluster.devices
        }

        # One regression per (op, GPU model): the noise-free time table,
        # one noise factor per sample, every row fitted in one call.
        specs = {d.spec.model: d.spec for d in cluster.devices}
        table = np.fromiter(
            (op_time(op, spec, f) for op in graph for spec in specs.values()
             for f in DEFAULT_FRACTIONS), float).reshape(
                 -1, len(DEFAULT_FRACTIONS))
        fits = OpTimeRegression.fit_many(DEFAULT_FRACTIONS,
                                         self.noise.apply(table, rng))
        profile.op_models = dict(zip(
            [(op.name, model) for op in graph for model in specs], fits))

        # One regression per directed link; identical (bw, latency) classes
        # share a fit, mirroring "transfer data ... between each pair".
        links = cluster.links()
        classes = {}
        for link in links:
            classes.setdefault((link.bandwidth, link.latency), link)
        table = np.fromiter(
            (transfer_time(link, s) for link in classes.values()
             for s in DEFAULT_SIZES), float).reshape(-1, len(DEFAULT_SIZES))
        class_fit = dict(zip(classes, TransferTimeRegression.fit_many(
            DEFAULT_SIZES, self.noise.apply(table, rng))))
        profile.link_models = {
            (link.src, link.dst): class_fit[(link.bandwidth, link.latency)]
            for link in links
        }
        return profile
