"""Node feature encoding for the GAT (paper Sec. 4.1.1).

"(1) a node feature matrix, where each row contains the operation's
attributes (e.g., execution time when running on different devices, the
input and output sizes, the average tensor transfer time between each
pair of devices)" — plus phase/degree structure features.  Times and
sizes are log-compressed and the matrix standardized per column, keeping
the encoding usable across very different graphs/clusters (the bandwidth
enters the features, so "if the bandwidth changes, the input to the GNN
changes and the output strategy changes correspondingly").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..graph.op import OpPhase
from ..nn.functional import Neighbourhood
from ..profiling.profiler import Profile

_PHASES = list(OpPhase)


def _log1p_us(seconds: float) -> float:
    """log-compressed time in microseconds."""
    return float(np.log1p(max(seconds, 0.0) * 1e6))


def _log1p_kb(size_bytes: float) -> float:
    return float(np.log1p(max(size_bytes, 0.0) / 1024.0))


@dataclass
class FeatureEncoder:
    """Builds the (O, F) node-feature matrix and the GAT neighbourhood."""

    cluster: Cluster
    profile: Profile

    def gpu_models(self) -> List[str]:
        seen: List[str] = []
        for dev in self.cluster.devices:
            if dev.spec.model not in seen:
                seen.append(dev.spec.model)
        return seen

    @property
    def feature_dim(self) -> int:
        return len(self.gpu_models()) + 2 + 2 + len(_PHASES) + 3

    def encode(self, graph: ComputationGraph) -> np.ndarray:
        models = self.gpu_models()
        # one representative device per GPU model for time predictions
        rep_dev: Dict[str, str] = {}
        for dev in self.cluster.devices:
            rep_dev.setdefault(dev.spec.model, dev.device_id)

        # representative intra-/inter-server link pair for transfer features
        intra = inter = None
        for link in self.cluster.links():
            if link.intra_server and intra is None:
                intra = (link.src, link.dst)
            if not link.intra_server and inter is None:
                inter = (link.src, link.dst)
        rows: List[List[float]] = []
        for op in graph:
            row: List[float] = []
            for model in models:
                row.append(_log1p_us(
                    self.profile.op_time(op.name, rep_dev[model], 1.0)
                ))
            row.append(_log1p_kb(op.output.size_bytes))
            row.append(_log1p_kb(op.param_bytes))
            # average tensor transfer time over intra/inter link classes
            for pair in (intra, inter):
                if pair is None:
                    row.append(0.0)
                else:
                    row.append(_log1p_us(self.profile.transfer_time(
                        pair[0], pair[1], op.output.size_bytes
                    )))
            row.extend(1.0 if op.phase is p else 0.0 for p in _PHASES)
            row.append(1.0 if op.is_replicable else 0.0)
            row.append(float(graph.in_degree(op.name)))
            row.append(float(graph.out_degree(op.name)))
            rows.append(row)

        mat = np.asarray(rows, dtype=np.float64)
        # column standardization (constant columns left centred at 0)
        mean = mat.mean(axis=0)
        std = mat.std(axis=0)
        std[std < 1e-9] = 1.0
        return (mat - mean) / std

    def neighbourhood(self, graph: ComputationGraph) -> Neighbourhood:
        """The GAT's neighbourhoods N_o: o's neighbours along graph edges
        in either direction, and o itself."""
        index = {n: i for i, n in enumerate(graph.op_names)}
        pairs = np.asarray(
            [(index[src], index[dst]) for src, dst in graph.edges()],
            dtype=np.int64).reshape(-1, 2)
        return Neighbourhood.from_edges(len(index), pairs[:, 0], pairs[:, 1])

    def average_exec_times(self, graph: ComputationGraph) -> Dict[str, float]:
        """Mean predicted execution time across GPU models (for grouping)."""
        models = self.gpu_models()
        rep_dev: Dict[str, str] = {}
        for dev in self.cluster.devices:
            rep_dev.setdefault(dev.spec.model, dev.device_id)
        out: Dict[str, float] = {}
        for op in graph:
            times = [
                self.profile.op_time(op.name, rep_dev[m], 1.0) for m in models
            ]
            out[op.name] = float(np.mean(times))
        return out
