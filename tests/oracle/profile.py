"""Test-only oracle: the per-fit profiling loop.

:func:`reference_profile` is :meth:`repro.profiling.Profiler.profile` as
it was before the fits were stacked: one scalar noise draw per sample
and one ``np.linalg.lstsq`` call per (op, GPU model) and per link
class.  ``tests/test_profiling.py`` pairs the stacked profiler against
it coefficient for coefficient, bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.topology import Cluster
from repro.errors import ProfilingError
from repro.graph.dag import ComputationGraph
from repro.profiling import cost_model
from repro.profiling.profiler import Profile, Profiler
from repro.profiling.regression import OpTimeRegression, TransferTimeRegression


def _noisy(value: float, sigma: float, rng: np.random.Generator) -> float:
    if sigma <= 0:
        return value
    return value * float(rng.lognormal(mean=0.0, sigma=sigma))


def _fit_line(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Weighted least-squares fit y = slope * x + intercept."""
    if len(xs) != len(ys) or len(xs) == 0:
        raise ProfilingError("regression needs equal, non-empty x/y samples")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if len(xs) == 1:
        return 0.0, float(y[0])
    weights = 1.0 / np.maximum(np.abs(y), 1e-12)
    design = np.stack([x, np.ones_like(x)], axis=1) * weights[:, None]
    coef, *_ = np.linalg.lstsq(design, y * weights, rcond=None)
    return float(coef[0]), float(coef[1])


def reference_profile(profiler: Profiler, graph: ComputationGraph,
                      cluster: Cluster) -> Profile:
    """``profiler.profile(graph, cluster)``, one fit at a time."""
    sigma = profiler.noise.sigma
    rng = np.random.default_rng(profiler.seed)
    profile = Profile(graph_name=graph.name)
    profile.device_model = {
        d.device_id: d.spec.model for d in cluster.devices
    }
    specs = {d.spec.model: d.spec for d in cluster.devices}
    for op in graph:
        for model_name, spec in specs.items():
            times: List[float] = [
                _noisy(cost_model.op_time(op, spec, f), sigma, rng)
                for f in profiler.fractions
            ]
            slope, intercept = _fit_line(profiler.fractions, times)
            profile.op_models[(op.name, model_name)] = OpTimeRegression(
                slope, intercept)
    class_fit: Dict[Tuple[float, float], TransferTimeRegression] = {}
    for link in cluster.links():
        key = (link.bandwidth, link.latency)
        if key not in class_fit:
            times = [_noisy(cost_model.transfer_time(link, s), sigma, rng)
                     for s in profiler.sizes]
            slope, intercept = _fit_line(profiler.sizes, times)
            class_fit[key] = TransferTimeRegression(max(slope, 0.0),
                                                    max(intercept, 0.0))
        profile.link_models[(link.src, link.dst)] = class_fit[key]
    return profile
