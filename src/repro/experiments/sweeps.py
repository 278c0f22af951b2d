"""Parameter sweeps (optional analyses beyond the paper's figures).

- :func:`heterogeneity_sweep` — how much heterogeneity-aware deployment
  buys as the cluster's compute-power skew grows: the paper's premise is
  that uniform DP degrades as devices diverge (Sec. 1-2); this sweep
  quantifies it on synthetic clusters from homogeneous to strongly mixed.
- :func:`bandwidth_sweep` — per-iteration time of a fixed strategy as
  inter-server bandwidth varies (footnote 1's bandwidth sensitivity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..baselines.dp import dp_strategy
from ..cluster.device import TESLA_V100, GPUSpec
from ..cluster.link import GBPS, NVLINK, PCIE3, LinkSpec
from ..cluster.topology import Cluster, ServerSpec
from .common import ExperimentContext, env_episodes


def _skewed_cluster(skew: float, nic_gbps: float = 50.0) -> Cluster:
    """Two 2-GPU servers; the second server's GPUs are ``skew``x slower.

    skew = 1.0 is a homogeneous V100 cluster; skew = 2.0 matches the
    paper's V100:1080Ti ratio.
    """
    if skew < 1.0:
        raise ValueError(f"skew must be >= 1.0, got {skew}")
    slow = GPUSpec(
        model=f"V100/{skew:.2f}",
        memory_bytes=TESLA_V100.memory_bytes,
        peak_flops=TESLA_V100.peak_flops / skew,
        mem_bandwidth=TESLA_V100.mem_bandwidth / skew,
        kernel_overhead=TESLA_V100.kernel_overhead,
        class_efficiency=dict(TESLA_V100.class_efficiency),
    )
    nic = LinkSpec(f"{nic_gbps:.0f}GbE", nic_gbps * GBPS, 6e-6)
    return Cluster([
        ServerSpec("fast", TESLA_V100, 2, nic, intra_link=NVLINK),
        ServerSpec("slow", slow, 2, nic, intra_link=PCIE3),
    ])


@dataclass
class SweepPoint:
    """One sweep sample: x value -> per-scheme times."""
    x: float
    times: Dict[str, float]


def heterogeneity_sweep(graph_builder, *, skews: Optional[List[float]] = None,
                        episodes: Optional[int] = None,
                        seed: int = 0) -> List[SweepPoint]:
    """Measure EV-AR, CP-AR and HeteroG as device skew grows.

    ``graph_builder`` is a zero-argument callable returning a fresh
    training graph (graphs cannot be shared across clusters because the
    profiles differ).
    """
    points: List[SweepPoint] = []
    for skew in skews or [1.0, 1.5, 2.0, 3.0]:
        cluster = _skewed_cluster(skew)
        graph = graph_builder()
        ctx = ExperimentContext(cluster, seed=seed)
        times = {
            "EV-AR": ctx.measure(
                graph, dp_strategy("EV-AR", graph, cluster), "EV-AR",
                use_order_scheduling=False).time,
            "CP-AR": ctx.measure(
                graph, dp_strategy("CP-AR", graph, cluster), "CP-AR",
                use_order_scheduling=False).time,
            "HeteroG": ctx.run_heterog(
                graph, episodes=episodes or env_episodes()).time,
        }
        points.append(SweepPoint(x=skew, times=times))
    return points


def bandwidth_sweep(graph_builder, *, gbps: Optional[List[float]] = None,
                    baseline: str = "CP-AR",
                    seed: int = 0) -> List[SweepPoint]:
    """Per-iteration time of one DP strategy vs inter-server bandwidth."""
    points: List[SweepPoint] = []
    for bw in gbps or [10, 25, 50, 100]:
        cluster = _skewed_cluster(2.0, nic_gbps=bw)
        graph = graph_builder()
        ctx = ExperimentContext(cluster, seed=seed)
        measured = ctx.measure(
            graph, dp_strategy(baseline, graph, cluster), baseline,
            use_order_scheduling=False)
        points.append(SweepPoint(x=bw, times={baseline: measured.time}))
    return points
