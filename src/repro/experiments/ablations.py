"""Ablations beyond the paper's tables (design choices Sec. 8 credits).

- hybrid communication off: force AllReduce-only or PS-only and compare;
- model parallelism off: DP-only action space;
- grouping-size sweep: effect of N on strategy quality;
- jitter sensitivity: how stable the measured per-iteration time is.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..agent.policy import actions_to_strategy
from ..baselines import dp_strategy
from ..cluster.topology import Cluster
from ..graph.models import build_model
from ..service import PlanningService, PlanRequest
from .common import (
    SEED,
    env_preset,
    experiment_config,
    format_table,
    run_heterog,
    run_strategy,
    search_request,
)


#: the kernel jitter sigmas :func:`jitter_sensitivity` sweeps
JITTER_SIGMAS = [0.0, 0.02, 0.05, 0.1]
#: the AllReduce bucket sizes :func:`fusion_ablation` sweeps, in MiB
FUSION_BUCKETS_MB = [4, 32, 256]


@dataclass
class AblationRow:
    """One measured ablation variant."""
    variant: str
    time: float
    oom: bool = False


def _restrict_actions(actions: np.ndarray, m: int,
                      allowed_offsets: List[int],
                      allow_mp: bool) -> np.ndarray:
    """Clamp the best-found actions to a restricted space by re-mapping
    disallowed actions onto the nearest allowed DP action (``m`` is the
    number of devices, the first DP action)."""
    fixed = actions.copy()
    fallback = m + allowed_offsets[-1]
    for i, a in enumerate(fixed):
        if a < m:
            if not allow_mp:
                fixed[i] = fallback
        elif (a - m) not in allowed_offsets:
            fixed[i] = fallback
    return fixed


def communication_ablation(cluster: Cluster, model: str = "bert_large", *,
                           preset: Optional[str] = None,
                           episodes: Optional[int] = None
                           ) -> List[AblationRow]:
    """Hybrid PS+AR vs AR-only vs PS-only for the searched strategy."""
    preset = preset or env_preset()
    graph = build_model(model, preset)
    config = experiment_config(SEED)
    request = search_request(graph, cluster, config, episodes)

    rows: List[AblationRow] = []
    variants = [
        ("hybrid (HeteroG)", [0, 1, 2, 3], True),
        ("AllReduce-only", [1, 3], True),
        ("PS-only", [0, 2], True),
        ("no model parallelism", [0, 1, 2, 3], False),
    ]
    with PlanningService(workers=0, name="experiments") as service:
        service.plan(request)
        searched = service.context_for(request).agent.context(graph.name)
        for label, offsets, allow_mp in variants:
            actions = _restrict_actions(searched.best_actions,
                                        cluster.num_devices, offsets,
                                        allow_mp)
            strategy = actions_to_strategy(graph, cluster,
                                           searched.grouping, actions)
            measured = run_strategy(service, strategy, label, config)
            rows.append(AblationRow(variant=label, time=measured.time,
                                    oom=measured.oom))
    return rows


def grouping_ablation(cluster: Cluster, model: str = "inception_v3", *,
                      preset: Optional[str] = None,
                      group_sizes: Optional[List[int]] = None,
                      episodes: Optional[int] = None) -> List[AblationRow]:
    """Strategy quality vs the maximal number of op groups N."""
    preset = preset or env_preset()
    graph = build_model(model, preset)
    base = experiment_config(SEED)
    rows: List[AblationRow] = []
    with PlanningService(workers=0, name="experiments") as service:
        for n in group_sizes or [4, 16, 40]:
            config = dataclasses.replace(
                base, agent=dataclasses.replace(base.agent, max_groups=n))
            measured = run_heterog(service, graph, cluster, config,
                                   episodes=episodes)
            rows.append(AblationRow(variant=f"N={n}", time=measured.time,
                                    oom=measured.oom))
    return rows


def jitter_sensitivity(cluster: Cluster, model: str = "vgg19"
                       ) -> Dict[float, float]:
    """Coefficient of variation of per-iteration time vs kernel jitter,
    at each of :data:`JITTER_SIGMAS`."""
    from ..runtime.execution_engine import ExecutionEngine
    graph = build_model(model, env_preset())
    with PlanningService(workers=0, name="experiments") as service:
        deployment = service.plan(PlanRequest(
            graph=graph, cluster=cluster,
            strategy=dp_strategy("CP-AR", graph, cluster),
            config=experiment_config(SEED))).deployment
    out: Dict[float, float] = {}
    for sigma in JITTER_SIGMAS:
        engine = ExecutionEngine(cluster, jitter_sigma=sigma, seed=SEED)
        stats = engine.measure(deployment.dist, deployment.schedule,
                               deployment.resident_bytes, iterations=10)
        out[sigma] = stats.std / stats.mean if stats.mean else 0.0
    return out


def fusion_ablation(cluster: Cluster, model: str = "resnet200", *,
                    preset: Optional[str] = None) -> List[AblationRow]:
    """Gradient-fusion sweep: per-iteration time vs AllReduce bucket size.

    EV-AR is compiled once per row, unfused and then at each size of
    :data:`FUSION_BUCKETS_MB`.  Reproduces the Horovod tensor-fusion
    U-curve: no fusion pays the per-collective launch overhead hundreds
    of times; over-fusion delays the first collective until every
    gradient is ready."""
    from ..parallel.compiler import GraphCompiler
    from ..parallel.distgraph import DistOpKind
    from ..runtime.execution_engine import ExecutionEngine
    from ..scheduling.list_scheduler import ListScheduler

    preset = preset or env_preset()
    graph = build_model(model, preset)
    with PlanningService(workers=0, name="experiments") as service:
        builder = service.context_for(PlanRequest(
            graph=graph, cluster=cluster,
            config=experiment_config(SEED))).builder
    strategy = dp_strategy("EV-AR", graph, cluster)
    cost = builder.cost
    engine = ExecutionEngine(cluster, seed=SEED + 1)

    rows: List[AblationRow] = []
    for mb in [None] + FUSION_BUCKETS_MB:
        dist = GraphCompiler(cost, bucket_bytes=(
            None if mb is None else mb * 1024 * 1024)).compile(graph,
                                                               strategy)
        collectives = dist.counts_by_kind().get(DistOpKind.ALLREDUCE, 0)
        label = "unfused" if mb is None else f"{mb}MB buckets"
        schedule = ListScheduler().schedule(dist, cost)
        stats = engine.measure(dist, schedule, dist.resident_bytes,
                               iterations=3)
        rows.append(AblationRow(variant=f"{label} ({collectives} collectives)",
                                time=stats.mean))
    return rows


def render_ablation(rows: List[AblationRow]) -> str:
    """Plain-text table for a list of ablation rows."""
    headers = ["Variant", "Per-iteration (s)"]
    out = [[r.variant, "OOM" if r.oom else f"{r.time:.3f}"] for r in rows]
    return format_table(headers, out)
