"""Ablations beyond the paper's tables (design choices Sec. 8 credits).

- hybrid communication off: force AllReduce-only or PS-only and compare;
- model parallelism off: DP-only action space;
- grouping-size sweep: effect of N on strategy quality;
- jitter sensitivity: how stable the measured per-iteration time is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..agent import HeteroGAgent
from ..agent.policy import actions_to_strategy
from ..cluster.topology import Cluster
from ..graph.models import build_model
from .common import (
    ExperimentContext,
    bench_agent_config,
    env_episodes,
    env_preset,
    format_table,
)


@dataclass
class AblationRow:
    """One measured ablation variant."""
    variant: str
    time: float
    oom: bool = False


def _restrict_actions(agent: HeteroGAgent, name: str,
                      allowed_offsets: List[int],
                      allow_mp: bool) -> None:
    """Clamp the best-found actions to a restricted space by re-mapping
    disallowed actions onto the nearest allowed DP action."""
    ctx = agent.context(name)
    m = agent.cluster.num_devices
    actions = ctx.best_actions
    if actions is None:
        return
    fixed = actions.copy()
    fallback = m + allowed_offsets[-1]
    for i, a in enumerate(fixed):
        if a < m:
            if not allow_mp:
                fixed[i] = fallback
        elif (a - m) not in allowed_offsets:
            fixed[i] = fallback
    ctx.best_actions = fixed


def communication_ablation(cluster: Cluster, model: str = "bert_large", *,
                           preset: Optional[str] = None,
                           episodes: Optional[int] = None,
                           seed: int = 0) -> List[AblationRow]:
    """Hybrid PS+AR vs AR-only vs PS-only for the searched strategy."""
    preset = preset or env_preset()
    graph = build_model(model, preset)
    ctx = ExperimentContext(cluster, seed=seed)
    agent = HeteroGAgent(cluster, bench_agent_config(seed))
    agent.add_graph(graph, ctx.profile(graph))
    agent.train(episodes if episodes is not None else env_episodes())
    name = graph.name

    rows: List[AblationRow] = []
    baseline_actions = agent.context(name).best_actions.copy()
    grouping = agent.context(name).grouping

    variants = [
        ("hybrid (HeteroG)", [0, 1, 2, 3], True),
        ("AllReduce-only", [1, 3], True),
        ("PS-only", [0, 2], True),
        ("no model parallelism", [0, 1, 2, 3], False),
    ]
    for label, offsets, allow_mp in variants:
        agent.context(name).best_actions = baseline_actions.copy()
        _restrict_actions(agent, name, offsets, allow_mp)
        strategy = actions_to_strategy(
            graph, cluster, grouping, agent.context(name).best_actions
        )
        measured = ctx.measure(graph, strategy, label)
        rows.append(AblationRow(variant=label, time=measured.time,
                                oom=measured.oom))
    agent.context(name).best_actions = baseline_actions
    return rows


def grouping_ablation(cluster: Cluster, model: str = "inception_v3", *,
                      preset: Optional[str] = None,
                      group_sizes: Optional[List[int]] = None,
                      episodes: Optional[int] = None,
                      seed: int = 0) -> List[AblationRow]:
    """Strategy quality vs the maximal number of op groups N."""
    preset = preset or env_preset()
    graph = build_model(model, preset)
    rows: List[AblationRow] = []
    for n in group_sizes or [4, 16, 40]:
        config = bench_agent_config(seed)
        config.max_groups = n
        agent = HeteroGAgent(cluster, config)
        agent.add_graph(graph)
        agent.train(episodes if episodes is not None else env_episodes())
        ctx = ExperimentContext(cluster, seed=seed)
        measured = ctx.measure(graph, agent.best_strategy(graph.name),
                               f"N={n}")
        rows.append(AblationRow(variant=f"N={n}", time=measured.time,
                                oom=measured.oom))
    return rows


def jitter_sensitivity(cluster: Cluster, model: str = "vgg19", *,
                       preset: Optional[str] = None,
                       sigmas: Optional[List[float]] = None,
                       seed: int = 0) -> Dict[float, float]:
    """Coefficient of variation of per-iteration time vs kernel jitter."""
    from ..baselines import dp_strategy
    from ..runtime.execution_engine import ExecutionEngine
    preset = preset or env_preset()
    graph = build_model(model, preset)
    ctx = ExperimentContext(cluster, seed=seed)
    strategy = dp_strategy("CP-AR", graph, cluster)
    deployment = ctx.builder(graph).build(strategy)
    out: Dict[float, float] = {}
    for sigma in sigmas or [0.0, 0.02, 0.05, 0.1]:
        engine = ExecutionEngine(cluster, jitter_sigma=sigma, seed=seed)
        stats = engine.measure(deployment.dist, deployment.schedule,
                               deployment.resident_bytes, iterations=10)
        out[sigma] = stats.std / stats.mean if stats.mean else 0.0
    return out


def fusion_ablation(cluster: Cluster, model: str = "resnet200", *,
                    preset: Optional[str] = None,
                    bucket_sizes_mb: Optional[List[int]] = None,
                    seed: int = 0) -> List[AblationRow]:
    """Gradient-fusion sweep: per-iteration time vs AllReduce bucket size.

    Reproduces the Horovod tensor-fusion U-curve: no fusion pays the
    per-collective launch overhead hundreds of times; over-fusion delays
    the first collective until every gradient is ready."""
    from ..baselines import dp_strategy
    from ..parallel.fusion import count_collectives, fuse_allreduces
    from ..runtime.execution_engine import ExecutionEngine
    from ..scheduling.list_scheduler import ListScheduler

    preset = preset or env_preset()
    graph = build_model(model, preset)
    ctx = ExperimentContext(cluster, seed=seed)
    builder = ctx.builder(graph)
    # compile-only: the fused variants re-schedule a transformed graph,
    # which is exactly what PlanBuilder.compile exists for
    dist, resident = builder.compile(dp_strategy("EV-AR", graph, cluster))
    cost = builder.cost
    engine = ExecutionEngine(cluster, seed=seed + 1)

    rows: List[AblationRow] = []

    def measure(graph_, label):
        schedule = ListScheduler().schedule(graph_, cost)
        stats = engine.measure(graph_, schedule, resident, iterations=3)
        rows.append(AblationRow(variant=label, time=stats.mean))

    measure(dist, f"unfused ({count_collectives(dist)} collectives)")
    for mb in bucket_sizes_mb or [4, 32, 256]:
        fused = fuse_allreduces(dist, mb * 1024 * 1024)
        measure(fused, f"{mb}MB buckets ({count_collectives(fused)} "
                       f"collectives)")
    return rows


def render_ablation(rows: List[AblationRow]) -> str:
    """Plain-text table for a list of ablation rows."""
    headers = ["Variant", "Per-iteration (s)"]
    out = [[r.variant, "OOM" if r.oom else f"{r.time:.3f}"] for r in rows]
    return format_table(headers, out)
