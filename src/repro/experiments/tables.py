"""Table generators: Tables 1, 2, 3, 4, 5, 7 of the paper."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..baselines.dp import DP_BASELINES, dp_strategy
from ..cluster.presets import cluster_8gpu, cluster_12gpu
from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..graph.models import CNN_MODELS, build_model
from ..graph.models.registry import ALL_MODELS
from ..runtime.trainer_loop import end_to_end_minutes
from ..service import PlanningService
from .common import (
    LARGE_MODEL_ROWS,
    SEED,
    SMALL_MODEL_LABELS,
    MeasuredStrategy,
    env_episodes,
    env_preset,
    experiment_config,
    format_table,
    run_heterog,
    run_strategy,
)


@dataclass
class PerIterationRow:
    """One row of Table 1 / Table 4."""

    model: str
    label: str
    heterog: MeasuredStrategy
    baselines: Dict[str, MeasuredStrategy] = field(default_factory=dict)


def _batch_for(model: str, num_gpus: int) -> Dict[str, object]:
    """Strong scaling: Table 4 (12 GPUs) uses 1.5x the Table 1 batches."""
    if num_gpus == 8:
        return {}
    base = {"vgg19": 192, "resnet200": 192, "inception_v3": 192,
            "mobilenet_v2": 192, "nasnet": 192, "transformer": 720,
            "bert_large": 48, "xlnet_large": 48}[model]
    return {"batch_size": int(base * num_gpus / 8)}


def _per_iteration_row(service: PlanningService, cluster: Cluster,
                       graph: ComputationGraph, model: str, label: str, *,
                       episodes: Optional[int],
                       iterations: Optional[int] = None) -> PerIterationRow:
    """HeteroG and the DP baselines on one graph.  The baselines run
    under the framework's default FIFO order, as in the paper; order
    scheduling is part of HeteroG."""
    heterog = run_heterog(service, graph, cluster, experiment_config(SEED),
                          episodes=episodes, iterations=iterations)
    fifo = experiment_config(SEED, use_order_scheduling=False)
    baselines = {
        name: run_strategy(service, dp_strategy(name, graph, cluster), name,
                           fifo, iterations=iterations)
        for name in DP_BASELINES
    }
    return PerIterationRow(model=model, label=label, heterog=heterog,
                           baselines=baselines)


def per_iteration_table(cluster: Cluster, num_gpus: int, *,
                        preset: Optional[str] = None,
                        episodes: Optional[int] = None,
                        models: Optional[List[str]] = None,
                        include_large: bool = True) -> List[PerIterationRow]:
    """Generate the Table 1 (8 GPUs) / Table 4 (12 GPUs) rows."""
    preset = preset or env_preset()
    episodes = episodes if episodes is not None else env_episodes()
    rows: List[PerIterationRow] = []
    with PlanningService(workers=0, name="experiments") as service:
        for model in models or ALL_MODELS:
            graph = build_model(model, preset, **_batch_for(model, num_gpus))
            rows.append(_per_iteration_row(
                service, cluster, graph, model,
                SMALL_MODEL_LABELS.get(model, model), episodes=episodes))
    if include_large:
        rows.extend(large_model_rows(cluster, num_gpus, preset=preset,
                                     episodes=episodes))
    return rows


def large_model_rows(cluster: Cluster, num_gpus: int, *,
                     preset: Optional[str] = None,
                     episodes: Optional[int] = None
                     ) -> List[PerIterationRow]:
    """The OOM rows: DP infeasible, HeteroG finds a feasible deployment.

    These rows are only meaningful at ``paper`` preset (the bench-scale
    models fit in memory everywhere); at bench preset we still exercise
    them at paper scale because the OOM boundary is the point.
    """
    preset = "paper"  # memory boundaries only exist at faithful scale
    # paper-scale graphs are 5-20x bigger; the deterministic seeds (the
    # memory-balanced MP ladders) decide feasibility, so a short search
    # suffices and keeps the benchmark in CPU minutes
    episodes = min(episodes if episodes is not None else env_episodes(), 10)
    rows: List[PerIterationRow] = []
    scale = num_gpus / 8
    with PlanningService(workers=0, name="experiments") as service:
        for label, model, overrides in LARGE_MODEL_ROWS:
            kwargs = dict(overrides)
            kwargs["batch_size"] = int(kwargs["batch_size"] * scale)
            graph = build_model(model, preset, **kwargs)
            rows.append(_per_iteration_row(
                service, cluster, graph, model, label, episodes=episodes,
                iterations=2))
    return rows


def render_per_iteration(rows: List[PerIterationRow]) -> str:
    """Plain-text Table 1/4 with per-baseline speed-ups."""
    headers = ["Model", "HeteroG"] + [
        f"{b}/Speedup" for b in DP_BASELINES
    ]
    out_rows = []
    for row in rows:
        cells = [row.label, row.heterog.display_time]
        for name in DP_BASELINES:
            m = row.baselines[name]
            if m.oom:
                cells.append("OOM/-")
            else:
                speedup = row.heterog.speedup_over(m)
                cells.append(f"{m.time:.3f} / {speedup * 100:.1f}%"
                             if speedup is not None else f"{m.time:.3f}")
        out_rows.append(cells)
    return format_table(headers, out_rows)


# ---------------------------------------------------------------------- #
# Tables 2 and 3: strategy mixes
# ---------------------------------------------------------------------- #

def strategy_mix_table(rows: List[PerIterationRow],
                       cluster: Cluster) -> str:
    """Render the Table 2 / Table 3 percentage breakdown from rows."""
    device_cols = [f"G{i}" for i in range(cluster.num_devices)]
    headers = ["Model"] + device_cols + ["EV-PS", "EV-AR", "CP-PS", "CP-AR"]
    out_rows = []
    for row in rows:
        mix = row.heterog.mix
        cells = [row.label]
        for i, dev in enumerate(cluster.device_ids):
            cells.append(f"{mix.get(f'MP:{dev}', 0.0) * 100:.1f}%")
        for dp in ("EV-PS", "EV-AR", "CP-PS", "CP-AR"):
            cells.append(f"{mix.get(dp, 0.0) * 100:.1f}%")
        out_rows.append(cells)
    return format_table(headers, out_rows)


def mp_fraction(mix: Dict[str, float]) -> float:
    """Fraction of ops deployed without replication in a strategy mix."""
    return sum(v for k, v in mix.items() if k.startswith("MP:"))


# ---------------------------------------------------------------------- #
# Table 5: end-to-end training time
# ---------------------------------------------------------------------- #

@dataclass
class EndToEndRow:
    """One (model, cluster) end-to-end minutes row (Table 5)."""
    model: str
    gpus: int
    global_batch: int
    minutes: Dict[str, float]  # scheme -> minutes (inf on OOM)


def end_to_end_table(*, preset: Optional[str] = None,
                     episodes: Optional[int] = None,
                     models: Optional[List[str]] = None
                     ) -> List[EndToEndRow]:
    """Table 5: convergence minutes = iterations(batch) x per-iter time."""
    preset = preset or env_preset()
    config = experiment_config(SEED)
    fifo = experiment_config(SEED, use_order_scheduling=False)
    rows: List[EndToEndRow] = []
    with PlanningService(workers=0, name="experiments") as service:
        for gpus, cluster in ((8, cluster_8gpu()), (12, cluster_12gpu())):
            for model in models or CNN_MODELS:
                graph = build_model(model, preset, **_batch_for(model, gpus))
                batch = graph.batch_size()
                measured = {"HeteroG": run_heterog(service, graph, cluster,
                                                   config, episodes=episodes)}
                for name in ("CP-PS", "CP-AR"):
                    measured[name] = run_strategy(
                        service, dp_strategy(name, graph, cluster), name,
                        fifo)
                minutes = {
                    name: float("inf") if m.oom
                    else end_to_end_minutes(model, batch, m.time)
                    for name, m in measured.items()}
                rows.append(EndToEndRow(model=model, gpus=gpus,
                                        global_batch=batch, minutes=minutes))
    return rows


def render_end_to_end(rows: List[EndToEndRow]) -> str:
    """Plain-text table for Table 5."""
    headers = ["Model", "GPUs", "HeteroG", "CP-PS/Speedup", "CP-AR/Speedup"]
    out = []
    for row in rows:
        h = row.minutes["HeteroG"]
        cells = [row.model, str(row.gpus), f"{h:.1f}"]
        for name in ("CP-PS", "CP-AR"):
            m = row.minutes[name]
            cells.append(f"{m:.1f} / {(m - h) / h * 100:.1f}%")
        out.append(cells)
    return format_table(headers, out)


# ---------------------------------------------------------------------- #
# Table 7: order scheduling vs FIFO
# ---------------------------------------------------------------------- #

@dataclass
class OrderSchedulingRow:
    """One model's order-scheduling-vs-default row (Table 7)."""
    model: str
    with_order: float
    fifo: float

    @property
    def speedup(self) -> float:
        return (self.fifo - self.with_order) / self.with_order


def order_scheduling_table(cluster: Cluster, *,
                           preset: Optional[str] = None,
                           episodes: Optional[int] = None,
                           models: Optional[List[str]] = None
                           ) -> List[OrderSchedulingRow]:
    """Table 7: same HeteroG strategy executed with rank order vs FIFO."""
    preset = preset or env_preset()
    config = experiment_config(SEED)
    fifo = experiment_config(SEED, use_order_scheduling=False)
    rows: List[OrderSchedulingRow] = []
    with PlanningService(workers=0, name="experiments") as service:
        for model in models or ALL_MODELS:
            graph = build_model(model, preset)
            heterog = run_heterog(service, graph, cluster, config,
                                  episodes=episodes)
            assert heterog.strategy is not None
            default = run_strategy(service, heterog.strategy, "FIFO", fifo)
            rows.append(OrderSchedulingRow(model=model,
                                           with_order=heterog.time,
                                           fifo=default.time))
    return rows


def render_order_scheduling(rows: List[OrderSchedulingRow]) -> str:
    """Plain-text table for Table 7."""
    headers = ["Model", "HeteroG Schedule", "FIFO Schedule", "Speed-up"]
    out = [[r.model, f"{r.with_order:.3f}", f"{r.fifo:.3f}",
            f"{r.speedup * 100:.1f}%"] for r in rows]
    return format_table(headers, out)
