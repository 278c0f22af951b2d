"""Figure generators: Figs. 3(a), 3(b), 8 and 9 of the paper."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..baselines import (
    dp_strategy,
    flexflow_strategy,
    hetpipe_strategy,
    horovod_strategy,
    post_strategy,
)
from ..cluster.device import GTX_1080TI, TESLA_V100
from ..cluster.presets import cluster_4gpu, cluster_12gpu
from ..graph.models import build_model
from ..graph.op import Operation, TensorSpec
from ..profiling import cost_model
from .common import (
    ExperimentContext,
    MeasuredStrategy,
    env_episodes,
    env_iterations,
    env_preset,
    format_table,
)

# ---------------------------------------------------------------------- #
# Fig. 3(a): even vs proportional whole-model replica allocation (4 GPUs)
# ---------------------------------------------------------------------- #

FIG3A_MODELS = ["vgg19", "resnet200", "inception_v3", "mobilenet_v2",
                "transformer"]


@dataclass
class Fig3aPoint:
    """One model's even-vs-proportional measurement (Fig. 3a)."""
    model: str
    even: float
    proportional: float

    @property
    def speedup(self) -> float:
        return (self.even - self.proportional) / self.proportional


def fig3a_proportional_allocation(*, preset: Optional[str] = None,
                                  seed: int = 0,
                                  models: Optional[List[str]] = None
                                  ) -> List[Fig3aPoint]:
    """Even vs compute-power-proportional DP on 2x V100 + 2x 1080Ti.

    The paper's point: the speed-up is only ~9-27%, motivating per-op
    decisions instead of whole-model proportional replication.
    """
    preset = preset or env_preset()
    cluster = cluster_4gpu()
    ctx = ExperimentContext(cluster, seed=seed)
    points: List[Fig3aPoint] = []
    for model in models or FIG3A_MODELS:
        # 4 GPUs: halve the 8-GPU global batch (strong scaling)
        overrides = {"batch_size": 360 if model == "transformer" else 96}
        graph = build_model(model, preset, **overrides)
        even = ctx.measure(graph, dp_strategy("EV-AR", graph, cluster),
                           "even", use_order_scheduling=False)
        prop = ctx.measure(graph, dp_strategy("CP-AR", graph, cluster),
                           "proportional", use_order_scheduling=False)
        points.append(Fig3aPoint(model=model, even=even.time,
                                 proportional=prop.time))
    return points


def render_fig3a(points: List[Fig3aPoint]) -> str:
    """Plain-text table for Fig. 3(a)."""
    headers = ["Model", "Even alloc (s)", "Proportional alloc (s)",
               "Speed-up"]
    rows = [[p.model, f"{p.even:.3f}", f"{p.proportional:.3f}",
             f"{p.speedup * 100:.1f}%"] for p in points]
    return format_table(headers, rows)


# ---------------------------------------------------------------------- #
# Fig. 3(b): normalized per-op time, 1080Ti vs V100
# ---------------------------------------------------------------------- #

FIG3B_OPS = ["Conv2D", "MatMul", "Conv1D", "Conv2DBpFilter", "Conv2DBpInput"]


def _representative_ops(op_type: str, rng: np.random.Generator
                        ) -> List[Operation]:
    """Instances of one op type at several realistic input sizes."""
    ops: List[Operation] = []
    for i in range(6):
        batch = int(rng.choice([16, 32, 64]))
        if op_type.startswith("Conv2D"):
            size = int(rng.choice([14, 28, 56, 112]))
            channels = int(rng.choice([64, 128, 256, 512]))
            flops = 2.0 * batch * size * size * 9 * channels * channels
            spec = TensorSpec((batch, size, size, channels))
            param_bytes = 9 * channels * channels * 4
        elif op_type == "Conv1D":
            length = int(rng.choice([128, 256, 512]))
            channels = int(rng.choice([128, 256, 512]))
            flops = 2.0 * batch * length * 3 * channels * channels
            spec = TensorSpec((batch, length, channels))
            param_bytes = 3 * channels * channels * 4
        else:  # MatMul
            features = int(rng.choice([512, 1024, 2048, 4096]))
            units = int(rng.choice([512, 1024, 4096]))
            flops = 2.0 * batch * features * units
            spec = TensorSpec((batch, units))
            param_bytes = features * units * 4
        batch_scaled = True
        output = spec
        if op_type.endswith("BpFilter"):
            output = TensorSpec((param_bytes // 4,), batch_dim=None)
        ops.append(Operation(
            name=f"{op_type.lower()}_{i}", op_type=op_type, output=output,
            flops=flops, param_bytes=param_bytes, batch_scaled=batch_scaled,
        ))
    return ops


@dataclass
class Fig3bPoint:
    """Per-op-type normalized 1080Ti/V100 time ratios (Fig. 3b)."""
    op_type: str
    normalized_times: List[float]  # per sampled instance, 1080Ti / V100

    @property
    def mean(self) -> float:
        return float(np.mean(self.normalized_times))

    @property
    def spread(self) -> float:
        return float(np.max(self.normalized_times)
                     - np.min(self.normalized_times))


def fig3b_op_speedups(seed: int = 0) -> List[Fig3bPoint]:
    """Normalized execution times (V100 = 1.0) for representative ops."""
    rng = np.random.default_rng(seed)
    points: List[Fig3bPoint] = []
    for op_type in FIG3B_OPS:
        ratios = []
        for op in _representative_ops(op_type, rng):
            v100 = cost_model.op_time(op, TESLA_V100)
            gtx = cost_model.op_time(op, GTX_1080TI)
            ratios.append(gtx / v100)
        points.append(Fig3bPoint(op_type=op_type, normalized_times=ratios))
    return points


def render_fig3b(points: List[Fig3bPoint]) -> str:
    """Plain-text table for Fig. 3(b)."""
    headers = ["Op type", "Mean 1080Ti/V100", "Min", "Max"]
    rows = [[p.op_type, f"{p.mean:.2f}",
             f"{min(p.normalized_times):.2f}",
             f"{max(p.normalized_times):.2f}"] for p in points]
    return format_table(headers, rows)


# ---------------------------------------------------------------------- #
# Fig. 8: computation/communication time breakdown
# ---------------------------------------------------------------------- #

@dataclass
class Fig8Bar:
    """One (model, scheme) time-breakdown bar of Fig. 8."""
    model: str
    scheme: str
    per_iteration: float
    computation: float
    communication: float

    @property
    def overlap_ratio(self) -> float:
        return (self.computation + self.communication) / self.per_iteration


def fig8_time_breakdown(*, preset: Optional[str] = None,
                        episodes: Optional[int] = None,
                        seed: int = 0) -> List[Fig8Bar]:
    """VGG19 (vs CP-AR) and BERT-large (vs CP-PS) on 8 GPUs."""
    from ..cluster.presets import cluster_8gpu
    preset = preset or env_preset()
    cluster = cluster_8gpu()
    ctx = ExperimentContext(cluster, seed=seed)
    bars: List[Fig8Bar] = []
    for model, baseline in (("vgg19", "CP-AR"), ("bert_large", "CP-PS")):
        graph = build_model(model, preset)
        base = ctx.measure(graph, dp_strategy(baseline, graph, cluster),
                           baseline, use_order_scheduling=False)
        heterog = ctx.run_heterog(graph, episodes=episodes)
        for m, scheme in ((base, baseline), (heterog, "HeteroG")):
            bars.append(Fig8Bar(
                model=model, scheme=scheme, per_iteration=m.time,
                computation=m.extras.get("computation_time", 0.0),
                communication=m.extras.get("communication_time", 0.0),
            ))
    return bars


def render_fig8(bars: List[Fig8Bar]) -> str:
    """Plain-text table for Fig. 8."""
    headers = ["Model", "Scheme", "Per-iter (s)", "Computation (s)",
               "Communication (s)", "(comp+comm)/iter"]
    rows = [[b.model, b.scheme, f"{b.per_iteration:.3f}",
             f"{b.computation:.3f}", f"{b.communication:.3f}",
             f"{b.overlap_ratio:.2f}"] for b in bars]
    return format_table(headers, rows)


# ---------------------------------------------------------------------- #
# Fig. 9: comparison with existing schemes (12 GPUs)
# ---------------------------------------------------------------------- #

FIG9_MODELS = ["resnet200", "inception_v3", "transformer", "bert_large"]
FIG9_SCHEMES = ["HeteroG", "HetPipe", "FlexFlow", "Horovod", "Post"]


def _measure_hetpipe(ctx: ExperimentContext, graph, cluster
                     ) -> MeasuredStrategy:
    """HetPipe runs micro-batch pipelines inside each virtual worker and
    synchronizes with bounded staleness (WSP): gradient traffic overlaps
    subsequent iterations instead of gating this one.  Steady-state
    iteration time = max(pipelined compute makespan, background gradient
    traffic) — see repro.baselines.hetpipe."""
    from ..baselines.hetpipe import (
        hetpipe_iteration_time,
        hetpipe_strategy,
        strip_gradient_sync,
    )
    from ..errors import OutOfMemoryError
    from ..parallel.pipeline import pipeline_graph
    from ..runtime.execution_engine import ExecutionEngine
    from ..scheduling.list_scheduler import FifoScheduler

    strategy = hetpipe_strategy(graph, cluster)
    # compile-only plan-layer path: the pipeline transform reshapes the
    # dist graph before scheduling, so the cached build() is no use here
    dist, resident = ctx.builder(graph).compile(strategy)
    piped = pipeline_graph(dist, 8)
    compute_only, grad_bytes = strip_gradient_sync(piped)
    schedule = FifoScheduler(seed=ctx.seed).schedule(compute_only, None)
    engine = ExecutionEngine(cluster, seed=ctx.seed + 1)
    try:
        stats = engine.measure(compute_only, schedule,
                               resident,
                               iterations=env_iterations())
    except OutOfMemoryError:
        return MeasuredStrategy(label="HetPipe", time=float("inf"),
                                oom=True, strategy=strategy)
    time = hetpipe_iteration_time(stats.mean, grad_bytes, cluster)
    return MeasuredStrategy(label="HetPipe", time=time, strategy=strategy,
                            mix=strategy.strategy_mix())


@dataclass
class Fig9Bar:
    """One model's per-scheme training speeds (Fig. 9)."""
    model: str
    speeds: Dict[str, float]  # scheme -> samples/sec

    def normalized(self) -> Dict[str, float]:
        horovod = self.speeds.get("Horovod", 0.0)
        if horovod <= 0:
            return {k: 0.0 for k in self.speeds}
        return {k: v / horovod for k, v in self.speeds.items()}


def fig9_existing_schemes(*, preset: Optional[str] = None,
                          episodes: Optional[int] = None,
                          seed: int = 0,
                          models: Optional[List[str]] = None
                          ) -> List[Fig9Bar]:
    """Measure HeteroG vs HetPipe/FlexFlow/Horovod/Post on 12 GPUs."""
    preset = preset or env_preset()
    cluster = cluster_12gpu()
    ctx = ExperimentContext(cluster, seed=seed)
    bars: List[Fig9Bar] = []
    for model in models or FIG9_MODELS:
        batch = {"transformer": 1080, "bert_large": 72}.get(model, 288)
        graph = build_model(model, preset, batch_size=batch)
        profile = ctx.profile(graph)
        measured: Dict[str, MeasuredStrategy] = {}
        heterog = ctx.run_heterog(graph, episodes=episodes)
        measured["HeteroG"] = heterog
        measured["HetPipe"] = _measure_hetpipe(ctx, graph, cluster)
        measured["FlexFlow"] = ctx.measure(
            graph,
            flexflow_strategy(graph, cluster, profile,
                              iterations=max(80,
                                             3 * (episodes or env_episodes())),
                              seed=seed),
            "FlexFlow", use_order_scheduling=False)
        measured["Horovod"] = ctx.measure(
            graph, horovod_strategy(graph, cluster), "Horovod",
            use_order_scheduling=False)
        measured["Post"] = ctx.measure(
            graph, post_strategy(graph, cluster, profile, seed=seed),
            "Post", use_order_scheduling=False)
        speeds = {
            name: (0.0 if m.oom else batch / m.time)
            for name, m in measured.items()
        }
        bars.append(Fig9Bar(model=model, speeds=speeds))
    return bars


def render_fig9(bars: List[Fig9Bar]) -> str:
    """Plain-text table for Fig. 9 (speeds normalized to Horovod)."""
    headers = ["Model"] + [f"{s} (norm.)" for s in FIG9_SCHEMES]
    rows = []
    for bar in bars:
        norm = bar.normalized()
        rows.append([bar.model] + [f"{norm.get(s, 0.0):.2f}"
                                   for s in FIG9_SCHEMES])
    return format_table(headers, rows)
