"""Shared plumbing for the experiment harness (one module per table/figure).

Everything reported by the harness is measured on the ExecutionEngine
(the testbed stand-in); the Strategy Maker's simulator is only used for
search, mirroring the paper's methodology.  Every search and build goes
through an inline planning service, whose warm contexts are the
harness's only cache of profiles and plan builders.  ``preset`` selects
the model scale: ``bench`` regenerates every table/figure in minutes on
CPU, ``paper`` uses the faithful model depths (slower).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..agent import AgentConfig
from ..cluster.topology import Cluster
from ..config import HeteroGConfig
from ..errors import CompileError, OutOfMemoryError
from ..graph.dag import ComputationGraph
from ..parallel.strategy import Strategy
from ..plan import ExecutionPlan
from ..runtime.execution_engine import ExecutionEngine
from ..service import PlanningService, PlanRequest


def env_preset(default: str = "bench") -> str:
    """Model-scale preset from $REPRO_PRESET (default 'bench')."""
    return os.environ.get("REPRO_PRESET", default)


def env_episodes(default: int = 16) -> int:
    """RL episode budget from $REPRO_EPISODES."""
    return int(os.environ.get("REPRO_EPISODES", default))


def env_iterations() -> int:
    """Measured engine iterations from $REPRO_ITERATIONS (default 4)."""
    return int(os.environ.get("REPRO_ITERATIONS", 4))


# Large-model rows of Tables 1/3 (model, build overrides) at 8 GPUs.
# Batch sizes follow the paper; the deep Transformer variants use the
# Transformer-big width (see DESIGN.md substitutions).
LARGE_MODEL_ROWS: List[Tuple[str, str, Dict[str, object]]] = [
    ("ResNet200 (384)", "resnet200", {"batch_size": 384}),
    # seq lengths of the two most activation-heavy rows are trimmed just
    # enough that a model-parallel deployment *can* exist (total pinned
    # activations below total cluster memory) while every DP baseline
    # still overflows its per-device budget by a wide margin
    ("Transformer (24 layers)(120)", "transformer",
     {"layers": 24, "batch_size": 120, "hidden": 1024, "ffn": 4096,
      "seq_len": 160}),
    ("Bert-large (24 layers)(96)", "bert_large", {"batch_size": 96}),
    ("XlNet-large (24 layers)(96)", "xlnet_large",
     {"batch_size": 96, "seq_len": 160}),
    ("Bert-large (48 layers)(24)", "bert_large",
     {"layers": 48, "batch_size": 24}),
    ("XlNet-large (48 layers)(24)", "xlnet_large",
     {"layers": 48, "batch_size": 24}),
]

# Standard row labels for the 8 small-model rows (batch in parentheses).
SMALL_MODEL_LABELS: Dict[str, str] = {
    "vgg19": "VGG-19",
    "resnet200": "ResNet200",
    "inception_v3": "Inception_v3",
    "mobilenet_v2": "MobileNet_v2",
    "nasnet": "NasNet",
    "transformer": "Transformer (6 layers)",
    "bert_large": "Bert-large (24 layers)",
    "xlnet_large": "XlNet-large (24 layers)",
}


def bench_agent_config(seed: int = 0) -> AgentConfig:
    """CPU-feasible GNN scale used by the benchmark harness."""
    return AgentConfig(
        max_groups=40, gat_hidden=32, gat_layers=2, gat_heads=2,
        strategy_dim=48, strategy_heads=2, strategy_layers=1,
        seed=seed,
    )


@dataclass
class MeasuredStrategy:
    """One strategy measured on the execution engine."""

    label: str
    time: float                  # mean per-iteration seconds ('inf' on OOM)
    oom: bool = False
    strategy: Optional[Strategy] = None
    mix: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def display_time(self) -> str:
        return "OOM" if self.oom else f"{self.time:.3f}"

    def speedup_over(self, other: "MeasuredStrategy") -> Optional[float]:
        """(other - self) / self, the paper's speed-up definition."""
        if self.oom or other.oom:
            return None
        return (other.time - self.time) / self.time


#: the one seed every paper experiment profiles, searches and measures
#: with
SEED = 0


def experiment_config(seed: int = 0, *,
                      use_order_scheduling: bool = True) -> HeteroGConfig:
    """The planning config of every experiment request: the bench agent,
    one ``seed`` for profiling, search and the engine.  DP and FIFO rows
    pass ``use_order_scheduling=False``, the framework's default order."""
    return HeteroGConfig(seed=seed, agent=bench_agent_config(seed),
                         use_order_scheduling=use_order_scheduling)


def measure(deployment: Optional[ExecutionPlan], label: str, *, seed: int,
            iterations: Optional[int] = None) -> MeasuredStrategy:
    """Run a built deployment on the engine (seeded ``seed + 1``, as the
    planning service measures); an OOM becomes a row value."""
    if deployment is None:
        raise CompileError(f"{label}: the strategy does not compile")
    strategy = deployment.strategy
    engine = ExecutionEngine(deployment.cluster, seed=seed + 1)
    try:
        stats = engine.measure(
            deployment.dist, deployment.schedule, deployment.resident_bytes,
            iterations=iterations or env_iterations(),
        )
    except OutOfMemoryError:
        return MeasuredStrategy(label=label, time=float("inf"), oom=True,
                                strategy=strategy,
                                mix=strategy.strategy_mix())
    last = stats.last_result    # set by every measured iteration
    extras = {"computation_time": last.computation_time,
              "communication_time": last.communication_time,
              "overlap_ratio": last.overlap_ratio}
    return MeasuredStrategy(label=label, time=stats.mean, strategy=strategy,
                            mix=strategy.strategy_mix(), extras=extras)


def run_strategy(service: PlanningService, strategy: Strategy, label: str,
                 config: HeteroGConfig, *,
                 iterations: Optional[int] = None) -> MeasuredStrategy:
    """Build ``strategy`` with a build request, then measure it."""
    built = service.plan(PlanRequest(
        graph=strategy.graph, cluster=strategy.cluster, strategy=strategy,
        config=config, label=label))
    return measure(built.deployment, label, seed=config.seed,
                   iterations=iterations)


def search_request(graph: ComputationGraph, cluster: Cluster,
                   config: HeteroGConfig,
                   episodes: Optional[int] = None) -> PlanRequest:
    """One round of search on the simulator: the service raises
    :class:`~repro.errors.StrategyError` when it finds no feasible
    strategy instead of searching again."""
    return PlanRequest(
        graph=graph, cluster=cluster, config=config, max_rounds=1,
        episodes=episodes if episodes is not None else env_episodes(),
        label="search")


def run_heterog(service: PlanningService, graph: ComputationGraph,
                cluster: Cluster, config: HeteroGConfig, *,
                episodes: Optional[int] = None,
                iterations: Optional[int] = None) -> MeasuredStrategy:
    """Full HeteroG pipeline: search on the simulator, then measure the
    winner on the engine."""
    found = service.plan(search_request(graph, cluster, config, episodes))
    measured = measure(found.deployment, "HeteroG", seed=config.seed,
                       iterations=iterations)
    measured.extras["simulated_time"] = found.outcome.time
    return measured


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Plain-text table used by every harness module's report."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)
