"""Shared plumbing for the experiment harness (one module per table/figure).

Everything reported by the harness is measured on the ExecutionEngine
(the testbed stand-in); the Strategy Maker's simulator is only used for
search, mirroring the paper's methodology.  ``preset`` selects the model
scale: ``bench`` regenerates every table/figure in minutes on CPU,
``paper`` uses the faithful model depths (slower).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..agent import AgentConfig, HeteroGAgent
from ..cluster.topology import Cluster
from ..errors import OutOfMemoryError
from ..graph.dag import ComputationGraph
from ..parallel.strategy import Strategy
from ..plan import PlanBuilder
from ..profiling.profiler import Profile, Profiler
from ..runtime.execution_engine import ExecutionEngine


def env_preset(default: str = "bench") -> str:
    """Model-scale preset from $REPRO_PRESET (default 'bench')."""
    return os.environ.get("REPRO_PRESET", default)


def env_episodes(default: int = 16) -> int:
    """RL episode budget from $REPRO_EPISODES."""
    return int(os.environ.get("REPRO_EPISODES", default))


def env_iterations(default: int = 4) -> int:
    """Measured engine iterations from $REPRO_ITERATIONS."""
    return int(os.environ.get("REPRO_ITERATIONS", default))


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


class ExperimentContext:
    """Caches profiles/plan-builders per (graph, cluster) across
    measurements, so sweeps that revisit a strategy reuse its plan."""

    def __init__(self, cluster: Cluster, seed: int = 0):
        self.cluster = cluster
        self.seed = seed
        self._profiles: Dict[str, Profile] = {}
        self._builders: Dict[Tuple[str, bool], PlanBuilder] = {}

    def profile(self, graph: ComputationGraph) -> Profile:
        if graph.name not in self._profiles:
            self._profiles[graph.name] = Profiler(seed=self.seed).profile(
                graph, self.cluster
            )
        return self._profiles[graph.name]

    def builder(self, graph: ComputationGraph, *,
                use_order_scheduling: bool = True) -> PlanBuilder:
        """Shared PlanBuilder for (graph, order flag) on this cluster."""
        key = (graph.name, use_order_scheduling)
        if key not in self._builders:
            self._builders[key] = PlanBuilder(
                graph, self.cluster, self.profile(graph),
                use_order_scheduling=use_order_scheduling,
            )
        return self._builders[key]

    def measure(self, graph: ComputationGraph, strategy: Strategy,
                label: str, *, use_order_scheduling: bool = True,
                iterations: Optional[int] = None) -> MeasuredStrategy:
        """Deploy + run a strategy on the engine; OOM becomes a row value."""
        deployment = self.builder(
            graph, use_order_scheduling=use_order_scheduling
        ).build(strategy)
        engine = ExecutionEngine(self.cluster, seed=self.seed + 1)
        try:
            stats = engine.measure(
                deployment.dist, deployment.schedule,
                deployment.resident_bytes,
                iterations=iterations or env_iterations(),
            )
        except OutOfMemoryError:
            return MeasuredStrategy(label=label, time=float("inf"), oom=True,
                                    strategy=strategy,
                                    mix=strategy.strategy_mix())
        last = stats.last_result
        extras = {}
        if last is not None:
            extras = {
                "computation_time": last.computation_time,
                "communication_time": last.communication_time,
                "overlap_ratio": last.overlap_ratio,
            }
        return MeasuredStrategy(label=label, time=stats.mean,
                                strategy=strategy,
                                mix=strategy.strategy_mix(), extras=extras)

    def run_heterog(self, graph: ComputationGraph, *,
                    episodes: Optional[int] = None,
                    agent_config: Optional[AgentConfig] = None,
                    iterations: Optional[int] = None) -> MeasuredStrategy:
        """Full HeteroG pipeline: search on the simulator, measure on the
        engine."""
        config = agent_config or bench_agent_config(self.seed)
        agent = HeteroGAgent(self.cluster, config)
        agent.add_graph(graph, builder=self.builder(graph))
        start = time.time()
        agent.train(episodes if episodes is not None else env_episodes())
        search_seconds = time.time() - start
        strategy = agent.best_strategy(graph.name)
        measured = self.measure(graph, strategy, "HeteroG",
                                iterations=iterations)
        measured.extras["search_seconds"] = search_seconds
        measured.extras["simulated_time"] = agent.best_time(graph.name)
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
