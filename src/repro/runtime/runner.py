"""The ``dist_runner`` returned by the client API (paper Sec. 3.5)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .. import telemetry
from ..errors import ReproError
from ..plan import ExecutionPlan
from .execution_engine import ExecutionEngine


@dataclass
class TrainingReport:
    """What ``dist_runner.run(steps)`` hands back."""

    steps: int
    iteration_times: List[float] = field(default_factory=list)
    global_batch: int = 0

    @property
    def mean_iteration_time(self) -> float:
        if not self.iteration_times:
            return float("nan")
        return float(np.mean(self.iteration_times))

    @property
    def throughput(self) -> float:
        """Training throughput in samples/second."""
        mean = self.mean_iteration_time
        if not mean or mean != mean:  # zero or NaN
            return 0.0
        return self.global_batch / mean

    @property
    def total_seconds(self) -> float:
        return float(np.sum(self.iteration_times))


class DistributedRunner:
    """Executes the distributed training model produced by HeteroG.

    ``run(steps)`` plays ``steps`` training iterations on the execution
    engine, enforcing the computed execution order (Sec. 3.4, "Order
    Enforcement") and the per-device memory limits.
    """

    def __init__(self, deployment: ExecutionPlan,
                 engine: Optional[ExecutionEngine] = None):
        self.deployment = deployment
        self.engine = engine or ExecutionEngine(deployment.cluster)
        self._global_batch = deployment.graph.batch_size()

    @property
    def global_batch(self) -> int:
        return self._global_batch

    def run(self, steps: int) -> TrainingReport:
        if steps <= 0:
            raise ReproError(f"steps must be positive, got {steps}")
        report = TrainingReport(steps=steps, global_batch=self._global_batch)
        with telemetry.span("pipeline.execute",
                            graph=self.deployment.graph.name, steps=steps):
            for _ in range(steps):
                result = self.engine.run_iteration(
                    self.deployment.dist,
                    self.deployment.schedule,
                    self.deployment.resident_bytes,
                )
                report.iteration_times.append(result.makespan)
        telemetry.emit_gauge(
            "runner_throughput_samples_per_second", report.throughput,
            labels={"graph": self.deployment.graph.name},
            help="training throughput of the last run() call")
        return report
