"""Ground-truth execution engine — the testbed stand-in.

Runs a compiled deployment under :class:`TruthCostModel` (analytic costs
with jitter and inter-server bandwidth discount).  All numbers reported
by the experiment harness come from this engine, never from the Strategy
Maker's profile-based simulator, so strategy search and evaluation use
different cost models (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import telemetry
from ..cluster.topology import Cluster
from ..errors import OutOfMemoryError
from ..parallel.distgraph import DistGraph
from ..scheduling.list_scheduler import Schedule
from ..simulation.costs import TruthCostModel
from ..simulation.engine import Simulator
from ..simulation.metrics import SimulationResult


@dataclass
class IterationStats:
    """Aggregate over measured training iterations."""

    times: List[float] = field(default_factory=list)
    last_result: Optional[SimulationResult] = None

    @property
    def mean(self) -> float:
        return float(np.mean(self.times)) if self.times else float("nan")

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1); NaN below 2 iterations."""
        if len(self.times) < 2:
            return float("nan")
        return float(np.std(self.times, ddof=1))

    @property
    def iterations(self) -> int:
        return len(self.times)


class ExecutionEngine:
    """Executes distributed training iterations on the modelled cluster.

    The engine owns one seeded RNG stream (``self.rng``) shared with its
    :class:`TruthCostModel` (jitter draws) and, when a ``fault_injector``
    is attached, with the injector — so a whole faulted run is a pure
    function of ``seed`` plus the fault schedule, and a run with an
    empty schedule is bit-identical to one with no injector at all.
    """

    def __init__(self, cluster: Cluster, *, jitter_sigma: float = 0.04,
                 interserver_discount: float = 0.92, seed: int = 1234,
                 rng: Optional[np.random.Generator] = None,
                 fault_injector=None):
        self.cluster = cluster
        # an explicit generator continues an existing stream (the elastic
        # trainer rebuilds the engine mid-run when the fleet grows and
        # must not restart the jitter sequence); otherwise seed a fresh one
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.cost = TruthCostModel(cluster, jitter_sigma=jitter_sigma,
                                   interserver_discount=interserver_discount,
                                   rng=self.rng)
        self._simulator = Simulator(self.cost)
        self.capacities = {d.device_id: d.usable_memory_bytes
                           for d in cluster.devices}
        self.fault_injector = fault_injector
        if fault_injector is not None:
            fault_injector.bind(self)

    def run_iteration(self, dist: DistGraph, schedule: Schedule,
                      resident_bytes: Dict[str, int], *,
                      check_memory: bool = True) -> SimulationResult:
        """Execute one iteration; raises :class:`OutOfMemoryError` if a
        device's peak usage exceeds its capacity (as the real run would)."""
        with telemetry.span("engine.iteration", graph=dist.name):
            result = self._simulator.run(
                dist,
                order=schedule.order,
                resident_bytes=resident_bytes,
                capacities=self.capacities,
            )
        telemetry.emit_observe(
            "engine_iteration_seconds", result.makespan,
            labels={"graph": dist.name},
            help="simulated per-iteration time on the truth engine")
        for device in result.oom_devices:
            telemetry.emit_count(
                "engine_oom_total", labels={"device": device},
                help="iterations that exceeded a device's memory")
        if check_memory and result.oom_devices:
            worst = result.oom_devices[0]
            raise OutOfMemoryError(
                worst,
                required=int(result.peak_memory[worst]),
                capacity=self.capacities[worst],
            )
        return result

    def measure(self, dist: DistGraph, schedule: Schedule,
                resident_bytes: Dict[str, int], *, iterations: int = 10,
                warmup: int = 1) -> IterationStats:
        """Run ``warmup + iterations`` iterations; keep stats of the last
        ``iterations`` (the paper averages over 500 real iterations)."""
        stats = IterationStats()
        with telemetry.span("engine.measure", graph=dist.name,
                            iterations=iterations, warmup=warmup):
            for i in range(warmup + iterations):
                result = self.run_iteration(dist, schedule, resident_bytes)
                if i >= warmup:
                    stats.times.append(result.makespan)
                    stats.last_result = result
        if stats.iterations >= 2 and stats.mean > 0:
            # realized run-to-run jitter (std/mean) vs the configured sigma
            telemetry.emit_gauge(
                "engine_jitter_realized", stats.std / stats.mean,
                labels={"graph": dist.name},
                help="coefficient of variation of measured iterations")
        return stats
