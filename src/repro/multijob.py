"""Multi-job resource allocation using HeteroG as a blackbox (Sec. 7).

"For multi-job scheduling, HeteroG can be used as a blackbox, feeding in
resource provisioning to a job and obtaining the training speed of the
job based on produced strategies; then we can balance resource
allocation to different jobs, to achieve targeted global objectives such
as fairness, maximal resource utilization or job completion time
minimization."

This module implements that loop: it partitions the cluster's GPUs among
jobs, queries the planning service for each job's training speed on each
candidate allocation, and greedily assigns GPUs to maximize the chosen
objective.  Speed queries are typed :class:`~repro.service.PlanRequest`
objects, so identical (graph, allocation) candidates — which the greedy
loop re-evaluates constantly — are answered from the service's
fingerprint-keyed result cache instead of re-profiling and re-compiling
the sub-cluster.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .baselines.dp import dp_strategy
from .cluster.topology import Cluster
from .config import HeteroGConfig
from .errors import ReproError
from .graph.dag import ComputationGraph
from .service import PlanningService, PlanRequest


class Objective(enum.Enum):
    """Global allocation objective across jobs."""
    MAX_THROUGHPUT = "throughput"    # maximize total samples/sec
    MIN_MAKESPAN = "makespan"        # minimize the slowest job's epoch time
    FAIRNESS = "fairness"            # maximize the minimum relative speed


@dataclass
class Job:
    """One training job competing for cluster GPUs."""

    name: str
    graph: ComputationGraph
    global_batch: int
    min_gpus: int = 1

    def __post_init__(self) -> None:
        if self.min_gpus < 1:
            raise ReproError(f"job {self.name}: min_gpus must be >= 1")


@dataclass
class Allocation:
    """GPUs assigned to each job plus the predicted speeds."""

    devices: Dict[str, List[str]] = field(default_factory=dict)
    speeds: Dict[str, float] = field(default_factory=dict)  # samples/sec
    idle: List[str] = field(default_factory=list)  # GPUs nobody benefits from

    def total_throughput(self) -> float:
        return sum(self.speeds.values())

    def min_speed(self) -> float:
        return min(self.speeds.values()) if self.speeds else 0.0


SpeedFn = Callable[[Job, Sequence[str]], float]


def cp_ar_speed_fn(cluster: Cluster, seed: int = 0, iterations: int = 2,
                   service: Optional[PlanningService] = None) -> SpeedFn:
    """Fast speed oracle: CP-AR data parallelism on the sub-cluster.

    A full HeteroG search per candidate allocation is the faithful (but
    expensive) oracle; CP-AR is a monotone proxy good enough to drive the
    outer allocation loop, as the paper suggests using HeteroG "as a
    blackbox".

    Every query goes through the planning service as a *build* request
    (explicit CP-AR strategy, engine-measured), so profiles and compiled
    plans are reused per candidate device set and identical queries hit
    the service's result cache.
    """
    plan_service = service if service is not None \
        else PlanningService(workers=0, name="multijob")
    config = HeteroGConfig(seed=seed)

    def speed(job: Job, devices: Sequence[str]) -> float:
        sub = cluster.subcluster(list(devices))
        if sub.num_devices == 1:
            from .parallel.strategy import single_device_strategy
            strategy = single_device_strategy(job.graph, sub)
        else:
            strategy = dp_strategy("CP-AR", job.graph, sub)
        result = plan_service.plan(PlanRequest(
            graph=job.graph,
            cluster=sub,
            strategy=strategy,
            measure_iterations=iterations,
            config=config,
            label=f"multijob:{job.name}",
        ))
        return result.speed(job.global_batch)

    return speed


class MultiJobAllocator:
    """Greedy marginal-gain GPU allocation across jobs."""

    def __init__(self, cluster: Cluster, speed_fn: Optional[SpeedFn] = None,
                 seed: int = 0, service: Optional[PlanningService] = None):
        self.cluster = cluster
        self.service = service if service is not None \
            else PlanningService(workers=0, name="multijob")
        self.speed_fn = speed_fn or cp_ar_speed_fn(cluster, seed=seed,
                                                   service=self.service)

    def _speed(self, job: Job, devices: Sequence[str]) -> float:
        return self.speed_fn(job, devices)

    def allocate(self, jobs: Sequence[Job],
                 objective: Objective = Objective.MAX_THROUGHPUT
                 ) -> Allocation:
        """Assign every GPU to some job, greedily by marginal objective
        gain.  Jobs first receive their ``min_gpus``."""
        if not jobs:
            raise ReproError("no jobs to allocate")
        total_min = sum(j.min_gpus for j in jobs)
        if total_min > self.cluster.num_devices:
            raise ReproError(
                f"jobs require {total_min} GPUs, cluster has "
                f"{self.cluster.num_devices}"
            )
        names = {j.name for j in jobs}
        if len(names) != len(jobs):
            raise ReproError("job names must be unique")

        # seed every job with its minimum, strongest devices first
        # (deterministic: devices in cluster order)
        free = list(self.cluster.device_ids)
        assigned: Dict[str, List[str]] = {j.name: [] for j in jobs}
        for job in jobs:
            for _ in range(job.min_gpus):
                assigned[job.name].append(free.pop(0))

        # greedy: hand each remaining GPU to the job that benefits most;
        # a GPU stays idle when every job's marginal gain is negative
        # (forcing it onto a job would slow that job down)
        idle: List[str] = []
        while free:
            device = free.pop(0)
            best_job = None
            best_gain = 0.0
            for job in jobs:
                current = self._speed(job, assigned[job.name])
                upgraded = self._speed(job, assigned[job.name] + [device])
                gain = self._objective_gain(objective, job, jobs, assigned,
                                            current, upgraded)
                if gain > best_gain:
                    best_gain = gain
                    best_job = job
            if best_job is None:
                idle.append(device)
            else:
                assigned[best_job.name].append(device)

        speeds = {
            job.name: self._speed(job, assigned[job.name]) for job in jobs
        }
        return Allocation(devices=assigned, speeds=speeds, idle=idle)

    def _objective_gain(self, objective: Objective, job: Job,
                        jobs: Sequence[Job],
                        assigned: Dict[str, List[str]],
                        current: float, upgraded: float) -> float:
        if objective is Objective.MAX_THROUGHPUT:
            return upgraded - current
        if objective is Objective.FAIRNESS:
            # help the currently slowest job the most
            speeds = {
                j.name: self._speed(j, assigned[j.name]) for j in jobs
            }
            rank_bonus = 1.0 / (1e-9 + speeds[job.name])
            return (upgraded - current) * rank_bonus
        if objective is Objective.MIN_MAKESPAN:
            # marginal reduction of the job's epoch time
            if current <= 0 or upgraded <= 0:
                return upgraded - current
            epochs_now = job.global_batch / current
            epochs_up = job.global_batch / upgraded
            return epochs_now - epochs_up
        raise ReproError(f"unknown objective {objective}")
