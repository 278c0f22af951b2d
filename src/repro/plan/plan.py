"""The :class:`ExecutionPlan` artifact and evaluation outcome types.

An ExecutionPlan is the single currency between compilation, scheduling,
simulation and deployment: everything the Simulator or the
ExecutionEngine needs to run one strategy, produced once by
:class:`~repro.plan.builder.PlanBuilder` and safe to cache/share because
nothing downstream mutates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional

from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..parallel.distgraph import DistGraph
from ..parallel.strategy import Strategy
from ..profiling.profiler import Profile
from ..scheduling.list_scheduler import Schedule
from ..simulation.kernel import SimKernel
from ..simulation.metrics import SimulationResult


@dataclass(frozen=True)
class ExecutionPlan:
    """One compiled + scheduled strategy, ready to simulate or execute.

    Carries the resident bytes the compiler derived (parameters +
    optimizer state per device) and the device capacities, so no hidden
    state needs to flow alongside it.

    ``kernel`` is the array lowering of ``dist`` shared by every
    simulation of this plan (ranking and both candidate orders already
    used it during scheduling).  ``sim_result`` is the chosen order's
    simulation under this plan's resident bytes and capacities — the
    winning candidate's, or the FIFO order's — and evaluating the plan
    reuses it instead of running the simulator again.
    """

    graph: ComputationGraph
    cluster: Cluster
    strategy: Strategy
    dist: DistGraph
    schedule: Schedule
    resident_bytes: Mapping[str, int]
    capacities: Mapping[str, int]
    profile: Profile
    fingerprint: str
    kernel: SimKernel
    sim_result: SimulationResult

    @property
    def num_dist_ops(self) -> int:
        return len(self.dist)


@dataclass
class EvalOutcome:
    """Result of evaluating one strategy in the simulator.

    An outcome keeps scalars and the per-device memory verdict, never
    the run: ``peak_memory`` and ``oom_devices`` are the chosen order's
    (empty for an infeasible or pruned outcome).  The run itself lives
    on the plan, ``builder.build(strategy).sim_result``.

    A *pruned* outcome means evaluation was cut short because the
    candidate provably cannot beat the caller's best-so-far threshold:
    ``bound`` is an admissible lower bound on its true makespan (the
    static ``kernel_lower_bound`` for ``prune_stage="bound"``, the
    partial simulated clock for ``prune_stage="midsim"``), ``time`` is
    ``inf`` and ``feasible`` is False, so no argmin consumer can ever
    select it.
    """

    time: float                  # simulated per-iteration seconds
    dist_ops: int
    peak_memory: Mapping[str, float] = field(default_factory=dict)
    oom_devices: List[str] = field(default_factory=list)
    infeasible: bool = False    # compile/simulate failed outright
    pruned: bool = False        # evaluation aborted against best-so-far
    bound: Optional[float] = None   # lower bound on the true makespan
    prune_stage: Optional[str] = None  # "bound" | "midsim"

    @property
    def oom(self) -> bool:
        return bool(self.oom_devices)

    @property
    def feasible(self) -> bool:
        return not (self.oom or self.infeasible or self.pruned)
