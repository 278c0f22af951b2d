"""The :class:`ExecutionPlan` artifact and evaluation outcome types.

An ExecutionPlan is the single currency between compilation, scheduling,
simulation and deployment: everything the Simulator or the
ExecutionEngine needs to run one strategy, produced once by
:class:`~repro.plan.builder.PlanBuilder` and safe to cache/share because
nothing downstream mutates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Optional

from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..parallel.distgraph import DistGraph
from ..parallel.strategy import Strategy
from ..profiling.profiler import Profile
from ..scheduling.list_scheduler import Schedule
from ..simulation.kernel import SimKernel
from ..simulation.metrics import SimulationResult
from ..telemetry.critical_path import critical_path


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

    ``blame_fractions`` is the critical-path blame of ``sim_result``,
    walked on first read and kept: a plan served again (a cached
    winner, a build after a search) is walked once.
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

    @cached_property
    def blame_fractions(self) -> Optional[Dict[str, float]]:
        """Fraction of the simulated makespan blamed on each resource
        (:func:`~repro.telemetry.critical_path`); None for an empty run.
        Shared by every reader: treat it as read-only."""
        try:
            return critical_path(self.dist, self.sim_result).blame_fractions()
        except ValueError:
            return None


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
    static ``kernel_lower_bound`` for ``prune_stage="bound"``; for
    ``prune_stage="midsim"``, the event loop's partial bound: the clock,
    or the clock plus a completed op's tail or plus the load still
    unstarted on a resource it freed), ``time`` is
    ``inf`` and ``feasible`` is False, so no argmin consumer can ever
    select it.

    ``dist_ops`` counts the dist-ops compiled: all of them, except for
    a ``"bound"`` prune cut while compiling, where it is the number
    emitted before a resource's load crossed the threshold (and
    ``bound`` is that load).  An infeasible outcome has 0.
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
