"""HeteroG reproduction — optimizing distributed DNN training deployment
in heterogeneous GPU clusters (Yi et al., CoNEXT 2020).

Public surface:

- :func:`get_runner` / :class:`Dataset` — the paper's client API.
- :class:`HeteroG` — the full pipeline facade (analyze / profile / plan /
  deploy / run).
- ``repro.graph`` — computation-graph IR and the benchmark model zoo.
- ``repro.cluster`` — heterogeneous cluster model and testbed presets.
- ``repro.parallel`` — strategies, distributed-graph IR, graph compiler.
- ``repro.scheduling`` — execution-order scheduling.
- ``repro.agent`` — GNN policy and REINFORCE strategy search.
- ``repro.baselines`` — DP baselines and related-work schemes.
- ``repro.plan`` — cached ExecutionPlan layer (PlanBuilder, PlanCache,
  BestSoFar) shared by search, baselines and deployment.
- ``repro.runtime`` — execution engine (testbed stand-in) and runner.
- ``repro.service`` — the long-lived planning service (typed
  :class:`PlanRequest`/:class:`PlanResult` surface, request coalescing,
  admission control); :func:`default_service` / :func:`plan_request` /
  :func:`submit` expose the process-wide instance.
- ``repro.resilience`` — fault injection, failure detection and elastic
  replanning on the surviving cluster.
- ``repro.elastic`` — time-varying fleets: Poisson churn schedules,
  spot preemption and the replan-or-ride scale-up economics.
- ``repro.telemetry`` — metrics registry, span tracing, critical-path
  attribution.
"""

from . import (
    agent,
    cluster,
    elastic,
    graph,
    parallel,
    plan,
    profiling,
    resilience,
    runtime,
    scheduling,
    service,
    simulation,
    telemetry,
)
from .api import (
    Dataset,
    default_service,
    get_runner,
    parse_device_info,
    postmortem,
    service_status,
    submit,
)
from .api import plan as plan_request
from .config import HeteroGConfig
from .errors import (
    CompileError,
    DeviceLostError,
    GraphError,
    JournalSchemaError,
    OutOfMemoryError,
    PlacementError,
    ProfilingError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    SimulationError,
    StrategyError,
)
from .heterog import HeteroG
from .service import PlanningService, PlanRequest, PlanResult

__version__ = "1.0.0"

__all__ = [
    "get_runner",
    "Dataset",
    "parse_device_info",
    "HeteroG",
    "HeteroGConfig",
    "PlanningService",
    "PlanRequest",
    "PlanResult",
    "default_service",
    "plan_request",
    "submit",
    "service_status",
    "postmortem",
    "ReproError",
    "JournalSchemaError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceTimeoutError",
    "ServiceClosedError",
    "GraphError",
    "PlacementError",
    "CompileError",
    "SimulationError",
    "OutOfMemoryError",
    "DeviceLostError",
    "ProfilingError",
    "StrategyError",
    "graph",
    "cluster",
    "parallel",
    "scheduling",
    "agent",
    "plan",
    "profiling",
    "resilience",
    "elastic",
    "runtime",
    "service",
    "simulation",
    "telemetry",
    "__version__",
]
