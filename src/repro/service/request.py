"""Typed request/result surface of the planning service.

A :class:`PlanRequest` names *everything* that determines a planning
outcome — the computation graph, the cluster (or client ``device_info``
description), the search budget or the explicit strategy to build, and
the :class:`~repro.config.HeteroGConfig` (scheduler flag, seeds,
agent) — and derives two content fingerprints from it:

- ``context_key`` identifies the warm :class:`~repro.service.context.
  PlanContext` (graph + cluster + profile + config) the request is
  served on;
- ``fingerprint`` additionally covers the requested work (search budget
  or strategy, engine measurement), so two requests with equal
  fingerprints are guaranteed to produce bit-identical results — which
  is what makes the service's coalescing and result cache sound.

Everything client-facing validates in ``__post_init__`` and raises
:class:`~repro.errors.ReproError` subclasses only; stray ``ValueError``
/ ``KeyError`` from cluster parsing are wrapped at this boundary.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from ..config import HeteroGConfig
from ..errors import ReproError
from ..graph.dag import ComputationGraph
from ..parallel.strategy import Strategy
from ..plan import EvalOutcome, ExecutionPlan
from ..plan.fingerprint import (
    _cluster_payload,
    _digest,
    _graph_payload,
    _op_strategy_payload,
    _profile_payload,
)
from ..profiling.profiler import Profile


def _config_payload(config: HeteroGConfig) -> Any:
    """The configuration fields that influence planning results.

    The agent's ``seed`` is overridden by the config's own (see
    :class:`~repro.service.context.PlanContext`), so it does not split
    contexts; ``checkpoint_path`` never affects a result, and
    ``episodes`` enters the fingerprint as the search budget.  Every
    other agent field stays in the payload.
    """
    agent = dataclasses.asdict(config.agent)
    agent.pop("seed", None)
    return {
        "seed": config.seed,
        "profile_noise_sigma": config.profile_noise_sigma,
        "engine_jitter_sigma": config.engine_jitter_sigma,
        "agent": agent,
    }


@dataclass(frozen=True)
class PlanRequest:
    """One typed request to the planning service.

    ``strategy=None`` asks for a strategy *search* (up to ``max_rounds``
    batches of ``episodes`` RL episodes until a feasible strategy is
    found); an explicit ``strategy`` asks the service to *build* (and
    optionally engine-measure) that strategy's deployment.  Search
    settings — order scheduling, the agent — come from ``config``
    alone.
    """

    graph: ComputationGraph
    cluster: Any                     # Cluster or client device_info list
    strategy: Optional[Strategy] = None
    profile: Optional[Profile] = None
    episodes: Optional[int] = None   # search budget (default: config's)
    max_rounds: int = 3              # feasibility retries for searches
    measure_iterations: Optional[int] = None  # engine-measure the result
    priority: int = 0                # higher is served first
    timeout: Optional[float] = None  # seconds (queue wait + service)
    config: Optional[HeteroGConfig] = None
    label: str = ""                  # client tag (not fingerprinted)
    request_id: str = ""             # correlation id (auto-assigned)
    parent_id: str = ""              # enclosing request/episode scope

    def __post_init__(self) -> None:
        from ..api import parse_device_info  # lazy: api imports service
        from ..telemetry.context import current_request
        from ..telemetry.journal import new_request_id
        # correlation ids are observability-only: they never enter the
        # fingerprint, so coalescing and result caching stay sound
        if not self.request_id:
            object.__setattr__(self, "request_id", new_request_id("req"))
        if not self.parent_id:
            object.__setattr__(self, "parent_id", current_request() or "")
        if not isinstance(self.graph, ComputationGraph):
            raise ReproError(
                f"PlanRequest.graph must be a ComputationGraph, "
                f"got {type(self.graph).__name__}"
            )
        try:
            cluster = parse_device_info(self.cluster)
        except ReproError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise ReproError(f"invalid device_info: {exc}") from exc
        object.__setattr__(self, "cluster", cluster)
        if self.strategy is not None and not isinstance(self.strategy,
                                                        Strategy):
            raise ReproError(
                f"PlanRequest.strategy must be a Strategy or None, "
                f"got {type(self.strategy).__name__}"
            )
        object.__setattr__(self, "config",
                           self.config if self.config is not None
                           else HeteroGConfig())
        if self.episodes is not None and self.episodes < 1:
            raise ReproError(
                f"PlanRequest.episodes must be >= 1, got {self.episodes}")
        if self.max_rounds < 1:
            raise ReproError(
                f"PlanRequest.max_rounds must be >= 1, got {self.max_rounds}")
        if self.measure_iterations is not None \
                and self.measure_iterations < 1:
            raise ReproError(
                f"PlanRequest.measure_iterations must be >= 1, "
                f"got {self.measure_iterations}")
        if self.timeout is not None and self.timeout <= 0:
            raise ReproError(
                f"PlanRequest.timeout must be positive, got {self.timeout}")

    # ------------------------------------------------------------------ #
    @property
    def is_search(self) -> bool:
        return self.strategy is None

    @property
    def budget(self) -> int:
        """Resolved per-round episode budget for search requests."""
        return self.episodes if self.episodes is not None \
            else self.config.episodes

    # ------------------------------------------------------------------ #
    def _context_payload(self) -> Any:
        payload = {
            "graph": _graph_payload(self.graph),
            "cluster": _cluster_payload(self.cluster),
            "use_order_scheduling": bool(self.config.use_order_scheduling),
            "config": _config_payload(self.config),
        }
        if self.profile is not None:
            payload["profile"] = _profile_payload(self.profile)
        return payload

    @property
    def context_key(self) -> str:
        """Digest of the warm-context identity this request is served on."""
        cached = self.__dict__.get("_context_key")
        if cached is None:
            cached = _digest(self._context_payload())
            object.__setattr__(self, "_context_key", cached)
        return cached

    @property
    def fingerprint(self) -> str:
        """Digest of the full request (context + requested work)."""
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            if self.is_search:
                mode: Any = ("search", self.budget, self.max_rounds)
            else:
                mode = ("build", {
                    name: _op_strategy_payload(st)
                    for name, st in self.strategy.items()
                })
            cached = _digest({
                "context": self.context_key,
                "mode": mode,
                "measure": self.measure_iterations or 0,
            })
            object.__setattr__(self, "_fingerprint", cached)
        return cached


@dataclass
class PlanResult:
    """What the service returns for one :class:`PlanRequest`.

    ``deployment`` is ``None`` when the strategy was infeasible (build
    requests only — searches raise instead).  ``coalesced`` counts how
    many duplicate in-flight requests were folded into this computation
    beyond the first; ``from_cache`` marks results served from the
    service's completed-result cache without any new work.
    """

    fingerprint: str
    strategy: Strategy
    outcome: EvalOutcome
    deployment: Optional[ExecutionPlan]
    profile: Profile
    episodes: int = 0                # RL episodes actually trained
    reused_context: bool = False     # served on a pre-warmed context
    from_cache: bool = False
    coalesced: int = 0
    plan_cache_hits: int = 0         # cumulative, on the serving builder
    outcome_cache_hits: int = 0
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    measured_time: Optional[float] = None  # engine-measured s/iteration
    measured_oom: bool = False
    request_id: str = ""             # correlation id of the serving request

    @property
    def feasible(self) -> bool:
        return self.outcome.feasible and not self.measured_oom

    @property
    def time(self) -> float:
        """Best available per-iteration estimate (measured over simulated)."""
        if self.measured_time is not None:
            return self.measured_time
        return self.outcome.time

    def speed(self, global_batch: int) -> float:
        """Training speed in samples/sec (0.0 for infeasible plans)."""
        t = self.time
        if not self.feasible or t <= 0 or t == float("inf"):
            return 0.0
        return global_batch / t
