"""PlanBuilder: the one compile -> schedule -> simulate chain.

Every consumer that previously wired :class:`GraphCompiler`,
:class:`ListScheduler` and :class:`Simulator` together by hand (the
Strategy Maker's environment, the FlexFlow/Post baselines, deployment)
now asks a PlanBuilder instead.  The builder is bound to one
(graph, cluster, profile) context, memoizes plans and evaluation
outcomes by content fingerprint, and guarantees cached results are
bit-identical to fresh ones (the whole chain is deterministic).

It keeps the plans it serves and its best ones: every plan
:meth:`PlanBuilder.build` returns, plus each evaluated plan that is
feasible and no slower than every plan evaluated before it, so a
search's winner is a plan-cache hit for the build that deploys it.  Every
other evaluated plan is dropped once its scalar outcome is taken.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..cluster.topology import Cluster
from ..errors import CompileError
from ..telemetry.context import record_event
from ..graph.dag import ComputationGraph
from ..parallel.compiler import GraphCompiler
from ..parallel.distgraph import DistGraph
from ..parallel.strategy import Strategy
from ..profiling.profiler import Profile, Profiler
from ..scheduling.list_scheduler import FifoScheduler, ListScheduler
from ..simulation.costs import ProfileCostModel
from ..simulation.engine import Simulator
from ..simulation.kernel import (PRUNE_GUARD, LoadExceeded,
                                 kernel_lower_bound, lower)
from .cache import PlanCache
from .fingerprint import fingerprint_context, fingerprint_strategy
from .plan import EvalOutcome, ExecutionPlan

PLAN_CACHE_SIZE = 64
OUTCOME_CACHE_SIZE = 4096


def _exceeds(bound: float, limit: float) -> bool:
    """``bound`` proves a loss against ``limit``: it violates it beyond
    the fp guard margin, since a bound's rounding may differ from the
    event loop's by ulps."""
    return bound > limit * (1.0 + PRUNE_GUARD)


class PlanBuilder:
    """Builds and evaluates :class:`ExecutionPlan`s for one context."""

    def __init__(self, graph: ComputationGraph, cluster: Cluster,
                 profile: Optional[Profile] = None, *,
                 use_order_scheduling: bool = True):
        self.graph = graph
        self.cluster = cluster
        self.profile = profile if profile is not None else Profiler().profile(
            graph, cluster
        )
        self.use_order_scheduling = use_order_scheduling
        self.cost = ProfileCostModel(cluster, self.profile)
        self.capacities: Dict[str, int] = {
            d.device_id: d.usable_memory_bytes for d in cluster.devices
        }
        self._scheduler = (ListScheduler() if use_order_scheduling
                           else FifoScheduler())
        self._simulator = Simulator(self.cost)
        # one compiler per context: its per-graph tables are built on the
        # first compile and shared by every later one
        self._compiler = GraphCompiler(self.cost)
        self.context_fingerprint = fingerprint_context(
            graph, cluster, self.profile,
            use_order_scheduling=use_order_scheduling,
        )
        self._plans = PlanCache(PLAN_CACHE_SIZE, kind="plan")
        self._outcomes = PlanCache(OUTCOME_CACHE_SIZE, kind="outcome")
        # fastest feasible makespan evaluated so far: an evaluated plan
        # is kept only when it beats this
        self._best_time = float("inf")
        # pruning observability: outcomes served (fresh or cached, each
        # counted once) vs the pruned ones among them
        self.evals_total = 0
        self.evals_pruned = 0

    # ------------------------------------------------------------------ #
    def fingerprint(self, strategy: Strategy) -> str:
        """Content fingerprint of ``strategy`` within this context."""
        return fingerprint_strategy(self.context_fingerprint, strategy)

    @property
    def plan_cache(self) -> PlanCache:
        return self._plans

    @property
    def outcome_cache(self) -> PlanCache:
        return self._outcomes

    # ------------------------------------------------------------------ #
    def compile(self, strategy: Strategy, prune_above: Optional[float] = None
                ) -> "tuple[DistGraph, Dict[str, int]]":
        """Compile only: the dist graph plus per-device resident bytes.

        Every call compiles afresh (no plan cache), through the context's
        one :class:`GraphCompiler`, whose per-graph tables persist across
        calls.  For consumers that post-process the dist graph (the
        pipeline transform) before scheduling it themselves;
        standard consumers should use :meth:`build`.  The graph comes
        with its simulation kernel attached (``lower(dist)`` is free),
        priced under :attr:`cost`.  With ``prune_above``, the compile
        raises :class:`LoadExceeded` once one resource's load proves
        the makespan exceeds it (beyond :data:`PRUNE_GUARD`).
        """
        dist = self._compiler.compile(self.graph, strategy,
                                      prune_above=prune_above)
        return dist, dist.resident_bytes

    def build(self, strategy: Strategy) -> ExecutionPlan:
        """Compile + schedule ``strategy`` into a cached ExecutionPlan.

        Raises :class:`CompileError` when the strategy cannot be
        compiled, after caching the infeasible outcome ``evaluate``
        serves for it, so evaluating it next compiles nothing.
        """
        fp = self.fingerprint(strategy)
        try:
            plan, _ = self._build_or_prune(strategy, fp, limit=None)
        except CompileError:
            self._outcomes.put(fp, EvalOutcome(
                time=float("inf"), dist_ops=0, infeasible=True))
            raise
        self._plans.put(fp, plan)
        return plan

    def _build_or_prune(self, strategy: Strategy, fp: str, *,
                        limit: Optional[float]
                        ) -> "tuple[Optional[ExecutionPlan], Optional[EvalOutcome]]":
        """Build a plan, or stop early once it provably loses the race.

        Returns ``(plan, None)`` on a full build and ``(None, outcome)``
        when the candidate was pruned — either by the static
        :func:`kernel_lower_bound` before any simulation (its
        busiest-resource term already while compiling, once the loads
        of the ops emitted so far exceed ``limit``), or because
        the chosen order's simulation exceeded ``limit`` (both
        candidate orders', under order scheduling).  A cached plan is
        served as-is; a fresh one is left for the caller to cache.
        """
        cached = self._plans.get(fp)
        if cached is not None:
            return cached, None
        with telemetry.span("plan.build", graph=self.graph.name):
            try:
                dist, resident = self.compile(strategy, prune_above=limit)
            except LoadExceeded as cut:
                return None, self._pruned_outcome(
                    stage="bound", bound=cut.bound, threshold=limit,
                    dist_ops=cut.emitted)
            # the compile's priced array lowering serves the bound,
            # ranking, the order's simulations, and every later
            # simulation of the cached plan
            kernel = lower(dist)
            if limit is not None:
                bound = kernel_lower_bound(kernel, self.cost, limit)
                if bound is not None and _exceeds(bound, limit):
                    return None, self._pruned_outcome(
                        stage="bound", bound=bound, threshold=limit,
                        dist_ops=len(dist))
            schedule = self._scheduler.schedule(
                dist, self.cost, kernel=kernel,
                resident_bytes=resident, capacities=self.capacities,
                prune_above=limit,
            )
            sim = schedule.sim_result
            if sim is None:
                # the FIFO order races no candidates: simulate it once
                sim = self._simulator.run(
                    dist, order=schedule.order,
                    resident_bytes=resident, capacities=self.capacities,
                    kernel=kernel, prune_above=limit)
            if sim.pruned:
                return None, self._pruned_outcome(
                    stage="midsim", bound=sim.makespan, threshold=limit,
                    dist_ops=len(dist))
            plan = ExecutionPlan(
                graph=self.graph, cluster=self.cluster, strategy=strategy,
                dist=dist, schedule=schedule, resident_bytes=resident,
                capacities=self.capacities, profile=self.profile,
                fingerprint=fp, kernel=kernel, sim_result=sim,
            )
        return plan, None

    def _pruned_outcome(self, *, stage: str, bound: float,
                        threshold: Optional[float],
                        dist_ops: int) -> EvalOutcome:
        telemetry.emit_count(
            "plan_pruned_total", labels={"stage": stage},
            help="candidates pruned against the best-so-far, by stage")
        record_event("candidate_pruned", stage=stage, bound=bound,
                     threshold=threshold, dist_ops=dist_ops)
        return EvalOutcome(time=float("inf"), dist_ops=dist_ops,
                           pruned=True, bound=bound, prune_stage=stage)

    # ------------------------------------------------------------------ #
    def evaluate(self, strategy: Strategy, *,
                 prune_above: Optional[float] = None) -> EvalOutcome:
        """Full evaluation with outcome memoization and pruning.

        Infeasible and OOM outcomes are cached like feasible ones: a
        strategy that failed to compile or overflowed memory is never
        rebuilt or re-simulated.

        ``prune_above`` is the branch-and-bound threshold: a candidate
        whose makespan provably exceeds it is cut short (static lower
        bound before any simulation, cooperative abort inside it) and
        returned as a ``pruned`` outcome; one that does not is
        bit-identical to an unpruned evaluation.
        """
        return self._evaluate(strategy, self.fingerprint(strategy),
                              prune_above)

    def _evaluate(self, strategy: Strategy, fp: str,
                  limit: Optional[float]) -> EvalOutcome:
        """:meth:`evaluate` of ``strategy``, whose fingerprint is ``fp``."""
        if limit == float("inf"):
            limit = None
        cached = self._cached_outcome(fp, limit)
        if cached is not None:
            return cached
        self.evals_total += 1
        outcome = self._evaluate_fresh(strategy, fp, limit=limit)
        if not outcome.pruned or outcome.prune_stage == "bound":
            # mid-sim-pruned outcomes are threshold-dependent (the
            # partial clock depends on where the abort landed) and are
            # never cached; the static bound is a property of the
            # candidate alone and is safe to keep
            self._outcomes.put(fp, outcome)
        if outcome.pruned:
            self.evals_pruned += 1
            self._observe_pruned_fraction()
        record_event("candidate_evaluated", feasible=outcome.feasible,
                     time=outcome.time, cached=False)
        return outcome

    def evaluate_many(self, strategies: Sequence[Strategy], *,
                      keep: Optional[int] = None) -> List[EvalOutcome]:
        """Evaluate a population of candidates, in input order.

        The single population entry point: every consumer that
        evaluates a population of candidates (CEM rounds, the FlexFlow
        seeding sweep) routes through here.  Duplicate strategies are
        evaluated once and fanned out; every distinct candidate goes
        through the same path as :meth:`evaluate`, in input order and
        with its fingerprint computed once.

        ``keep=k`` prunes each distinct candidate at the k-th best exact
        feasible makespan seen so far in this call (no limit until k
        have been seen): a candidate cut there can enter neither the k
        best nor take the lead.  Pruning compares strictly, so ties
        survive, and the k best are bit-identical to an unpruned sweep.
        """
        if keep is not None and keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        fps = [self.fingerprint(s) for s in strategies]
        done: Dict[str, EvalOutcome] = {}
        # max-heap (negated) of the ``keep`` best exact times so far
        kept: List[float] = []
        for strategy, fp in zip(strategies, fps):
            if fp in done:
                continue
            full = keep is not None and len(kept) == keep
            outcome = done[fp] = self._evaluate(
                strategy, fp, -kept[0] if full else None)
            if keep is None or not outcome.feasible:
                continue
            if full:
                heapq.heappushpop(kept, -outcome.time)
            else:
                heapq.heappush(kept, -outcome.time)
        return [done[fp] for fp in fps]

    def _cached_outcome(self, fp: str,
                        limit: Optional[float]) -> Optional[EvalOutcome]:
        """Prune-aware outcome-cache lookup.

        Exact cached outcomes are always served.  A cached *pruned*
        outcome is only served when its recorded lower bound still
        exceeds the caller's current threshold (true time >= bound >
        limit, so the candidate would be pruned again); under a looser
        or absent threshold it is a cache miss — the caller must
        re-evaluate, since the candidate might now be the winner.
        """
        cached = self._outcomes.get(fp)
        if cached is None:
            return None
        if cached.pruned and (limit is None or cached.bound is None
                              or not _exceeds(cached.bound, limit)):
            return None
        self.evals_total += 1
        if cached.pruned:
            self.evals_pruned += 1
            self._observe_pruned_fraction()
        record_event("candidate_evaluated", feasible=cached.feasible,
                     time=cached.time, cached=True)
        return cached

    def _observe_pruned_fraction(self) -> None:
        telemetry.emit_gauge(
            "plan_pruned_fraction",
            self.evals_pruned / self.evals_total,
            help="fraction of candidate evaluations pruned (this builder)")

    def _evaluate_fresh(self, strategy: Strategy, fp: str, *,
                        limit: Optional[float]) -> EvalOutcome:
        try:
            plan, pruned = self._build_or_prune(strategy, fp, limit=limit)
        except CompileError:
            return EvalOutcome(time=float("inf"), dist_ops=0,
                               infeasible=True)
        if pruned is not None:
            return pruned
        # the plan already carries its order's simulation, under its
        # resident bytes and capacities; the outcome keeps its scalars
        result = plan.sim_result
        outcome = EvalOutcome(
            time=result.makespan, dist_ops=plan.num_dist_ops,
            peak_memory=result.peak_memory, oom_devices=result.oom_devices)
        # a search's winner is one of these: a search keeps the first of
        # equal times, except that a group-action candidate beats the
        # raw ladder evaluated before it, so a tie is kept too.  Every
        # losing plan is dropped here
        if outcome.feasible and outcome.time <= self._best_time:
            self._best_time = outcome.time
            self._plans.put(fp, plan)
        return outcome
