"""PlanBuilder: the one compile -> schedule -> simulate chain.

Every consumer that previously wired :class:`GraphCompiler`,
:class:`ListScheduler` and :class:`Simulator` together by hand (the
Strategy Maker's environment, the FlexFlow/Post baselines, deployment)
now asks a PlanBuilder instead.  The builder is bound to one
(graph, cluster, profile) context, memoizes plans and evaluation
outcomes by content fingerprint, and guarantees cached results are
bit-identical to fresh ones (the whole chain is deterministic).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from .. import telemetry
from ..cluster.topology import Cluster
from ..errors import CompileError, SimulationError
from ..telemetry.context import record_event
from ..graph.dag import ComputationGraph
from ..parallel.compiler import GraphCompiler
from ..parallel.distgraph import DistGraph
from ..parallel.strategy import Strategy
from ..profiling.profiler import Profile, Profiler
from ..scheduling.list_scheduler import FifoScheduler, ListScheduler
from ..simulation.costs import ProfileCostModel
from ..simulation.engine import Simulator
from ..simulation.kernel import PRUNE_GUARD, kernel_lower_bound, lower
from ..simulation.metrics import SimulationResult
from .cache import PlanCache
from .fingerprint import fingerprint_context, fingerprint_strategy
from .plan import EvalOutcome, ExecutionPlan
from .pruning import BestSoFar

DEFAULT_PLAN_CACHE = 64
DEFAULT_OUTCOME_CACHE = 4096


class PlanBuilder:
    """Builds and evaluates :class:`ExecutionPlan`s for one context."""

    def __init__(self, graph: ComputationGraph, cluster: Cluster,
                 profile: Optional[Profile] = None, *,
                 use_order_scheduling: bool = True,
                 group_of: Optional[Mapping[str, int]] = None,
                 plan_cache_size: int = DEFAULT_PLAN_CACHE,
                 outcome_cache_size: int = DEFAULT_OUTCOME_CACHE):
        self.graph = graph
        self.cluster = cluster
        self.profile = profile if profile is not None else Profiler().profile(
            graph, cluster
        )
        self.use_order_scheduling = use_order_scheduling
        self.group_of = dict(group_of) if group_of is not None else None
        self.cost = ProfileCostModel(cluster, self.profile)
        self.capacities: Dict[str, int] = {
            d.device_id: d.usable_memory_bytes for d in cluster.devices
        }
        self._scheduler = (ListScheduler() if use_order_scheduling
                           else FifoScheduler())
        self._simulator = Simulator(self.cost)
        # one compiler per context: its per-graph tables are built on the
        # first compile and shared by every later one
        self._compiler = GraphCompiler(cluster, self.profile,
                                       group_of=self.group_of)
        self.context_fingerprint = fingerprint_context(
            graph, cluster, self.profile,
            use_order_scheduling=use_order_scheduling, group_of=self.group_of,
        )
        self._plans = PlanCache(plan_cache_size, kind="plan")
        self._outcomes = PlanCache(outcome_cache_size, kind="outcome")
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
    def compile(self, strategy: Strategy) -> "tuple[DistGraph, Dict[str, int]]":
        """Compile only: the dist graph plus per-device resident bytes.

        Every call compiles afresh (no plan cache), through the context's
        one :class:`GraphCompiler`, whose per-graph tables persist across
        calls.  For consumers that post-process the dist graph (gradient
        fusion, pipeline transforms) before scheduling it themselves;
        standard consumers should use :meth:`build`.  The graph comes
        with its simulation kernel attached (``lower(dist)`` is free).
        """
        dist = self._compiler.compile(self.graph, strategy)
        return dist, dist.resident_bytes

    def build(self, strategy: Strategy,
              fingerprint: Optional[str] = None) -> ExecutionPlan:
        """Compile + schedule ``strategy`` into a cached ExecutionPlan.

        Raises :class:`CompileError` when the strategy cannot be
        compiled (``evaluate`` turns that into an infeasible outcome).
        """
        fp = fingerprint or self.fingerprint(strategy)
        plan, _ = self._build_or_prune(strategy, fp, limit=None)
        return plan

    def _build_or_prune(self, strategy: Strategy, fp: str, *,
                        limit: Optional[float]
                        ) -> "tuple[Optional[ExecutionPlan], Optional[EvalOutcome]]":
        """Build a plan, or stop early once it provably loses the race.

        Returns ``(plan, None)`` on a full build and ``(None, outcome)``
        when the candidate was pruned — either by the static
        :func:`kernel_lower_bound` before any simulation, or because
        both candidate-order simulations exceeded ``limit``.  Pruned
        builds are never installed in the plan cache (their schedule is
        partial); a cached plan is always served as-is.
        """
        cached = self._plans.get(fp)
        if cached is not None:
            return cached, None
        with telemetry.span("plan.build", graph=self.graph.name):
            dist, resident = self.compile(strategy)
            # the compile's array lowering serves ranking, both
            # candidate-order simulations, and every later simulation of
            # the cached plan
            kernel = lower(dist)
            if limit is not None:
                bound = kernel_lower_bound(kernel, self.cost)
                # violation beyond the fp guard margin only — a bound's
                # rounding may differ from the event loop's by ulps
                if bound is not None and bound > limit * (1.0 + PRUNE_GUARD):
                    return None, self._pruned_outcome(
                        stage="bound", bound=bound, threshold=limit,
                        dist_ops=len(dist))
            schedule = self._scheduler.schedule(
                dist, self.cost, kernel=kernel,
                resident_bytes=resident, capacities=self.capacities,
                prune_above=limit,
            )
            sim = schedule.sim_result
            if sim is not None and sim.pruned:
                return None, self._pruned_outcome(
                    stage="midsim", bound=sim.makespan, threshold=limit,
                    dist_ops=len(dist))
            plan = ExecutionPlan(
                graph=self.graph, cluster=self.cluster, strategy=strategy,
                dist=dist, schedule=schedule, resident_bytes=resident,
                capacities=self.capacities, profile=self.profile,
                fingerprint=fp, kernel=kernel,
                sim_result=schedule.sim_result,
            )
        self._plans.put(fp, plan)
        return plan, None

    def _pruned_outcome(self, *, stage: str, bound: float,
                        threshold: Optional[float],
                        dist_ops: int) -> EvalOutcome:
        telemetry.emit_count(
            "plan_pruned_total", labels={"stage": stage},
            help="candidates pruned against the best-so-far, by stage")
        record_event("candidate_pruned", stage=stage, bound=bound,
                     threshold=threshold)
        return EvalOutcome(time=float("inf"), oom=False, result=None,
                           dist_ops=dist_ops, pruned=True, bound=bound,
                           prune_stage=stage)

    # ------------------------------------------------------------------ #
    def simulate(self, plan: ExecutionPlan, *,
                 trace: bool = False,
                 prune_above: Optional[float] = None) -> SimulationResult:
        """Run the Strategy Maker's simulator over a plan.

        Plans built by this builder already carry the chosen order's
        simulation (``plan.sim_result``); call this only to re-simulate,
        e.g. after mutating the dist graph.  ``prune_above`` aborts the
        run once the simulated clock exceeds it (deterministic cost
        providers only) and returns a partial, ``pruned`` result.
        """
        kernel = plan.kernel
        if kernel is not None and kernel.version != plan.dist.version:
            kernel = None  # dist mutated since build: re-lower
        if not getattr(self.cost, "deterministic", False):
            prune_above = None
        return self._simulator.run(
            plan.dist,
            priorities=plan.schedule.priorities,
            resident_bytes=dict(plan.resident_bytes),
            capacities=dict(plan.capacities),
            trace=trace,
            kernel=kernel,
            prune_above=prune_above,
        )

    def evaluate(self, strategy: Strategy, *,
                 trace: bool = False,
                 best: Optional[BestSoFar] = None,
                 prune_above: Optional[float] = None) -> EvalOutcome:
        """Full evaluation with outcome memoization and pruning.

        Infeasible and OOM outcomes are cached like feasible ones: a
        strategy that failed to compile or overflowed memory is never
        rebuilt or re-simulated.  ``trace=True`` bypasses the outcome
        cache (the traced schedule is not retained in cached outcomes)
        but still reuses the plan cache.

        ``best`` / ``prune_above`` supply the branch-and-bound
        threshold: a candidate whose makespan provably exceeds it is cut
        short (static lower bound before any simulation, cooperative
        abort inside it) and returned as a ``pruned`` outcome — the
        surviving winner is bit-identical to an unpruned search.  Exact
        feasible results are observed back into ``best`` so the
        threshold tightens as the search progresses.
        """
        fp = self.fingerprint(strategy)
        limit = None if trace else self._prune_limit(best, prune_above)
        if not trace:
            cached = self.cached_outcome(fp, limit=limit, best=best)
            if cached is not None:
                return cached
        self.evals_total += 1
        outcome = self._evaluate_fresh(strategy, fp, trace=trace,
                                       limit=limit)
        if not trace and (not outcome.pruned
                          or outcome.prune_stage == "bound"):
            # mid-sim-pruned outcomes are threshold-dependent (the
            # partial clock depends on where the abort landed) and are
            # never cached; the static bound is a property of the
            # candidate alone and is safe to keep
            self._outcomes.put(fp, outcome)
        if outcome.pruned:
            self.evals_pruned += 1
            self._observe_pruned_fraction()
        elif best is not None and outcome.feasible:
            best.observe(outcome.time)
        record_event("candidate_evaluated", feasible=outcome.feasible,
                     time=outcome.time, cached=False)
        return outcome

    def evaluate_many(self, strategies: Sequence[Strategy], *,
                      best: Optional[BestSoFar] = None,
                      prune_above: Optional[float] = None
                      ) -> List[EvalOutcome]:
        """Evaluate a population of candidates, in input order.

        The single population entry point: every consumer that
        evaluates a population of candidates (CEM rounds, the FlexFlow
        seeding sweep) routes through here.  Duplicate strategies are
        evaluated once and fanned out; every distinct candidate is one
        :meth:`evaluate` call in input order, so outcome caching,
        pruning and best-so-far observation behave exactly as in a
        serial loop.  ``prune_above`` is one hard cap for the whole
        population.
        """
        fps = [self.fingerprint(s) for s in strategies]
        done: Dict[str, EvalOutcome] = {}
        for strategy, fp in zip(strategies, fps):
            if fp not in done:
                done[fp] = self.evaluate(strategy, best=best,
                                         prune_above=prune_above)
        return [done[fp] for fp in fps]

    def cached_outcome(self, fp: str, *,
                       limit: Optional[float] = None,
                       best: Optional[BestSoFar] = None
                       ) -> Optional[EvalOutcome]:
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
        if cached.pruned and (
                limit is None or cached.bound is None
                or not cached.bound > limit * (1.0 + PRUNE_GUARD)):
            return None
        self.evals_total += 1
        if cached.pruned:
            self.evals_pruned += 1
            self._observe_pruned_fraction()
        elif best is not None and cached.feasible:
            best.observe(cached.time)
        record_event("candidate_evaluated", feasible=cached.feasible,
                     time=cached.time, cached=True)
        return cached

    def _prune_limit(self, best: Optional[BestSoFar],
                     prune_above: Optional[float]) -> Optional[float]:
        limit = float("inf") if prune_above is None else prune_above
        if best is not None:
            threshold = best.threshold()
            if threshold < limit:
                limit = threshold
        return None if limit == float("inf") else limit

    def _observe_pruned_fraction(self) -> None:
        telemetry.emit_gauge(
            "plan_pruned_fraction",
            self.evals_pruned / self.evals_total,
            help="fraction of candidate evaluations pruned (this builder)")

    def _evaluate_fresh(self, strategy: Strategy, fp: str, *,
                        trace: bool, limit: Optional[float] = None
                        ) -> EvalOutcome:
        try:
            plan, pruned = self._build_or_prune(strategy, fp, limit=limit)
        except CompileError:
            return EvalOutcome(time=float("inf"), oom=False, result=None,
                               dist_ops=0, infeasible=True)
        if pruned is not None:
            return pruned
        # single-pass scheduling: the winner of the scheduler's candidate
        # race was already simulated (traced, under this plan's resident
        # bytes and capacities) — reuse it instead of a third simulation
        result = plan.sim_result
        if result is None:
            try:
                result = self.simulate(plan, trace=trace, prune_above=limit)
            except SimulationError:
                return EvalOutcome(time=float("inf"), oom=False, result=None,
                                   dist_ops=plan.num_dist_ops,
                                   infeasible=True)
            if result.pruned:
                return self._pruned_outcome(
                    stage="midsim", bound=result.makespan, threshold=limit,
                    dist_ops=plan.num_dist_ops)
        return EvalOutcome(
            time=result.makespan,
            oom=result.oom,
            result=result,
            dist_ops=plan.num_dist_ops,
        )
