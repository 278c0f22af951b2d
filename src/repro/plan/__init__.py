"""``repro.plan`` — the cached ExecutionPlan layer.

One immutable artifact, :class:`ExecutionPlan` (DistGraph + schedule
priorities + resident bytes + capacities + a content-addressed
fingerprint), is the single currency between compilation, scheduling,
simulation and deployment:

- :class:`PlanBuilder` produces plans for one (graph, cluster, profile)
  context and memoizes both plans and :class:`EvalOutcome`s in
  fingerprint-keyed LRUs (:class:`PlanCache`), so repeated strategies in
  REINFORCE episodes, MCMC walks and seed re-evaluations are free;
- :meth:`PlanBuilder.evaluate` and :meth:`PlanBuilder.evaluate_many`
  are the only ways to evaluate candidates, each under one float prune
  limit: ``evaluate(prune_above=)`` takes it from the caller, and
  ``evaluate_many(keep=k)`` evaluates duplicates once and runs the
  distinct candidates serially, in input order, each cut at the k-th
  best exact makespan seen so far in the call.

Cache behaviour is observable through the ``plan_cache_hits_total`` and
``plan_cache_misses_total`` telemetry counters.
"""

from .builder import PlanBuilder
from .cache import PlanCache
from .fingerprint import (
    fingerprint_context,
    fingerprint_strategy,
)
from .plan import EvalOutcome, ExecutionPlan

__all__ = [
    "EvalOutcome",
    "ExecutionPlan",
    "PlanBuilder",
    "PlanCache",
    "fingerprint_context",
    "fingerprint_strategy",
]
