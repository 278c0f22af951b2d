"""``repro.plan`` — the cached ExecutionPlan layer.

One immutable artifact, :class:`ExecutionPlan` (DistGraph + schedule
priorities + resident bytes + capacities + a content-addressed
fingerprint), is the single currency between compilation, scheduling,
simulation and deployment:

- :class:`PlanBuilder` produces plans for one (graph, cluster, profile)
  context and memoizes both plans and :class:`EvalOutcome`s in
  fingerprint-keyed LRUs (:class:`PlanCache`), so repeated strategies in
  REINFORCE episodes, MCMC walks and seed re-evaluations are free;
- :meth:`PlanBuilder.evaluate_many` is the canonical population entry
  point: duplicates are evaluated once, and the distinct candidates run
  in input order against the shared best-so-far;
- :class:`BatchEvaluator` is the multi-context / multi-process front
  end over ``evaluate_many``, with deterministic, input-ordered results
  (``max_workers=1`` falls back to the serial path).

Cache behaviour is observable through the ``plan_cache_hits_total`` and
``plan_cache_misses_total`` telemetry counters.
"""

from .batch import BatchEvaluator
from .builder import PlanBuilder
from .cache import PlanCache
from .fingerprint import (
    fingerprint_cluster,
    fingerprint_context,
    fingerprint_strategy,
)
from .plan import EvalOutcome, ExecutionPlan
from .pruning import BestSoFar

__all__ = [
    "BatchEvaluator",
    "BestSoFar",
    "EvalOutcome",
    "ExecutionPlan",
    "PlanBuilder",
    "PlanCache",
    "fingerprint_cluster",
    "fingerprint_context",
    "fingerprint_strategy",
]
