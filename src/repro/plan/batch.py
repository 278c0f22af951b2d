"""BatchEvaluator: evaluate many candidate strategies concurrently.

Strategy search is dominated by evaluator throughput (thousands of
candidates per search).  The canonical population entry point is
:meth:`PlanBuilder.evaluate_many` — dedupe, then one serial sweep in
input order.  The BatchEvaluator is the multi-context / multi-process
front end over it: ``evaluate`` and
``evaluate_pairs`` are two adapters over **one** implementation
(``evaluate`` wraps each strategy with its context and delegates to
``evaluate_pairs``; both return outcomes in input order) which fans
candidates over a process pool while keeping the results bit-identical
to the serial path:

- results come back in input order, regardless of completion order;
- every worker runs the exact deterministic PlanBuilder chain, so a
  parallel evaluation equals a serial one value-for-value;
- duplicate candidates inside one batch are evaluated once;
- outcomes already cached by the parent builder are served without
  touching the pool, and fresh worker results are folded back into the
  parent's outcome cache;
- ``max_workers=1`` (the default) bypasses multiprocessing entirely, and
  any pool failure (restricted sandboxes, missing semaphores) degrades
  to the serial path instead of erroring.

Workers are primed once with the evaluation context(s) — graph, cluster,
profile, scheduler flags — via the pool initializer; per-task payloads
are only the portable dict form of each strategy.

When a planning-service **fleet** backend is live in this process
(``repro.service.backends.active_fleet()``), the evaluator borrows the
fleet's persistent workers for its fan-out instead of opening a second
private pool — same priming contract (contexts keyed by their content
digest), same ordering guarantee, with graceful fallback to the private
pool or serial path if the fleet refuses (closing, lost workers, ...).
"""

from __future__ import annotations

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..parallel.serialize import strategy_from_dict, strategy_to_dict
from ..parallel.strategy import Strategy
from .builder import PlanBuilder
from .plan import EvalOutcome
from .pruning import BestSoFar

DEFAULT_CONTEXT = "default"

#: best-so-far for one batch: a single tracker, or one tracker per
#: context for mixed-context batches (missing contexts are unpruned)
BestMap = Union[BestSoFar, Mapping[str, BestSoFar]]

# Per-process evaluation contexts, installed by the pool initializer.
_WORKER_BUILDERS: Dict[str, PlanBuilder] = {}


def _init_worker(payloads: Dict[str, tuple]) -> None:
    _WORKER_BUILDERS.clear()
    for name, (graph, cluster, profile, order, group_of) in payloads.items():
        _WORKER_BUILDERS[name] = PlanBuilder(
            graph, cluster, profile,
            use_order_scheduling=order, group_of=group_of,
        )


def _worker_evaluate(context: str, strategy_dict: dict,
                     prune_above: Optional[float] = None,
                     prune: bool = True) -> EvalOutcome:
    builder = _WORKER_BUILDERS[context]
    strategy = strategy_from_dict(strategy_dict, builder.graph,
                                  builder.cluster)
    return builder.evaluate(strategy, prune=prune, prune_above=prune_above)


def _best_for(best: Optional[BestMap], context: str) -> Optional[BestSoFar]:
    if best is None or isinstance(best, BestSoFar):
        return best
    return best.get(context)


class BatchEvaluator:
    """Evaluates batches of strategies against one or more PlanBuilders."""

    def __init__(self,
                 builders: Union[PlanBuilder, Mapping[str, PlanBuilder]], *,
                 max_workers: int = 1):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if isinstance(builders, PlanBuilder):
            builders = {DEFAULT_CONTEXT: builders}
        if not builders:
            raise ValueError("BatchEvaluator needs at least one PlanBuilder")
        self._builders: Dict[str, PlanBuilder] = dict(builders)
        self.max_workers = max_workers
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    # ------------------------------------------------------------------ #
    def evaluate(self, strategies: Sequence[Strategy],
                 context: Optional[str] = None, *,
                 best: Optional[BestMap] = None,
                 prune: bool = True) -> List[EvalOutcome]:
        """Evaluate candidates for one context, preserving input order."""
        if context is None:
            if len(self._builders) != 1:
                raise ValueError(
                    "multiple contexts registered; pass context= explicitly"
                )
            context = next(iter(self._builders))
        return self.evaluate_pairs([(context, s) for s in strategies],
                                   best=best, prune=prune)

    def evaluate_pairs(self, pairs: Sequence[Tuple[str, Strategy]], *,
                       best: Optional[BestMap] = None,
                       prune: bool = True) -> List[EvalOutcome]:
        """Evaluate (context, strategy) pairs, preserving input order.

        ``best`` threads the search's :class:`BestSoFar` threshold(s)
        into every path (serial, private pool, fleet borrow); exact
        feasible results are observed back into it, each exactly once.
        The guarantee under pruning is *winner identity*: the candidate
        an argmin over these outcomes selects — and its outcome — is
        bit-identical to ``prune=False``; losing candidates may come
        back as ``pruned`` outcomes instead of full ones.
        """
        results: List[Optional[EvalOutcome]] = [None] * len(pairs)
        # (context, fingerprint) -> indices awaiting that evaluation
        pending: Dict[Tuple[str, str], List[int]] = {}
        todo: List[Tuple[str, Strategy, str]] = []
        for i, (context, strategy) in enumerate(pairs):
            builder = self._builders[context]
            fp = builder.fingerprint(strategy)
            key = (context, fp)
            if key in pending:
                pending[key].append(i)
                continue
            tracker = _best_for(best, context) if prune else None
            limit = builder._prune_limit(tracker, None) if prune else None
            cached = builder.cached_outcome(fp, limit=limit, best=tracker)
            if cached is not None:
                results[i] = cached
                continue
            pending[key] = [i]
            todo.append((context, strategy, fp))

        if todo:
            outcomes = self._evaluate_unique(todo, best=best, prune=prune)
            for (context, _, fp), outcome in zip(todo, outcomes):
                self._builders[context].seed_outcome(fp, outcome)
                for i in pending[(context, fp)]:
                    results[i] = outcome
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    def _evaluate_unique(self, todo: Sequence[Tuple[str, Strategy, str]], *,
                         best: Optional[BestMap] = None,
                         prune: bool = True) -> List[EvalOutcome]:
        if self.max_workers == 1 or len(todo) == 1:
            return self._evaluate_serial(todo, best=best, prune=prune)
        borrowed = self._evaluate_on_fleet(todo, best=best, prune=prune)
        if borrowed is not None:
            return borrowed
        try:
            pool = self._ensure_pool()
            # pool workers cannot share the tracker object, so each task
            # carries a float snapshot of the threshold at submit time;
            # results are observed back here (the workers never do)
            futures = []
            for context, strategy, _ in todo:
                tracker = _best_for(best, context) if prune else None
                limit = (self._builders[context]._prune_limit(tracker, None)
                         if prune else None)
                futures.append(pool.submit(
                    _worker_evaluate, context, strategy_to_dict(strategy),
                    limit, prune))
            outcomes = [f.result() for f in futures]
        except (OSError, RuntimeError, BrokenProcessPool):
            # restricted environments (no /dev/shm, fork disabled, ...)
            self.close()
            return self._evaluate_serial(todo, best=best, prune=prune)
        if best is not None and prune:
            for (context, _, _), outcome in zip(todo, outcomes):
                tracker = _best_for(best, context)
                if tracker is not None and outcome.feasible:
                    tracker.observe(outcome.time)
        return outcomes

    def _evaluate_on_fleet(self, todo: Sequence[Tuple[str, Strategy, str]],
                           *, best: Optional[BestMap] = None,
                           prune: bool = True
                           ) -> Optional[List[EvalOutcome]]:
        """Borrow a live planning-fleet's workers, if one is running.

        Returns ``None`` (fall through to the private pool) when no
        fleet is active or the fleet refuses the batch — the caller's
        ordering/caching semantics never depend on the borrow working.
        """
        # lazy import: repro.service imports the plan layer, so the
        # module-level direction must stay plan <- service only
        from ..errors import ReproError
        from ..service.backends import active_fleet

        fleet = active_fleet()
        if fleet is None:
            return None
        used = {context for context, _, _ in todo}
        digests = {name: b.context_fingerprint
                   for name, b in self._builders.items() if name in used}
        payloads = {
            name: (b.graph, b.cluster, b.profile,
                   b.use_order_scheduling, b.group_of)
            for name, b in self._builders.items() if name in used
        }
        items = [(context, strategy_to_dict(strategy))
                 for context, strategy, _ in todo]
        trackers: Optional[Dict[str, BestSoFar]] = None
        if prune and best is not None:
            trackers = {}
            for name in used:
                tracker = _best_for(best, name)
                if tracker is not None:
                    trackers[name] = tracker
            trackers = trackers or None
        try:
            return fleet.evaluate_batch(payloads, digests, items,
                                        best=trackers, prune=prune)
        except ReproError:
            return None

    def _evaluate_serial(self, todo: Sequence[Tuple[str, Strategy, str]], *,
                         best: Optional[BestMap] = None,
                         prune: bool = True) -> List[EvalOutcome]:
        # one evaluate_many per context, each in input order
        results: List[Optional[EvalOutcome]] = [None] * len(todo)
        by_context: Dict[str, List[int]] = {}
        for i, (context, _, _) in enumerate(todo):
            by_context.setdefault(context, []).append(i)
        for context, idxs in by_context.items():
            outcomes = self._builders[context].evaluate_many(
                [todo[i][1] for i in idxs],
                best=_best_for(best, context) if prune else None,
                prune=prune)
            for i, outcome in zip(idxs, outcomes):
                results[i] = outcome
        return results  # type: ignore[return-value]

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            payloads = {
                name: (b.graph, b.cluster, b.profile,
                       b.use_order_scheduling, b.group_of)
                for name, b in self._builders.items()
            }
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_worker,
                initargs=(payloads,),
            )
        return self._pool

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "BatchEvaluator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
