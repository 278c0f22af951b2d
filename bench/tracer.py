"""In-memory span recorder for the traced benchmark run.

The recorder wraps public entry points of the planner from the outside
(no span code lives in the program): each wrapped call records one span
(name, start, end, parent, request) in memory, and a few wrappers
also count what the call returned (dist ops compiled, lanes bounded,
pruned outcomes, cache hits).  Functions that other modules imported by
name (``lower``, ``kernel_lower_bound``, ``group_operations``) are
replaced in every ``repro`` module that holds them.

An entry point that no longer exists is reported as an absent layer
with a warning; the run goes on.  Spans are written to JSON when the
run ends, and :func:`rollup` computes per-layer self time from that
file: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import warnings
from collections import Counter
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

# (layer, module, attribute).  Two entries may share a layer name.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("agent.episode", "repro.agent.reinforce", "ReinforceTrainer.train_episode"),
    ("agent.forward", "repro.agent.policy", "PolicyNetwork.sample"),
    ("agent.backward", "repro.nn.tensor", "Tensor.backward"),
    ("agent.optimizer", "repro.nn.optim", "Adam.step"),
    ("graph.group", "repro.graph.grouping", "group_operations"),
    ("profiling.profile", "repro.profiling.profiler", "Profiler.profile"),
    ("parallel.compile", "repro.parallel.compiler", "GraphCompiler.compile"),
    ("parallel.validate", "repro.parallel.distgraph", "DistGraph.validate"),
    ("simulation.lower", "repro.simulation.kernel", "lower"),
    ("simulation.kernel_bound", "repro.simulation.kernel",
     "kernel_lower_bound"),
    ("simulation.lane_bounds", "repro.simulation.batch", "LanePlanner.bounds"),
    ("simulation.run", "repro.simulation.engine", "Simulator.run"),
    ("scheduling.schedule", "repro.scheduling.list_scheduler",
     "ListScheduler.schedule"),
    ("scheduling.schedule", "repro.scheduling.list_scheduler",
     "FifoScheduler.schedule"),
    ("plan.evaluate", "repro.plan.builder", "PlanBuilder.evaluate"),
    ("plan.evaluate_many", "repro.plan.builder", "PlanBuilder.evaluate_many"),
    ("plan.cache", "repro.plan.cache", "PlanCache.get"),
    ("service.plan", "repro.service.service", "PlanningService.plan"),
    ("service.context", "repro.service.context", "PlanContext.handle"),
    ("runtime.iteration", "repro.runtime.execution_engine",
     "ExecutionEngine.run_iteration"),
    ("resilience.replan", "repro.resilience.replan", "Replanner.replan"),
    ("resilience.run", "repro.resilience.controller", "ResilientTrainer.run"),
    ("baselines.cem", "repro.baselines.post", "PostSearch.search"),
)

# Called far too often to be worth a span: counted only.
COUNT_ONLY = frozenset({"plan.cache"})
ROOT_SPAN = "request"
_EVALUATE = ("plan.evaluate", "plan.evaluate_many")

# Layers reported by self time, and layers reported by call count.
SELF_S_LAYERS = (
    "agent.forward", "agent.backward", "agent.optimizer", "agent.episode",
    "graph.group", "profiling.profile", "parallel.compile",
    "parallel.validate", "simulation.lower", "simulation.run",
    "scheduling.schedule", "plan.evaluate_many", "simulation.lane_bounds",
    "simulation.kernel_bound", "plan.evaluate", "service.plan",
    "service.context", "runtime.iteration", "resilience.run",
    "baselines.cem", ROOT_SPAN)
CALLS_LAYERS = (
    "parallel.compile", "simulation.run", "scheduling.schedule",
    "plan.evaluate_many", "plan.evaluate", "runtime.iteration",
    "resilience.replan")
PRUNE_STAGES = ("prebound", "bound", "midsim")

# Every per-layer metric: name -> (unit, better).  Values are per
# request unless they are ratios.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{f"{layer}.self_s": ("s", "lower") for layer in SELF_S_LAYERS},
    **{f"{layer}.calls": ("count", "lower") for layer in CALLS_LAYERS},
    "parallel.dist_ops": ("count", "lower"),
    "plan.evaluate_many.lanes": ("count", "higher"),
    "simulation.lane_bounds.kill_ratio": ("ratio", "higher"),
    **{f"plan.pruned_ratio.{stage}": ("ratio", "higher")
       for stage in PRUNE_STAGES},
    "plan.outcome_hit_ratio": ("ratio", "higher"),
    "plan.plan_hit_ratio": ("ratio", "higher"),
    "service.result_hit_ratio": ("ratio", "higher"),
    "service.executed": ("count", "lower"),
    "resilience.replan.s": ("s", "lower"),
    "runtime.iteration.s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class SpanRecorder:
    """Records spans and counts for the calls of one benchmark pass."""

    def __init__(self, entry_points: Sequence[Tuple[str, str, str]]
                 = ENTRY_POINTS):
        self.entry_points = tuple(entry_points)
        # one column per span field: a list per span would give the
        # collector a container to scan for every span recorded
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self.counters: Counter = Counter()
        self.absent: List[str] = []
        self.request = -1
        self._stack: List[int] = []
        self._open: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every entry point that exists; warn about the others."""
        for layer, module_name, attr in self.entry_points:
            try:
                owner, name, original = _resolve(module_name, attr)
            except (ImportError, AttributeError) as exc:
                self.absent.append(layer)
                warnings.warn(f"trace: layer {layer} is absent "
                              f"({module_name}.{attr}: {exc})", stacklevel=2)
                continue
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                self._patch(owner, name, wrapper)
                continue
            # a module-level function: replace it wherever it was imported
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, name, None) is original):
                    self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner: object, name: str, wrapper: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # ------------------------------------------------------------------ #
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self._stack.append(index)
        self._open[name] += 1
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()
        self._open[self.names[index]] -= 1

    def _wrap(self, layer: str, original: Callable) -> Callable:
        observe = _OBSERVERS.get(layer)
        if layer in COUNT_ONLY:
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                observe(self, args, result)
                return result
            return counted

        def traced(*args, **kwargs):
            index = self.open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    # ------------------------------------------------------------------ #
    def save(self, path: str, requests: int) -> None:
        spans = list(zip(self.names, self.starts, self.ends, self.parents,
                         self.requests))
        with open(path, "w") as fh:
            json.dump({"requests": requests, "spans": spans,
                       "counters": dict(self.counters),
                       "absent": self.absent}, fh)


def _resolve(module_name: str, attr: str) -> Tuple[object, str, object]:
    """``(owner, name, current value)`` of ``module.attr`` or ``module.Cls.attr``."""
    owner: object = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


# ---------------------------------------------------------------------- #
# counts taken from what a wrapped call returned
def _count_outcomes(rec: SpanRecorder, outcomes: Iterable) -> None:
    # only outcomes handed back to a caller outside the plan layer count;
    # evaluate_many's own calls to evaluate would count a lane twice
    if any(rec._open[name] for name in _EVALUATE):
        return
    for outcome in outcomes:
        rec.counters["outcomes"] += 1
        if outcome.pruned:
            rec.counters[f"pruned.{outcome.prune_stage}"] += 1


def _on_compile(rec, args, dist) -> None:
    rec.counters["dist_ops"] += len(dist)


def _on_lane_bounds(rec, args, result) -> None:
    rec.counters["lanes_bounded"] += len(args[1])


def _on_evaluate(rec, args, outcome) -> None:
    _count_outcomes(rec, (outcome,))


def _on_evaluate_many(rec, args, outcomes) -> None:
    rec.counters["lanes"] += len(outcomes)
    _count_outcomes(rec, outcomes)


def _on_cache_get(rec, args, value) -> None:
    verdict = "miss" if value is None else "hit"
    rec.counters[f"cache.{args[0].kind}.{verdict}"] += 1


_OBSERVERS: Dict[str, Callable] = {
    "parallel.compile": _on_compile,
    "simulation.lane_bounds": _on_lane_bounds,
    "plan.evaluate": _on_evaluate,
    "plan.evaluate_many": _on_evaluate_many,
    "plan.cache": _on_cache_get,
}


# ---------------------------------------------------------------------- #
def rollup(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

    Self time is a span's duration minus the durations of its direct
    children.  Spans nest (one thread, wrapped calls), so the children
    of a span cover disjoint parts of its interval.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_s[i]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(doc: dict, overhead_ratio: float) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, per request.

    ``doc`` is the JSON :meth:`SpanRecorder.save` wrote.  Layers with no
    calls (absent ones included) read 0.
    """
    n = max(1, doc["requests"])
    rows = rollup(doc["spans"])
    c = Counter(doc["counters"])

    def self_s(layer: str) -> float:
        return rows.get(layer, {}).get("self_s", 0.0) / n

    def calls(layer: str) -> float:
        return rows.get(layer, {}).get("calls", 0) / n

    def total_s(layer: str) -> float:
        return rows.get(layer, {}).get("total_s", 0.0) / n

    def hit_ratio(kind: str) -> float:
        hits = c[f"cache.{kind}.hit"]
        return _ratio(hits, hits + c[f"cache.{kind}.miss"])

    metrics = {f"{layer}.self_s": self_s(layer) for layer in SELF_S_LAYERS}
    metrics.update({f"{layer}.calls": calls(layer)
                    for layer in CALLS_LAYERS})
    metrics.update({
        "parallel.dist_ops": c["dist_ops"] / n,
        "plan.evaluate_many.lanes": _ratio(
            c["lanes"], rows.get("plan.evaluate_many", {}).get("calls", 0)),
        "simulation.lane_bounds.kill_ratio": _ratio(
            c["pruned.prebound"], c["lanes_bounded"]),
        "plan.outcome_hit_ratio": hit_ratio("outcome"),
        "plan.plan_hit_ratio": hit_ratio("plan"),
        "service.result_hit_ratio": hit_ratio("service"),
        "service.executed": calls("service.context"),
        "resilience.replan.s": total_s("resilience.replan"),
        "runtime.iteration.s": total_s("runtime.iteration"),
        "trace.overhead_ratio": overhead_ratio,
    })
    for stage in PRUNE_STAGES:
        metrics[f"plan.pruned_ratio.{stage}"] = _ratio(
            c[f"pruned.{stage}"], c["outcomes"])
    return metrics


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def self_time_shares(doc: dict) -> List[Tuple[str, float]]:
    """Each span name's share of the traced request time, largest first."""
    rows = rollup(doc["spans"])
    total = rows.get(ROOT_SPAN, {}).get("total_s", 0.0)
    return sorted(((name, _ratio(row["self_s"], total))
                   for name, row in rows.items()),
                  key=lambda item: -item[1])
