"""Reporting utilities: schedule timelines, Gantt export, strategy diffs.

These are inspection tools for the artifacts the pipeline produces: a
text Gantt chart of one simulated iteration, a JSON trace in Chrome
``chrome://tracing`` format, and summaries comparing two strategies.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .parallel.distgraph import DistGraph, DistOpKind
from .parallel.strategy import Strategy
from .simulation.memory import MemoryTracker
from .simulation.metrics import SimulationResult
from .telemetry import Tracer


def _resource_of(dist: DistGraph, name: str) -> str:
    op = dist.op(name)
    if op.is_compute:
        return op.device  # type: ignore[return-value]
    if op.kind is DistOpKind.TRANSFER:
        return f"link {op.src_device}->{op.dst_device}"
    return "nccl"


def text_gantt(dist: DistGraph, result: SimulationResult, *,
               width: int = 80, max_rows: int = 40,
               only_devices: bool = True) -> str:
    """ASCII Gantt chart of a simulated iteration's per-op schedule."""
    if not result.schedule:
        raise ValueError("result has no per-op schedule")
    makespan = result.makespan or 1.0
    rows: Dict[str, List[Tuple[float, float]]] = {}
    for name, (start, end) in result.schedule.items():
        resource = _resource_of(dist, name)
        if only_devices and resource.startswith("link "):
            continue
        rows.setdefault(resource, []).append((start, end))

    lines: List[str] = [f"0{' ' * (width - 12)}{makespan * 1e3:.2f} ms"]
    ordered = sorted(rows)
    for resource in ordered[:max_rows]:
        cells = [" "] * width
        for start, end in rows[resource]:
            lo = int(start / makespan * (width - 1))
            hi = max(lo + 1, int(end / makespan * (width - 1)))
            for i in range(lo, min(hi, width)):
                cells[i] = "#" if resource != "nccl" else "="
        lines.append(f"{resource:>22s} |{''.join(cells)}|")
    hidden = len(ordered) - max_rows
    if hidden > 0:
        lines.append(f"(+{hidden} more resources)")
    return "\n".join(lines)


SIM_PID = 0       # simulated resources (devices, links, nccl)
PIPELINE_PID = 1  # wall-clock pipeline spans from the tracer


def _resource_rows(dist: DistGraph,
                   schedule: Dict[str, Tuple[float, float]]) -> Dict[str, int]:
    """Stable resource -> tid mapping: devices, then links, then nccl."""
    resources = {_resource_of(dist, name) for name in schedule}
    devices = sorted(r for r in resources
                     if not r.startswith("link ") and r != "nccl")
    links = sorted(r for r in resources if r.startswith("link "))
    ordered = devices + links + (["nccl"] if "nccl" in resources else [])
    return {r: i for i, r in enumerate(ordered)}


def _memory_counters(dist: DistGraph,
                     schedule: Dict[str, Tuple[float, float]],
                     resident_bytes: Optional[Dict[str, int]]) -> List[dict]:
    """Per-device memory counter tracks, replaying the refcounted
    tracker over the run's start/finish times."""
    memory = MemoryTracker(dist, resident_bytes or {})
    # finishes sort before starts at equal timestamps, matching the
    # engine's release-then-start event ordering
    timeline: List[Tuple[float, int, str]] = []
    for name, (start, end) in schedule.items():
        timeline.append((start, 1, name))
        timeline.append((end, 0, name))
    events: List[dict] = []
    for ts, is_start, name in sorted(timeline):
        op = dist.op(name)
        before = dict(memory.current)
        if is_start:
            memory.on_start(op)
        else:
            memory.on_finish(op)
        for device, value in memory.current.items():
            if before.get(device) != value:
                events.append({
                    "name": f"mem {device}", "ph": "C", "pid": SIM_PID,
                    "ts": ts * 1e6, "args": {"MiB": value / 2 ** 20},
                })
    return events


def _utilization_counters(dist: DistGraph,
                          schedule: Dict[str, Tuple[float, float]]
                          ) -> List[dict]:
    """Binary busy/idle counter tracks for links and the NCCL token
    (each is an exclusive resource, so utilization is 0 or 1)."""
    events: List[dict] = []
    for name in sorted(schedule):
        resource = _resource_of(dist, name)
        if not resource.startswith("link ") and resource != "nccl":
            continue
        start, end = schedule[name]
        track = f"util {resource}"
        events.append({"name": track, "ph": "C", "pid": SIM_PID,
                       "ts": start * 1e6, "args": {"busy": 1}})
        events.append({"name": track, "ph": "C", "pid": SIM_PID,
                       "ts": end * 1e6, "args": {"busy": 0}})
    return events


def chrome_trace(dist: DistGraph, result: SimulationResult, *,
                 tracer: Optional[Tracer] = None,
                 resident_bytes: Optional[Dict[str, int]] = None,
                 include_flows: bool = True,
                 include_counters: bool = True) -> List[dict]:
    """Events in Chrome tracing format (chrome://tracing or Perfetto).

    Emits, in addition to one ``X`` slice per dist-op:

    - ``M`` metadata events (``process_name``/``thread_name`` plus
      ``thread_sort_index``) so resources group deterministically:
      devices first, then links, then the NCCL token;
    - ``s``/``f`` flow events for every dependency edge
      (``include_flows``);
    - ``C`` counter tracks for per-device memory and per-link/NCCL
      utilization (``include_counters``; pass the deployment's
      ``resident_bytes`` to include parameters + optimizer state);
    - the tracer's wall-clock pipeline span tree on a second process
      when ``tracer`` is given.
    """
    if not result.schedule:
        raise ValueError("result has no per-op schedule")
    schedule = result.schedule
    tid_of = _resource_rows(dist, schedule)

    events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": SIM_PID, "tid": 0,
        "args": {"name": "simulation"},
    }]
    for resource, tid in sorted(tid_of.items(), key=lambda kv: kv[1]):
        events.append({"name": "thread_name", "ph": "M", "pid": SIM_PID,
                       "tid": tid, "args": {"name": resource}})
        events.append({"name": "thread_sort_index", "ph": "M",
                       "pid": SIM_PID, "tid": tid,
                       "args": {"sort_index": tid}})

    ordered = sorted(schedule, key=lambda n: (schedule[n][0], n))
    for name in ordered:
        start, end = schedule[name]
        op = dist.op(name)
        args: Dict[str, object] = {"kind": op.kind.value}
        if op.size_bytes:
            args["size_bytes"] = op.size_bytes
        if op.is_compute and op.batch_fraction != 1.0:
            args["batch_fraction"] = op.batch_fraction
        events.append({
            "name": name,
            "cat": op.kind.value,
            "ph": "X",
            "ts": start * 1e6,
            "dur": (end - start) * 1e6,
            "pid": SIM_PID,
            "tid": tid_of[_resource_of(dist, name)],
            "args": args,
        })

    if include_flows:
        flow_id = 0
        for name in ordered:
            for succ in dist.successors(name):
                if succ not in schedule:
                    continue
                flow_id += 1
                events.append({
                    "name": "dep", "cat": "dependency", "ph": "s",
                    "id": flow_id, "ts": schedule[name][1] * 1e6,
                    "pid": SIM_PID,
                    "tid": tid_of[_resource_of(dist, name)],
                })
                events.append({
                    "name": "dep", "cat": "dependency", "ph": "f",
                    "bp": "e", "id": flow_id,
                    "ts": schedule[succ][0] * 1e6,
                    "pid": SIM_PID,
                    "tid": tid_of[_resource_of(dist, succ)],
                })

    if include_counters:
        events.extend(_memory_counters(dist, schedule, resident_bytes))
        events.extend(_utilization_counters(dist, schedule))

    if tracer is not None:
        events.extend(tracer.chrome_events(pid=PIPELINE_PID))
    return events


def save_chrome_trace(dist: DistGraph, result: SimulationResult,
                      path: str, *, tracer: Optional[Tracer] = None,
                      resident_bytes: Optional[Dict[str, int]] = None
                      ) -> None:
    """Write a chrome://tracing JSON file for a simulated iteration."""
    events = chrome_trace(dist, result, tracer=tracer,
                          resident_bytes=resident_bytes)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def strategy_diff(a: Strategy, b: Strategy) -> Dict[str, Tuple[str, str]]:
    """Ops whose strategy label differs between two strategies."""
    if a.graph is not b.graph and a.graph.name != b.graph.name:
        raise ValueError("strategies cover different graphs")
    out: Dict[str, Tuple[str, str]] = {}
    for name in a.graph.op_names:
        la, lb = a.get(name).label(), b.get(name).label()
        if la != lb:
            out[name] = (la, lb)
    return out


def describe_strategy(strategy: Strategy, top: int = 10) -> str:
    """Human-readable strategy summary: mix + the heaviest MP placements."""
    mix = strategy.strategy_mix()
    lines = ["strategy mix:"]
    for label, fraction in sorted(mix.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {label:12s} {fraction * 100:5.1f}%")
    heavy: List[Tuple[int, str, str]] = []
    for name in strategy.graph.op_names:
        st = strategy.get(name)
        op = strategy.graph.op(name)
        if st.label().startswith("MP:") and op.param_bytes > 0:
            heavy.append((op.param_bytes, name, st.label()))
    if heavy:
        heavy.sort(reverse=True)
        lines.append("largest unreplicated (MP) parameter owners:")
        for bytes_, name, label in heavy[:top]:
            lines.append(f"  {name:40s} {bytes_ / 2 ** 20:8.1f} MiB  {label}")
    return "\n".join(lines)
