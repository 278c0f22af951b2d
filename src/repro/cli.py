"""Command-line interface: ``python -m repro <command>``.

Commands
--------
plan        search a deployment strategy for a model on a cluster preset
baselines   measure the four DP baselines for a model
models      list registered benchmark models and their sizes
clusters    show the cluster presets
trace       run the full pipeline under telemetry, write a Chrome trace
            and print the critical-path blame
faults      train under a fault-injection schedule (crash / degrade /
            straggler) and recover by elastic replanning
churn       train through spot arrivals and preemptions (a concrete
            schedule or seeded Poisson rates)
serve       drive the planning service with a concurrent workload and
            report coalescing / admission-control behaviour
experiment  run one paper experiment (table1, table4, table7, fig3a,
            fig3b, fig8, fig9, faults, churn)
journal     tail / filter a JSONL request journal (--request-id,
            --phase, --format jsonl|table)
postmortem  reconstruct one request's full timeline from the journal
            (no tracing needed beforehand)
status      render a service status snapshot (queue, caches, SLO burn)
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from . import __version__
from .cluster import (
    cluster_2gpu,
    cluster_4gpu,
    cluster_8gpu,
    cluster_12gpu,
)
from .errors import ReproError
from .graph.models import ALL_MODELS, build_model, model_names
from .telemetry.journal import PHASE_OF

if TYPE_CHECKING:
    from .service import PlanningService, PlanRequest, PlanResult

CLUSTERS = {
    "2gpu": cluster_2gpu,
    "4gpu": cluster_4gpu,
    "8gpu": cluster_8gpu,
    "12gpu": cluster_12gpu,
}


def _resolve_cluster(name: str):
    """Accept '8gpu', 'cluster8', 'cluster8gpu', or '8'."""
    key = name.lower().strip()
    if key.startswith("cluster"):
        key = key[len("cluster"):]
    if key and not key.endswith("gpu"):
        key = key + "gpu"
    try:
        return CLUSTERS[key]
    except KeyError:
        raise ReproError(
            f"unknown cluster {name!r}; known: {', '.join(sorted(CLUSTERS))}"
        ) from None


def _resolve_model(name: str) -> str:
    """Exact model name, or a unique prefix (e.g. 'resnet')."""
    key = name.lower().strip()
    if key in ALL_MODELS:
        return key
    matches = [m for m in model_names() if key and m.startswith(key)]
    if len(matches) == 1:
        return matches[0]
    hint = (f"ambiguous between {', '.join(matches)}" if matches
            else f"known: {', '.join(model_names())}")
    raise ReproError(f"unknown model {name!r}; {hint}")


def _whole_number(text: str) -> int:
    """An argparse type: a whole number >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a whole number >= 0, got {text!r}")
    return int(text)


def _add_output_args(parser: argparse.ArgumentParser, *,
                     journal: bool = False) -> None:
    """The shared telemetry-output options (one definition, not four)."""
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="dump the telemetry metrics registry "
                        "(.prom/.txt: Prometheus text; else JSON)")
    if journal:
        parser.add_argument("--journal-out", metavar="PATH",
                            help="write the request journal as JSONL "
                            "(readable by 'repro journal' / "
                            "'repro postmortem')")


def _save_outputs(args: argparse.Namespace, tel) -> None:
    """Shared ``--metrics-out`` / ``--journal-out`` epilogue.  The
    session's closed spans are folded into one ``span_seconds{span=…}``
    histogram before the registry is written (.prom/.txt: Prometheus
    text, else JSON)."""
    path = getattr(args, "metrics_out", None)
    if path:
        for span in tel.tracer.to_events():
            tel.registry.histogram(
                "span_seconds", labels={"span": span["name"]},
                help="wall-clock seconds per closed span",
            ).observe(span["duration"])
        if path.endswith((".prom", ".txt")):
            tel.registry.save_prometheus(path)
        else:
            tel.registry.save_json(path)
        print(f"metrics written to {path}", file=sys.stderr)
    if getattr(args, "journal_out", None):
        from .telemetry.flight import default_recorder
        default_recorder().journal.save_jsonl(args.journal_out)
        print(f"journal written to {args.journal_out}", file=sys.stderr)


def _render_status(snapshot: dict) -> str:
    """Human-readable one-shot service status (serve + status share it)."""
    stats = snapshot.get("stats", {})
    queue = snapshot.get("queue", {})
    contexts = snapshot.get("contexts", {})
    cache = snapshot.get("result_cache", {})
    lines = [
        f"service {snapshot.get('service', '?')!r}: "
        f"{stats.get('submitted', 0)} submitted, "
        f"{stats.get('executed', 0)} executed, "
        f"{stats.get('coalesced', 0)} coalesced, "
        f"{stats.get('result_hits', 0)} cache hits, "
        f"{stats.get('rejected', 0)} rejected, "
        f"{stats.get('timeouts', 0)} timeouts",
        f"  queue        : {queue.get('depth', 0)}/"
        f"{queue.get('capacity', 0)} queued",
        f"  contexts     : {contexts.get('warm', 0)}/"
        f"{contexts.get('capacity', 0)} warm",
        f"  result cache : {cache.get('hits', 0)} hits / "
        f"{cache.get('misses', 0)} misses "
        f"({cache.get('hit_rate', 0.0) * 100:.1f}%), "
        f"{cache.get('size', 0)}/{cache.get('capacity', 0)} entries",
    ]
    inflight = snapshot.get("inflight", [])
    if inflight:
        lines.append(f"  inflight ({len(inflight)}):")
        for entry in inflight:
            lines.append(
                f"    {entry.get('request_id', '?'):12s} "
                f"label={entry.get('label') or '-'} "
                f"priority={entry.get('priority', 0)} "
                f"age {entry.get('age_seconds', 0.0):.2f}s")
    slo = snapshot.get("slo", {})
    if slo:
        lines.append("  slo:")
        for cls, state in sorted(slo.items()):
            burn = state.get("budget_burn", 0.0)
            lines.append(
                f"    {cls:12s} {state.get('requests', 0):4d} requests  "
                f"compliance {state.get('compliance', 1.0) * 100:5.1f}%  "
                f"(objective {state.get('objective_seconds')}s, "
                f"target {(state.get('target') or 0) * 100:.0f}%)  "
                f"budget burn {burn:.2f}"
                + ("  [SLO BLOWN]" if burn > 1.0 else ""))
    return "\n".join(lines)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cluster", choices=sorted(CLUSTERS), default="8gpu",
                        help="testbed preset (default: 8gpu)")
    parser.add_argument("--preset", choices=["tiny", "bench", "paper"],
                        default="bench", help="model scale (default: bench)")
    parser.add_argument("--seed", type=int, default=0)


def _add_resilience_args(parser: argparse.ArgumentParser, *, cluster: str,
                         cluster_help: str, schedule_help: str,
                         policy: str) -> None:
    """The options ``faults`` and ``churn`` share; each command adds
    only its own schedule generator's flags."""
    parser.add_argument("model", help="model name or unique prefix "
                        "(e.g. resnet, vgg19)")
    parser.add_argument("cluster", nargs="?", default=cluster,
                        help=cluster_help)
    parser.add_argument("--schedule", metavar="SPEC", help=schedule_help)
    parser.add_argument("--policy", choices=["replan", "ride", "elastic"],
                        default=policy,
                        help=f"recovery policy (default: {policy}); "
                        "elastic also reacts to joins and preempt notices")
    parser.add_argument("--steps", type=int, default=12,
                        help="training iterations to run (default: 12)")
    parser.add_argument("--episodes", type=int, default=8,
                        help="initial strategy-search episodes (default: 8)")
    parser.add_argument("--replan-episodes", type=int, default=4,
                        help="episodes per replan search (default: 4)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: trim episodes and steps")
    parser.add_argument("--preset", choices=["tiny", "bench", "paper"],
                        default="bench", help="model scale (default: bench)")
    parser.add_argument("--seed", type=int, default=0)
    _add_output_args(parser, journal=True)
    parser.set_defaults(func=cmd_resilience)


def cmd_models(args: argparse.Namespace) -> int:
    """``repro models``: list the model zoo with sizes."""
    print(f"{'model':16s} {'ops':>6s} {'params':>10s} {'GFLOPs':>9s}")
    for name in model_names():
        graph = build_model(name, args.preset)
        stats = graph.stats()
        print(f"{name:16s} {stats['ops']:6.0f} "
              f"{stats['param_bytes'] / 2 ** 20:8.1f}Mi "
              f"{stats['total_flops'] / 1e9:9.1f}")
    return 0


def cmd_clusters(args: argparse.Namespace) -> int:  # noqa: ARG001
    """``repro clusters``: show the testbed presets."""
    for name, factory in CLUSTERS.items():
        cluster = factory()
        print(f"{name}: {cluster}")
        for dev in cluster.devices:
            print(f"  {dev.device_id}: {dev.spec.model} "
                  f"({dev.memory_bytes / 2 ** 30:.0f} GB) on {dev.server}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """``repro plan``: search a strategy for one model, then measure it
    on the execution engine — a search request, then a build request,
    on one inline planning service."""
    from .experiments.common import env_iterations, experiment_config
    from .reporting import describe_strategy
    from .service import PlanRequest, PlanningService
    cluster = CLUSTERS[args.cluster]()
    graph = build_model(args.model, args.preset)
    print(f"searching strategy for {graph.name} on {cluster} "
          f"({args.episodes} episodes)...",
          file=sys.stderr)
    config = experiment_config(args.seed)
    with PlanningService(workers=0, name="plan") as service:
        found = service.plan(PlanRequest(
            graph=graph, cluster=cluster, episodes=args.episodes,
            config=config, label="search"))
        measured = service.plan(PlanRequest(
            graph=graph, cluster=cluster, strategy=found.strategy,
            measure_iterations=env_iterations(), config=config,
            label="measure"))
    shown = "OOM" if measured.measured_oom \
        else f"{measured.measured_time:.3f}"
    print(f"per-iteration time : {shown} s")
    print(f"search time        : {found.service_seconds:.1f} s")
    print(describe_strategy(found.strategy))
    if args.save:
        from .parallel.serialize import save_strategy
        save_strategy(found.strategy, args.save)
        print(f"strategy saved to {args.save}")
    return 0


def cmd_baselines(args: argparse.Namespace) -> int:
    """``repro baselines``: measure the four DP baselines, built under
    the framework's default FIFO order on one inline planning service."""
    from .baselines import DP_BASELINES, dp_strategy
    from .experiments import experiment_config, format_table, run_strategy
    from .service import PlanningService
    cluster = CLUSTERS[args.cluster]()
    graph = build_model(args.model, args.preset)
    fifo = experiment_config(args.seed, use_order_scheduling=False)
    with PlanningService(workers=0, name="baselines") as service:
        rows = [[name, run_strategy(service, dp_strategy(name, graph, cluster),
                                    name, fifo).display_time]
                for name in DP_BASELINES]
    print(format_table(["Baseline", "Per-iteration (s)"], rows))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: run the pipeline under telemetry and export it."""
    from . import telemetry
    from .config import HeteroGConfig
    from .heterog import HeteroG
    from .reporting import save_chrome_trace
    from .runtime.execution_engine import ExecutionEngine

    model_name = _resolve_model(args.model)
    cluster = _resolve_cluster(args.cluster)()
    with telemetry.session() as tel:
        with telemetry.span("pipeline.build", model=model_name,
                            preset=args.preset):
            graph = build_model(model_name, args.preset)
        print(f"tracing {graph.name} on {cluster} "
              f"({args.episodes} episodes)...", file=sys.stderr)
        heterog = HeteroG(cluster, HeteroGConfig(episodes=args.episodes,
                                                 seed=args.seed))
        deployment = heterog.deploy(graph)
        engine = ExecutionEngine(cluster, seed=args.seed + 1)
        with telemetry.span("pipeline.execute", graph=graph.name):
            result = engine.run_iteration(
                deployment.dist, deployment.schedule,
                deployment.resident_bytes, check_memory=False)
        save_chrome_trace(deployment.dist, result, args.out,
                          tracer=tel.tracer,
                          resident_bytes=deployment.resident_bytes)
        print(f"chrome trace written to {args.out} "
              f"({len(deployment.dist)} dist-ops, "
              f"makespan {result.makespan * 1e3:.2f} ms)")
        report = telemetry.critical_path(deployment.dist, result)
        print(report.summary())
        if args.spans_out:
            tel.tracer.save_jsonl(args.spans_out)
            print(f"span log written to {args.spans_out}")
        _save_outputs(args, tel)
    return 0


def _event_schedule(args: argparse.Namespace, cluster, steps: int):
    """The run's schedule: ``--schedule`` if given, else the command's
    seeded generator (random faults, or Poisson churn from the rates)."""
    from .elastic import ChurnSchedule
    from .resilience import FaultSchedule

    if args.schedule:
        return FaultSchedule.parse(args.schedule)
    if args.command == "faults":
        return FaultSchedule.random(cluster, seed=args.seed,
                                    events=args.random_faults,
                                    horizon=max(2, steps // 2))
    return ChurnSchedule(
        arrival_rate=args.arrival_rate,
        preempt_rate=args.preempt_rate,
        notice=args.notice,
        reclaim_probability=args.reclaim_probability,
        seed=args.seed,
        horizon=max(2, steps),
    ).schedule(cluster)


def cmd_resilience(args: argparse.Namespace) -> int:
    """``repro faults`` / ``repro churn``: train under an event schedule
    (faults, or spot arrivals and preemptions) and recover.

    Returns exit code 1 when the run stalled (e.g. a crash under the
    ``ride`` policy), so scripts and the CI smoke can assert recovery
    happened.
    """
    from . import telemetry
    from .config import HeteroGConfig
    from .experiments.common import bench_agent_config
    from .heterog import HeteroG

    model_name = _resolve_model(args.model)
    cluster = _resolve_cluster(args.cluster)()
    episodes, steps = args.episodes, args.steps
    replan_episodes = args.replan_episodes
    if args.quick:
        episodes = min(episodes, 2)
        steps = min(steps, 6)
        replan_episodes = min(replan_episodes, 2)
    graph = build_model(model_name, args.preset)
    schedule = _event_schedule(args, cluster, steps)
    config = HeteroGConfig(episodes=episodes, seed=args.seed,
                           agent=bench_agent_config(args.seed))
    heterog = HeteroG(cluster, config)
    with telemetry.session() as tel:
        print(f"searching healthy deployment for {graph.name} on {cluster} "
              f"({episodes} episodes)...", file=sys.stderr)
        deployment = heterog.deploy(graph)
        print(f"injecting: {schedule or '(none)'}", file=sys.stderr)
        trainer = heterog.resilient_runner(deployment, schedule,
                                           policy=args.policy,
                                           episodes=replan_episodes)
        report = trainer.run(steps)
        print(report.summary())
        _save_outputs(args, tel)
    return 1 if report.stalled else 0


@dataclass
class WorkloadOutcome:
    """One request's fate in a served workload."""

    label: str
    status: str                      # "ok" | error class name
    seconds: float
    detail: str = ""
    result: Optional["PlanResult"] = None


@dataclass
class WorkloadReport:
    """What ``run_workload`` hands back to ``repro serve``."""

    outcomes: List[WorkloadOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    stats: Dict[str, int] = field(default_factory=dict)
    snapshot: Dict = field(default_factory=dict)  # full service.snapshot()

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")


def run_workload(service: "PlanningService",
                 requests: Sequence["PlanRequest"]) -> WorkloadReport:
    """Serve a batch of requests concurrently and collect per-request
    outcomes (structured errors included — overload and timeouts are
    outcomes here, not crashes)."""
    report = WorkloadReport()
    outcomes: List[Optional[WorkloadOutcome]] = [None] * len(requests)
    lock = threading.Lock()

    def client(i: int, request: "PlanRequest") -> None:
        label = request.label or f"req{i}"
        start = time.perf_counter()
        try:
            result = service.plan(request)
            outcome = WorkloadOutcome(
                label=label, status="ok",
                seconds=time.perf_counter() - start,
                detail=f"{result.time:.4f} s/iter"
                + (" (cached)" if result.from_cache else ""),
                result=result,
            )
        except ReproError as exc:
            outcome = WorkloadOutcome(
                label=label, status=type(exc).__name__,
                seconds=time.perf_counter() - start, detail=str(exc),
            )
        with lock:
            outcomes[i] = outcome

    start = time.perf_counter()
    threads = [threading.Thread(target=client, args=(i, r), daemon=True)
               for i, r in enumerate(requests)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    report.wall_seconds = time.perf_counter() - start
    report.outcomes = [o for o in outcomes if o is not None]
    report.stats = service.stats.snapshot()
    report.snapshot = service.snapshot()
    return report


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: drive the planning service with a demo workload.

    Submits ``--requests`` plan requests (``--duplicates`` identical
    copies each) concurrently and prints what the service did with
    them: which coalesced, which hit the result cache, which were
    rejected by admission control.
    """
    from . import telemetry
    from .config import HeteroGConfig
    from .service import (
        InlineBackend,
        PlanRequest,
        PlanningService,
        ProcessFleetBackend,
        ThreadBackend,
    )

    backend = {
        "auto": lambda workers: None,
        "inline": lambda workers: InlineBackend(),
        "thread": ThreadBackend,
        "fleet": ProcessFleetBackend,
    }[args.backend](args.workers)
    model_name = _resolve_model(args.model)
    cluster = _resolve_cluster(args.cluster)()
    graph = build_model(model_name, args.preset)
    config = HeteroGConfig(seed=args.seed)
    # each unique group gets its own episode budget, so groups have
    # distinct fingerprints while copies within a group are identical
    requests = [
        PlanRequest(graph=graph, cluster=cluster,
                    episodes=args.episodes + i // max(1, args.duplicates),
                    timeout=args.timeout, config=config,
                    label=f"serve:{i // max(1, args.duplicates)}")
        for i in range(args.requests * args.duplicates)
    ]
    print(f"serving {len(requests)} requests "
          f"({args.requests} unique x {args.duplicates} duplicates) for "
          f"{graph.name} on {cluster} with {args.workers} worker(s)...",
          file=sys.stderr)
    with telemetry.session() as tel:
        with PlanningService(workers=args.workers,
                             max_queue=args.max_queue,
                             backend=backend) as service:
            report = run_workload(service, requests)
        for outcome in report.outcomes:
            print(f"  {outcome.label:12s} {outcome.status:10s} "
                  f"{outcome.seconds * 1e3:8.1f} ms  {outcome.detail}")
        stats = report.stats
        print(f"completed {report.completed}/{len(requests)} in "
              f"{report.wall_seconds:.2f}s — executed {stats['executed']}, "
              f"coalesced {stats['coalesced']}, "
              f"cache hits {stats['result_hits']}, "
              f"rejected {stats['rejected']}")
        print(_render_status(report.snapshot))
        if args.status_out:
            import json
            with open(args.status_out, "w") as fh:
                json.dump(report.snapshot, fh, indent=2, default=str)
            print(f"status snapshot written to {args.status_out}",
                  file=sys.stderr)
        _save_outputs(args, tel)
    return 0


def cmd_journal(args: argparse.Namespace) -> int:
    """``repro journal``: tail / filter a JSONL request journal."""
    import json

    from .telemetry.journal import Journal, filter_events

    events = Journal.load(args.path)
    events = filter_events(events, request_id=args.request_id,
                           event=args.event, phase=args.phase)
    if args.tail is not None:
        events = events[max(len(events) - args.tail, 0):]
    if not events:
        print("(no matching events)", file=sys.stderr)
        return 0
    if args.format == "jsonl":
        for entry in events:
            print(json.dumps(entry.to_dict()))
        return 0
    base = events[0].ts
    print(f"{'+seconds':>12s}  {'request_id':14s} {'phase':10s} "
          f"{'event':20s} attrs")
    for entry in events:
        attrs = " ".join(f"{k}={entry.attrs[k]}"
                         for k in sorted(entry.attrs))
        print(f"{entry.ts - base:12.6f}  {entry.request_id:14s} "
              f"{entry.phase:10s} {entry.event:20s} {attrs}".rstrip())
    return 0


def cmd_postmortem(args: argparse.Namespace) -> int:
    """``repro postmortem``: reconstruct one request's timeline.

    Works entirely from the JSONL journal — tracing never needs to have
    been enabled.  The request id may be a unique prefix.
    """
    from .telemetry.flight import FlightRecorder, postmortem_report
    from .telemetry.journal import Journal

    recorder = FlightRecorder.from_events(Journal.load(args.journal))
    record = recorder.get(args.request_id)
    if record is None:
        known = ", ".join(sorted(r.request_id
                                 for r in recorder.records())) or "(none)"
        raise ReproError(
            f"no (unique) record for {args.request_id!r} in "
            f"{args.journal}; known ids: {known}")
    print(postmortem_report(record))
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """``repro status``: render a service status snapshot.

    Reads the JSON snapshot ``repro serve --status-out`` saved; with
    ``--journal`` it additionally replays SLO accounting from the
    journal stream (useful when only the JSONL survived).
    """
    import json

    shown = False
    if args.status:
        with open(args.status) as fh:
            snapshot = json.load(fh)
        print(_render_status(snapshot))
        shown = True
    if args.journal:
        from .telemetry.journal import Journal
        from .telemetry.slo import replay_tracker

        events = Journal.load(args.journal)
        tracker = replay_tracker(events)
        print(f"journal {args.journal}: {len(events)} events; "
              f"slo replay:")
        slo = tracker.snapshot()
        if not slo:
            print("  (no outcome events with an slo_class)")
        for cls, state in sorted(slo.items()):
            print(f"  {cls:12s} {state['requests']:4d} requests  "
                  f"compliance {state['compliance'] * 100:5.1f}%  "
                  f"budget burn {state['budget_burn']:.2f}")
        shown = True
    if not shown:
        raise ReproError(
            "nothing to show: pass --status PATH (from 'repro serve "
            "--status-out') and/or --journal PATH")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """``repro experiment``: regenerate one paper table/figure."""
    if args.metrics_out or args.journal_out:
        from . import telemetry
        with telemetry.session() as tel:
            code = _run_experiment(args)
            _save_outputs(args, tel)
        return code
    return _run_experiment(args)


def _run_experiment(args: argparse.Namespace) -> int:
    from . import experiments as ex
    name = args.name
    if name == "table1":
        rows = ex.per_iteration_table(cluster_8gpu(), 8,
                                      include_large=args.large)
        print(ex.render_per_iteration(rows))
        print()
        print(ex.strategy_mix_table(rows, cluster_8gpu()))
    elif name == "table4":
        rows = ex.per_iteration_table(cluster_12gpu(), 12,
                                      include_large=args.large)
        print(ex.render_per_iteration(rows))
    elif name == "table5":
        print(ex.render_end_to_end(ex.end_to_end_table()))
    elif name == "table7":
        print(ex.render_order_scheduling(
            ex.order_scheduling_table(cluster_8gpu())))
    elif name == "fig3a":
        print(ex.render_fig3a(ex.fig3a_proportional_allocation()))
    elif name == "fig3b":
        print(ex.render_fig3b(ex.fig3b_op_speedups()))
    elif name == "fig8":
        print(ex.render_fig8(ex.fig8_time_breakdown()))
    elif name == "fig9":
        print(ex.render_fig9(ex.fig9_existing_schemes()))
    elif name == "faults":
        cluster = cluster_4gpu()
        rows = ex.resilience_sweep(
            cluster, {"vgg19": build_model("vgg19", ex.env_preset())},
            ex.fault_scenarios(cluster), ("replan", "ride"))
        print(ex.render_resilience_sweep(rows))
    elif name == "churn":
        # tiny by default: bench-scale NLP models do not fit the small
        # starting fleet
        cluster, preset = cluster_2gpu(), ex.env_preset("tiny")
        rows = ex.resilience_sweep(
            cluster, {m: build_model(m, preset) for m in ALL_MODELS},
            ex.churn_scenarios(cluster), ("elastic", "replan", "ride"))
        print(ex.render_resilience_sweep(rows))
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown experiment {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HeteroG reproduction (CoNEXT 2020)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="list benchmark models")
    _add_common(p)
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("clusters", help="show cluster presets")
    p.set_defaults(func=cmd_clusters)

    p = sub.add_parser("plan", help="search a deployment strategy")
    _add_common(p)
    p.add_argument("model", choices=sorted(ALL_MODELS))
    p.add_argument("--episodes", type=int, default=24)
    p.add_argument("--save", metavar="PATH",
                   help="save the strategy as JSON")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("baselines", help="measure the DP baselines")
    _add_common(p)
    p.add_argument("model", choices=sorted(ALL_MODELS))
    p.set_defaults(func=cmd_baselines)

    p = sub.add_parser("trace",
                       help="trace the pipeline and export telemetry")
    p.add_argument("model", help="model name or unique prefix "
                   "(e.g. resnet, vgg19)")
    p.add_argument("cluster", nargs="?", default="8gpu",
                   help="cluster preset (8gpu, cluster8, 12gpu, ...)")
    p.add_argument("-o", "--out", default="trace.json",
                   help="Chrome trace output path (default: trace.json)")
    p.add_argument("--preset", choices=["tiny", "bench", "paper"],
                   default="bench", help="model scale (default: bench)")
    p.add_argument("--episodes", type=int, default=4,
                   help="strategy-search episodes (default: 4)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spans-out", metavar="PATH",
                   help="also write the span log as JSONL")
    _add_output_args(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("faults",
                       help="train under fault injection and recover")
    _add_resilience_args(
        p, cluster="8gpu",
        cluster_help="cluster preset (8gpu, cluster8, 12gpu, ...)",
        schedule_help="comma-separated faults, kind:target@iter[xF] "
        "(e.g. 'crash:gpu3@5,degrade:server1@8x0.5'); default: a seeded "
        "random schedule", policy="replan")
    p.add_argument("--random-faults", type=int, default=2,
                   help="events in the random schedule (default: 2)")

    p = sub.add_parser("churn",
                       help="train through spot arrivals and preemptions")
    _add_resilience_args(
        p, cluster="2gpu",
        cluster_help="starting cluster preset (default: 2gpu — small on "
        "purpose, so arriving capacity matters)",
        schedule_help="comma-separated capacity events, "
        "kind:target@iter[xF] (e.g. 'server_join:v100@2x2,"
        "preempt:gpu1@4x2'); default: a seeded Poisson timeline from the "
        "rates below", policy="elastic")
    p.add_argument("--arrival-rate", type=float, default=0.3,
                   help="expected arrivals per iteration (default: 0.3)")
    p.add_argument("--preempt-rate", type=float, default=0.1,
                   help="expected preemptions per iteration (default: "
                   "0.1); preemptions need a cluster of 3 or more "
                   "devices, since at least two are always kept")
    p.add_argument("--notice", type=int, default=2,
                   help="spot advance-notice window in iterations "
                   "(default: 2)")
    p.add_argument("--reclaim-probability", type=float, default=0.25,
                   help="chance a preempted device comes back "
                   "(default: 0.25)")

    p = sub.add_parser("serve",
                       help="drive the planning service with a workload")
    p.add_argument("model", help="model name or unique prefix")
    p.add_argument("cluster", nargs="?", default="8gpu",
                   help="cluster preset (8gpu, cluster8, 12gpu, ...)")
    p.add_argument("--requests", type=int, default=2,
                   help="unique plan requests (default: 2)")
    p.add_argument("--duplicates", type=int, default=3,
                   help="identical copies per request (default: 3)")
    p.add_argument("--workers", type=int, default=2,
                   help="worker threads, or fleet processes with "
                   "--backend fleet (default: 2)")
    p.add_argument("--episodes", type=int, default=4,
                   help="search episodes per request (default: 4)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-request deadline in seconds")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission-control queue bound (default: 64)")
    p.add_argument("--backend",
                   choices=["auto", "inline", "thread", "fleet"],
                   default="auto",
                   help="execution backend: auto (workers=0 -> inline, "
                   "else thread), or fleet for persistent worker "
                   "processes with heartbeats and re-dispatch")
    p.add_argument("--preset", choices=["tiny", "bench", "paper"],
                   default="bench", help="model scale (default: bench)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--status-out", metavar="PATH",
                   help="write the full service status snapshot as JSON "
                   "(readable by 'repro status')")
    _add_output_args(p, journal=True)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("experiment", help="run one paper experiment")
    p.add_argument("name", choices=["table1", "table4", "table5", "table7",
                                    "fig3a", "fig3b", "fig8", "fig9",
                                    "faults", "churn"])
    p.add_argument("--large", action="store_true",
                   help="include the large-model OOM rows (slow)")
    _add_output_args(p, journal=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("journal",
                       help="tail / filter a JSONL request journal")
    p.add_argument("path", nargs="?", default="journal.jsonl",
                   help="journal file (default: journal.jsonl)")
    p.add_argument("--request-id", metavar="ID",
                   help="only events for this request id (or prefix)")
    p.add_argument("--event", metavar="TYPE",
                   help="only this event type (e.g. completed)")
    p.add_argument("--phase",
                   choices=list(dict.fromkeys(PHASE_OF.values())),
                   help="only events in this lifecycle phase")
    p.add_argument("--tail", type=_whole_number, metavar="N",
                   help="only the last N matching events")
    p.add_argument("--format", choices=["table", "jsonl"],
                   default="table", help="output format (default: table)")
    p.set_defaults(func=cmd_journal)

    p = sub.add_parser("postmortem",
                       help="reconstruct one request's timeline from "
                       "the journal")
    p.add_argument("request_id",
                   help="request or episode id (unique prefix ok)")
    p.add_argument("--journal", metavar="PATH", default="journal.jsonl",
                   help="journal file (default: journal.jsonl)")
    p.set_defaults(func=cmd_postmortem)

    p = sub.add_parser("status",
                       help="render a service status snapshot")
    p.add_argument("--status", metavar="PATH",
                   help="JSON snapshot from 'repro serve --status-out'")
    p.add_argument("--journal", metavar="PATH",
                   help="JSONL journal to replay SLO accounting from")
    p.set_defaults(func=cmd_status)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `repro journal ... | head`);
        # suppress the noise and exit with the conventional SIGPIPE code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
