"""One benchmark workload in one fresh process.

``run.py`` starts this script with BLAS threads pinned to one and a
fixed hash seed, so the environment is in place before numpy loads.
The script sets the workload up, answers its requests one at a time
(a closed loop with one client: each request is sent once the previous
answer is back), checks every answer, and prints one ``BENCH_RESULT``
JSON line.  Only generated inputs reach the planner and its telemetry
stays off; with ``--trace 1`` the same requests run a second time under
the span recorder in ``tracer.py``.  Times are reported as measured,
with the factors that scale them to the reference host speed
(``hostspeed.py``).

Request ``i`` uses config seed ``seed * 1000 + i``; ``service_mix``
serves its searches on config seeds 0-3 so that its contexts stay warm.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro import HeteroG, HeteroGConfig, PlanningService, PlanRequest
from repro.agent import AgentConfig
from repro.agent.policy import actions_to_strategy
from repro.baselines import PostSearch
from repro.cluster import cluster_2gpu, cluster_4gpu, cluster_8gpu, \
    cluster_12gpu
from repro.graph.grouping import group_operations
from repro.graph.models import build_model
from repro.resilience import FaultSchedule

import tracer
from hostspeed import REFERENCE_S, HostSpeed
from run import RESULT_TAG


def agent_config(seed: int) -> AgentConfig:
    """The GNN scale ``repro plan`` searches with."""
    return AgentConfig(max_groups=40, gat_hidden=32, gat_layers=2,
                       gat_heads=2, strategy_dim=48, strategy_heads=2,
                       strategy_layers=1, seed=seed)


def heterog_config(seed: int, **kwargs) -> HeteroGConfig:
    return HeteroGConfig(seed=seed, agent=agent_config(seed), **kwargs)


def rounded(x: float) -> str:
    return f"{x:.9g}"


def strategy_text(strategy) -> str:
    return ";".join(f"{name}={op.label()}"
                    for name, op in sorted(strategy.items()))


@dataclass
class Answer:
    """What one request delivered, reduced to what the benchmark checks."""

    plan_time: float          # s per training iteration of the answer
    text: str                 # rounded answer, hashed into result_digest
    problems: List[str] = field(default_factory=list)


def answer_problems(result, what: str) -> List[str]:
    if not result.feasible or not math.isfinite(result.time):
        return [f"{what}: infeasible or infinite plan ({result.time})"]
    return []


class Workload:
    """Inputs for ``n`` requests plus the code that sends one of them."""

    name = ""
    nominal_s = 1.0      # seconds per request on a 2-core x86 box
    floor = 10           # fewest requests in a run
    gc_generation = 2    # collected before each request, untimed

    def setup(self, seed: int, n: int) -> None:
        raise NotImplementedError

    def start_pass(self) -> None:
        """Fresh long-lived state before a pass over the requests."""

    def end_pass(self) -> None:
        """Release what :meth:`start_pass` created."""

    def request(self, i: int) -> Answer:
        raise NotImplementedError


class SearchCold(Workload):
    """``repro plan``: a cold REINFORCE search, then an engine measurement."""

    name = "search_cold"
    nominal_s = 2.5

    def setup(self, seed: int, n: int) -> None:
        self.graph = build_model("inception_v3")
        self.cluster = cluster_8gpu()
        self.seeds = [seed * 1000 + i for i in range(n)]

    def request(self, i: int) -> Answer:
        config = heterog_config(self.seeds[i])
        with PlanningService(workers=0, name="bench-cold") as service:
            found = service.plan(PlanRequest(
                graph=self.graph, cluster=self.cluster, episodes=8,
                config=config, label="search"))
            problems = answer_problems(found, "search")
            measured = service.plan(PlanRequest(
                graph=self.graph, cluster=self.cluster,
                strategy=found.strategy, measure_iterations=2,
                config=config, label="measure"))
        if measured.measured_time is None or measured.measured_oom \
                or not math.isfinite(measured.measured_time):
            problems.append(f"measure: no finite engine time "
                            f"({measured.measured_time})")
        time_ = measured.measured_time or float("nan")
        return Answer(time_, f"{rounded(found.time)} {rounded(time_)} "
                      + strategy_text(found.strategy), problems)


class SearchPopulation(Workload):
    """Cross-entropy search: K=12 lanes per ``evaluate_many``, no policy."""

    name = "search_population"
    nominal_s = 1.65

    def setup(self, seed: int, n: int) -> None:
        self.graph = build_model("inception_v3")
        self.cluster = cluster_12gpu()
        self.seeds = [seed * 1000 + i for i in range(n)]

    def request(self, i: int) -> Answer:
        found = PostSearch(self.graph, self.cluster,
                           seed=self.seeds[i]).search(
            rounds=4, samples_per_round=12)
        problems = []
        if not math.isfinite(found.time) or found.evaluations != 48:
            problems.append(f"cem: time {found.time}, "
                            f"{found.evaluations} evaluations")
        return Answer(found.time, f"{rounded(found.time)} "
                      + strategy_text(found.strategy), problems)


def devices_of(deployment) -> set:
    used = set()
    for op in deployment.dist:
        used.update(d for d in (op.device, op.src_device, op.dst_device)
                    if d)
        used.update(op.devices)
    return used


class FaultReplan(Workload):
    """A GPU crash mid-training, detected and replanned on 7 GPUs."""

    name = "fault_replan"
    nominal_s = 0.82
    steps = 16

    def setup(self, seed: int, n: int) -> None:
        self.graph = build_model("transformer")
        self.cluster = cluster_8gpu()
        self.seeds = [seed * 1000 + i for i in range(n)]
        self.healthy = HeteroG(
            self.cluster, heterog_config(seed * 1000, episodes=4)
        ).deploy(self.graph)
        # crash only GPUs the healthy plan uses, so every episode replans
        gpus = sorted(devices_of(self.healthy))
        self.crashes = []
        for s in self.seeds:
            rng = np.random.default_rng(s)
            self.crashes.append((gpus[int(rng.integers(len(gpus)))],
                                 int(rng.integers(1, self.steps // 2 + 1))))

    def request(self, i: int) -> Answer:
        gpu, step = self.crashes[i]
        trainer = HeteroG(self.cluster, heterog_config(self.seeds[i])) \
            .resilient_runner(self.healthy,
                              FaultSchedule.parse(f"crash:{gpu}@{step}"),
                              policy="replan", episodes=4)
        report = trainer.run(self.steps)
        problems = []
        if report.stalled or report.completed_steps != self.steps:
            problems.append(f"run stalled after {report.completed_steps} "
                            f"of {self.steps} steps")
        if not any(r.action == "replan" for r in report.recoveries):
            problems.append(f"crash of {gpu} at step {step} was not "
                            f"replanned")
        if gpu in devices_of(trainer.deployment):
            problems.append(f"recovery plan still places ops on {gpu}")
        mean = report.mean_iteration_time
        return Answer(mean, f"{gpu}@{step} {rounded(mean)} "
                      f"{len(report.recoveries)}", problems)


class ServiceMix(Workload):
    """One long-lived service: builds, warm searches and exact repeats."""

    name = "service_mix"
    nominal_s = 0.27
    floor = 40
    # the service's heap grows to about a million objects, where a full
    # collection takes 0.4 s; the ones it triggers itself are its cost
    gc_generation = 1
    # Per block of five: a search on each model, two vgg19 builds, then
    # an exact repeat.  The stream's shape (kinds, models, contexts,
    # search budgets) is fixed so that the seed moves only the built
    # strategies and which requests repeat.  Builds are vgg19 only: the
    # median then falls inside their tight mode (50-140 ms), where a mix
    # with mobilenet_v2 builds put it on the steep edge between the build
    # and search modes and moved it by a fifth from seed to seed.
    block = ("search", "build", "search", "build", "repeat")

    def setup(self, seed: int, n: int) -> None:
        self.cluster = cluster_4gpu()
        graphs = [build_model("vgg19"), build_model("mobilenet_v2")]
        grouping = group_operations(
            graphs[0], {op.name: op.flops for op in graphs[0]}, 40)
        # 2 models x config seeds 0-3: 8 contexts, warm after first use
        configs = [heterog_config(c) for c in range(4)]
        actions = self.cluster.num_devices + 4
        # PlanRequest arguments per request; a repeat reuses its first's
        self.specs: List[dict] = []
        self.repeat_of: Dict[int, int] = {}
        order = np.random.default_rng(seed)
        served = {"build": 0, "search": 0}
        for i in range(n):
            kind = self.block[i % len(self.block)]
            if kind == "repeat":
                first = int(order.integers(i))
                while first in self.repeat_of:
                    first = int(order.integers(i))
                self.repeat_of[i] = first
                self.specs.append(self.specs[first])
                continue
            j = served[kind]
            served[kind] += 1
            if kind == "build":
                draws = np.random.default_rng(seed * 1000 + i).integers(
                    actions, size=grouping.num_groups)
                self.specs.append(dict(
                    graph=graphs[0], cluster=self.cluster,
                    config=configs[j % 4], label=kind,
                    strategy=actions_to_strategy(graphs[0], self.cluster,
                                                 grouping, draws),
                    measure_iterations=2))
            else:
                self.specs.append(dict(
                    graph=graphs[j % 2], cluster=self.cluster,
                    config=configs[(j // 2) % 4], label=kind,
                    episodes=2 + j % 5))

    def start_pass(self) -> None:
        self.service = PlanningService(workers=0, name="bench-mix")
        self.responses: Dict[int, object] = {}

    def end_pass(self) -> None:
        self.service.close()

    def request(self, i: int) -> Answer:
        request = PlanRequest(**self.specs[i])
        result = self.service.plan(request)
        self.responses[i] = result
        # plan time counts each feasible first answer; a repeat's is the
        # one it repeats
        problems = []
        if i in self.repeat_of:
            first = self.responses[self.repeat_of[i]]
            if not result.from_cache or response_fields(result) \
                    != response_fields(first):
                problems.append(f"repeat of request {self.repeat_of[i]} "
                                f"differs from its first response")
        elif request.is_search:
            problems = answer_problems(result, "search")
        elif (result.deployment is None) != result.outcome.infeasible:
            problems.append("build: a deployment must exist exactly when "
                            "the strategy compiles")
        time_ = result.outcome.time \
            if result.feasible and i not in self.repeat_of else float("nan")
        return Answer(time_, f"{rounded(result.outcome.time)} "
                      + strategy_text(result.strategy), problems)


def response_fields(result) -> tuple:
    """Every field of a response except its per-call bookkeeping."""
    return (result.fingerprint, strategy_text(result.strategy),
            result.outcome.time, result.outcome.dist_ops,
            result.deployment is not None, result.episodes,
            result.measured_time, result.measured_oom)


WORKLOADS = {w.name: w for w in (SearchCold, SearchPopulation, FaultReplan,
                                 ServiceMix)}


def warm_up() -> None:
    """One small search on a throwaway service: first-call costs land here."""
    with PlanningService(workers=0, name="bench-warmup") as service:
        service.plan(PlanRequest(graph=build_model("vgg19"),
                                 cluster=cluster_2gpu(), episodes=1,
                                 config=heterog_config(0)))


@dataclass
class Pass:
    latencies: List[float] = field(default_factory=list)
    cpu: List[float] = field(default_factory=list)
    scales: List[float] = field(default_factory=list)  # to reference speed
    answers: List[Answer] = field(default_factory=list)

    @property
    def scaled_cpu_s(self) -> float:
        return sum(c * f for c, f in zip(self.cpu, self.scales))

    @property
    def digest(self) -> str:
        text = "\n".join(a.text for a in self.answers)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(workload: Workload, n: int, speed: HostSpeed,
             recorder: "tracer.SpanRecorder | None" = None) -> Pass:
    """Answer requests ``0..n-1``, calibrating between them (untimed).

    The requests between two calibrations, at least half a second of
    them, are scaled by the mean of those two calibrations.
    """
    out = Pass()
    before, segment, segment_s = speed.measure(), [], 0.0
    workload.start_pass()
    try:
        for i in range(n):
            gc.collect(workload.gc_generation)
            if recorder is not None:
                recorder.request = i
                root = recorder.open(tracer.ROOT_SPAN)
            start, cpu = time.perf_counter(), time.process_time()
            try:
                answer = workload.request(i)
            except Exception as exc:  # a failed request is a result here
                traceback.print_exc(file=sys.stderr)
                answer = Answer(float("nan"), f"error {type(exc).__name__}",
                                [f"request {i} raised {exc!r}"])
            out.cpu.append(time.process_time() - cpu)
            out.latencies.append(time.perf_counter() - start)
            if recorder is not None:
                recorder.close(root)
            out.answers.append(answer)
            segment.append(i)
            segment_s += out.latencies[-1]
            if segment_s >= 0.5 or i == n - 1:
                after = speed.measure()
                scale = 2 * REFERENCE_S / (before + after)
                out.scales += [scale] * len(segment)
                before, segment, segment_s = after, [], 0.0
    finally:
        workload.end_pass()
    return out


def request_count(workload: Workload, seconds: float, requests: int,
                  trace: bool) -> int:
    """Requests for a run of ``seconds`` on the reference box.

    Fixed by the arguments alone, not by how fast this machine is, so a
    seed always yields the same work and the same answers.  A traced
    run answers half as many requests twice (untraced, then traced).
    """
    n = requests or max(workload.floor, round(seconds / workload.nominal_s))
    return max(1, math.ceil(n / 2)) if trace and not requests else n


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--requests", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default="")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    n = request_count(workload, args.seconds, args.requests,
                      bool(args.trace))
    workload.setup(args.seed, n)
    warm_up()
    gc.collect()
    setup_s = time.monotonic() - args.spawned_at
    speed = HostSpeed()
    result: Dict[str, object] = {
        "setup_s": setup_s, "requests": n,
        "setup_scale": REFERENCE_S / speed.measure()}
    if not args.setup_only:
        plain = run_pass(workload, n, speed)
        result.update(
            latencies=plain.latencies, cpu=plain.cpu, scales=plain.scales,
            plan_times=[a.plan_time for a in plain.answers],
            problems=[p for a in plain.answers for p in a.problems],
            failed=sum(1 for a in plain.answers if a.problems),
            digest=plain.digest)
        if args.trace:
            recorder = tracer.SpanRecorder()
            recorder.install()
            try:
                traced = run_pass(workload, n, speed, recorder)
            finally:
                recorder.uninstall()
            recorder.save(args.trace_file, n)
            result["layers"] = tracer.layer_metrics(
                tracer.load(args.trace_file),
                traced.scaled_cpu_s / plain.scaled_cpu_s - 1.0)
            result["absent_layers"] = recorder.absent
            if traced.digest != plain.digest:
                result["problems"].append("traced answers differ from "
                                          "untraced ones")
                result["failed"] = n
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(RESULT_TAG + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
