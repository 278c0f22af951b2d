"""Regenerate or check the committed golden answers (``answers.json``).

Every entry pins the exact output of one seeded, fast planning request:
makespans as ``float.hex``, winner fingerprints, the scheduler's chosen
order, prune verdicts with their partial makespans, and OOM sets; the
DP-baseline entries also pin the compiled graph (every op's fields and
predecessors) and the per-device resident bytes as digests.  A
change that moves any of them on purpose regenerates the file and says
why in CHANGES.md::

    PYTHONPATH=src python tests/golden/regen.py           # rewrite
    PYTHONPATH=src python tests/golden/regen.py --check   # exit 1 on drift

``tests/test_golden.py`` runs the same comparison in tier-1.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.agent import AgentConfig, HeteroGAgent, seed_action_vectors
from repro.agent.seeds import (
    memory_ladder_strategy,
    rebalance_weights,
    rebalanced_ladder,
)
from repro.baselines import PostSearch
from repro.baselines.dp import DP_BASELINES, dp_strategy
from repro.cluster import cluster_2gpu, cluster_4gpu
from repro.config import HeteroGConfig
from repro.experiments import (
    churn_scenarios,
    communication_ablation,
    fault_scenarios,
    fig3a_proportional_allocation,
    fig8_time_breakdown,
    fig9_existing_schemes,
    fusion_ablation,
    grouping_ablation,
    order_scheduling_table,
    per_iteration_table,
    resilience_sweep,
)
from repro.graph.models import build_model, model_names
from repro.parallel.strategy import (
    CommMethod,
    ReplicaAllocation,
    Strategy,
    make_dp_strategy,
    make_mp_strategy,
)
from repro.plan import PlanBuilder
from repro.profiling import Profiler
from repro.resilience import (
    FaultInjector,
    FaultSchedule,
    Replanner,
    ResilientTrainer,
)
from repro.runtime import ExecutionEngine
from repro.scheduling.list_scheduler import ListScheduler
from repro.service import PlanningService, PlanRequest
from repro.simulation import Simulator
from repro.simulation.kernel import lower
from repro.telemetry.critical_path import critical_path

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "answers.json")

#: prune threshold for the pinned prune verdicts, as a fraction of the
#: unpruned makespan of the same order
PRUNE_FRACTION = 0.9

NOTE = (
    "Generated by tests/golden/regen.py; floats are float.hex.  "
    "Omitted on purpose: policy logits, losses, rewards and gradients of "
    "the REINFORCE searches, which are numpy matmul sums whose last bits "
    "follow the BLAS library's summation order.  The searches are pinned "
    "only through their sampled candidates' simulated times and winner, "
    "which reproduced exactly with one and two BLAS threads."
)


def _hex(x: float) -> str:
    return float(x).hex()


def _sha(parts: List[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


def _schedule_sha(schedule: Dict[str, tuple]) -> str:
    """Digest of a run's schedule: every op's start and finish, in
    start order."""
    return _sha([f"{n} {s.hex()} {f.hex()}" for n, (s, f) in schedule.items()])


def _dist_sha(dist) -> str:
    """Digest of a compiled graph: every op's fields in insertion order
    (floats as ``float.hex``) plus its predecessor ids."""
    index = {name: i for i, name in enumerate(dist.op_names)}
    parts = []
    for op in dist:
        source = op.source_op.name if op.source_op is not None else None
        preds = [index[p] for p in dist.predecessors(op.name)]
        parts.append(" ".join(map(str, (
            op.name, op.kind.value, source, op.device, op.src_device,
            op.dst_device, list(op.devices), float(op.size_bytes).hex(),
            float(op.batch_fraction).hex(), op.hierarchical,
            list(op.extra_resources), preds))))
    return _sha(parts)


def _resident_sha(resident: Dict[str, int]) -> str:
    """Digest of per-device resident bytes, in the compiler's order."""
    return _sha([f"{d} {b!r}" for d, b in resident.items()])


def _order_sha(names: List[str], order) -> str:
    """Digest of the op names in priority order (ties by name)."""
    prio = order.tolist()
    return _sha(sorted(names, key=dict(zip(names, prio)).__getitem__))


def _run_entry(result) -> dict:
    return {"makespan": _hex(result.makespan),
            "schedule": _schedule_sha(result.schedule),
            "oom": list(result.oom_devices)}


def _small_agent(seed: int) -> AgentConfig:
    return AgentConfig(max_groups=8, gat_hidden=16, gat_layers=2,
                       gat_heads=2, strategy_dim=16, strategy_heads=2,
                       strategy_layers=1, seed=seed)


def _prune_counts(tel: "telemetry.Telemetry") -> Dict[str, int]:
    return {stage: int(tel.registry.counter(
        "plan_pruned_total", labels={"stage": stage}).value)
        for stage in ("bound", "midsim")}


# --------------------------------------------------------------------- #
def dp_answers() -> Dict[str, dict]:
    """The four DP baselines of every model family (tiny preset, four
    GPUs) under FIFO, rank and earliest orders."""
    cluster = cluster_4gpu()
    out: Dict[str, dict] = {}
    for model in model_names():
        graph = build_model(model, "tiny")
        builder = PlanBuilder(graph, cluster,
                              Profiler(seed=0).profile(graph, cluster))
        sim = Simulator(builder.cost)
        for name in DP_BASELINES:
            dist, resident = builder.compile(
                dp_strategy(name, graph, cluster))
            kernel = lower(dist)
            # twice each device's resident state: a budget whose OOM
            # set depends on how far each order lets activations pile up
            tight = {d: 2 * resident.get(d, 0) for d in builder.capacities}
            sched = ListScheduler().schedule(
                dist, builder.cost, kernel=kernel, resident_bytes=resident,
                capacities=tight)
            kw = dict(resident_bytes=dict(resident), capacities=tight,
                      kernel=kernel)
            rank_order = ListScheduler()._rank_priorities(
                kernel, builder.cost)
            fifo = sim.run(dist, **kw)
            rank = sim.run(dist, order=rank_order, **kw)
            strict = sim.run(dist, order=rank_order, strict=True, **kw)
            earliest = sim.run(
                dist, order=fifo.start_order(), **kw)
            cut = sim.run(
                dist, order=sched.order,
                prune_above=PRUNE_FRACTION * sched.sim_result.makespan, **kw)
            out[f"dp/{model}/{name}"] = {
                "dist_ops": len(dist),
                "dist": _dist_sha(dist),
                "resident": _resident_sha(resident),
                "fifo": _run_entry(fifo),
                "rank": _run_entry(rank),
                "rank_strict": _run_entry(strict),
                "earliest": _run_entry(earliest),
                "chosen": sched.chosen,
                "chosen_order": _order_sha(kernel.names, sched.order),
                "prune": {"pruned": cut.pruned,
                          "makespan": _hex(cut.makespan)},
            }
    return out


#: fixed synthetic per-device peaks, as fractions of each device's
#: usable memory, for the pinned ladder rebalances: one overflowing
#: device, one unused, one half full and one just over
SYNTHETIC_PEAKS = (1.3, 0.0, 0.5, 1.05)


def seeds_answer() -> dict:
    """Every family's exploration seeds (tiny preset, four GPUs, the
    grouping the agent builds): a digest of each seed action vector,
    the per-op memory ladder's fingerprint as built and as rebalanced,
    and the group ladder rebalanced from fixed synthetic peaks."""
    cluster = cluster_4gpu()
    peaks = {d.device_id: f * d.usable_memory_bytes
             for d, f in zip(cluster.devices, SYNTHETIC_PEAKS)}
    out: Dict[str, dict] = {}
    for model in model_names():
        graph = build_model(model, "tiny")
        ctx = HeteroGAgent(cluster, _small_agent(0)).add_graph(graph)
        seeds = seed_action_vectors(graph, cluster, ctx.grouping)
        ladder = memory_ladder_strategy(graph, cluster)
        rebalanced = memory_ladder_strategy(
            graph, cluster, rebalance_weights(cluster, peaks))
        out[model] = {
            "seeds": [_sha([str(v.tolist())]) for v in seeds],
            "memory_ladder": ctx.builder.fingerprint(ladder)[:16],
            "memory_ladder_rebalanced":
                ctx.builder.fingerprint(rebalanced)[:16],
            "rebalanced_ladder": rebalanced_ladder(
                graph, cluster, ctx.grouping, peaks).tolist(),
        }
    return out


#: the pinned three-episode REINFORCE searches: vgg19 runs only the
#: trainer's sweep of exploration seeds; every other family runs without
#: seeds, so every episode's actions are drawn from the policy
REINFORCE_SEARCHES = (("vgg19", True), ("inception_v3", False),
                      ("mobilenet_v2", False), ("resnet200", False),
                      ("nasnet", False), ("transformer", False),
                      ("bert_large", False), ("xlnet_large", False))


def reinforce_search(model: str, use_seeds: bool, episodes: int = 3):
    """One tiny-preset REINFORCE search through the planning service:
    its answer, with the simulated time of every episode's candidate,
    and the searched graph's context."""
    graph = build_model(model, "tiny")
    agent = dataclasses.replace(_small_agent(0), use_seeds=use_seeds)
    request = PlanRequest(graph=graph, cluster=cluster_4gpu(),
                          episodes=episodes,
                          config=HeteroGConfig(seed=0, agent=agent))
    with telemetry.session() as tel, \
            PlanningService(workers=0, name="golden") as service:
        found = service.plan(request)
        pruned = _prune_counts(tel)
        ctx = service.context_for(request).agent.context(graph.name)
    plan = found.deployment
    return {"makespan": _hex(found.outcome.time),
            "winner": plan.fingerprint[:16],
            "chosen": plan.schedule.chosen,
            "chosen_order": _order_sha(plan.kernel.names,
                                       plan.schedule.order),
            "oom": list(found.outcome.oom_devices),
            "episodes": found.episodes,
            "episode_times": [_hex(t) for t in ctx.time_history],
            "pruned": pruned}, ctx


#: the pinned search past the seed queue: tiny vgg19's 15 exploration
#: seeds on four GPUs, then three episodes sampled from the policy
PAST_SEEDS_EPISODES = 18


def past_seeds_answer() -> dict:
    """The seeded vgg19 search run past its seeds: the sampled episodes
    and the reward baseline, which starts at the incumbent's reward."""
    answer, ctx = reinforce_search("vgg19", True, PAST_SEEDS_EPISODES)
    answer["baseline"] = _hex(ctx.baseline.value)
    return answer


#: the pinned multi-graph REINFORCE training: one policy, two graphs
MULTI_GRAPH_MODELS = ("transformer", "bert_large")


def multi_graph_answer() -> dict:
    """One policy trained over two tiny-preset graphs at once, the
    leave-one-out pretraining shape of the generalization experiment:
    every episode's candidate per graph, and each graph's winner."""
    cluster = cluster_4gpu()
    agent = HeteroGAgent(cluster, dataclasses.replace(_small_agent(3),
                                                      use_seeds=False))
    for model in MULTI_GRAPH_MODELS:
        agent.add_graph(build_model(model, "tiny"), name=model)
    with telemetry.session() as tel:
        agent.train(4)
        pruned = _prune_counts(tel)
    out: Dict[str, object] = {"pruned": pruned}
    for model in MULTI_GRAPH_MODELS:
        ctx = agent.context(model)
        winner = ctx.builder.fingerprint(agent.best_strategy(model))
        out[model] = {"best": _hex(agent.best_time(model)),
                      "winner": winner[:16],
                      "evaluations": ctx.builder.evals_total,
                      "episode_times": [_hex(t) for t in ctx.time_history]}
    return out


def cem_answers() -> Dict[str, dict]:
    """Two cross-entropy rounds of placement search (FIFO order)."""
    out: Dict[str, dict] = {}
    for model in ("inception_v3", "transformer"):
        graph = build_model(model, "tiny")
        with telemetry.session() as tel:
            search = PostSearch(graph, cluster_4gpu(), seed=0, max_groups=8)
            found = search.search(rounds=2, samples_per_round=8)
            pruned = _prune_counts(tel)
        out[f"cem/{model}"] = {
            "makespan": _hex(found.time),
            "winner": search.builder.fingerprint(found.strategy)[:16],
            "evaluations": found.evaluations,
            "pruned": pruned,
        }
    return out


def replan_answer() -> dict:
    """A GPU crash under a DP deployment: detection, a cold replan on
    the three survivors, and the resumed iterations."""
    cluster = cluster_4gpu()
    graph = build_model("transformer", "tiny")
    profile = Profiler(seed=0).profile(graph, cluster)
    deployment = PlanBuilder(graph, cluster, profile).build(
        dp_strategy("CP-AR", graph, cluster))
    injector = FaultInjector(cluster, FaultSchedule.parse("crash:gpu1@2"))
    engine = ExecutionEngine(cluster, seed=21, fault_injector=injector)
    replanner = Replanner(
        graph, cluster, config=HeteroGConfig(seed=5, agent=_small_agent(5)),
        episodes=2)
    trainer = ResilientTrainer(deployment, injector, engine=engine,
                               replanner=replanner)
    report = trainer.run(5)
    plan = trainer.deployment
    return {"iterations": [_hex(t) for t in report.iteration_times],
            "detections": [f"{d.iteration} {d.kind} {d.resource}"
                           for d in report.detections],
            "actions": [r.action for r in report.recoveries],
            "winner": plan.fingerprint[:16],
            "makespan": _hex(plan.sim_result.makespan),
            "chosen": plan.schedule.chosen}


#: the pinned multi-fault schedule: a straggler, a degraded server
#: link and a crash, so the faulted iterations price ``compute_scale``
#: and ``link_scale`` as well as a lost device
FAULT_SCHEDULE = "straggler:gpu2@1x2.5,degrade:server0@2x0.5,crash:gpu1@4"


def faults_answer() -> dict:
    """Three faults under a DP deployment: each detection, its replan
    and the iterations around them."""
    cluster = cluster_4gpu()
    graph = build_model("transformer", "tiny")
    profile = Profiler(seed=0).profile(graph, cluster)
    deployment = PlanBuilder(graph, cluster, profile).build(
        dp_strategy("CP-AR", graph, cluster))
    injector = FaultInjector(cluster, FaultSchedule.parse(FAULT_SCHEDULE))
    engine = ExecutionEngine(cluster, seed=21, fault_injector=injector)
    replanner = Replanner(
        graph, cluster, config=HeteroGConfig(seed=5, agent=_small_agent(5)),
        episodes=2)
    trainer = ResilientTrainer(deployment, injector, engine=engine,
                               replanner=replanner)
    report = trainer.run(8)
    plan = trainer.deployment
    return {"iterations": [_hex(t) for t in report.iteration_times],
            "detections": [f"{d.iteration} {d.kind} {d.resource}"
                           for d in report.detections],
            "actions": [r.action for r in report.recoveries],
            "winner": plan.fingerprint[:16],
            "makespan": _hex(plan.sim_result.makespan),
            "chosen": plan.schedule.chosen}


#: the pinned capacity schedule: a server arrives before any replan
#: (so the elastic policy prices it with a zero search-cost estimate,
#: never a measured wall-clock), then a preempt notice and a crash
ELASTIC_SCHEDULE = "server_join:v100@1x2,preempt:gpu1@3x2,crash:gpu3@6"


def elastic_answer(model: str) -> dict:
    """The capacity schedule under the ``replan`` and ``elastic``
    policies: an arrival, a drain (elastic) or the preempted device's
    crash (replan), and a crash.  Wall-clock fields (search seconds,
    downtime) are left out."""
    cluster = cluster_4gpu()
    graph = build_model(model, "tiny")
    profile = Profiler(seed=0).profile(graph, cluster)
    deployment = PlanBuilder(graph, cluster, profile).build(
        dp_strategy("CP-AR", graph, cluster))
    out: Dict[str, dict] = {}
    for policy in ("replan", "elastic"):
        injector = FaultInjector(cluster,
                                 FaultSchedule.parse(ELASTIC_SCHEDULE))
        engine = ExecutionEngine(cluster, seed=21, fault_injector=injector)
        replanner = Replanner(
            graph, cluster,
            config=HeteroGConfig(seed=5, agent=_small_agent(5)), episodes=2)
        trainer = ResilientTrainer(deployment, injector, engine=engine,
                                   replanner=replanner, policy=policy)
        report = trainer.run(9)
        plan = trainer.deployment
        out[policy] = {
            "iterations": [_hex(t) for t in report.iteration_times],
            "recoveries": [f"{r.iteration} {r.action} {r.trigger} "
                           f"{r.devices_after}" for r in report.recoveries],
            "winner": plan.fingerprint[:16]}
    return out


def _sweep_rows(rows) -> Dict[str, dict]:
    """Each sweep row in run order, without its wall-clock fields
    (MTTR, downtime and total include the replans' search seconds)."""
    return {f"{i:02d}": {
        "scenario": row.scenario,
        "policy": row.policy,
        "completed": row.report.completed_steps,
        "stalled": row.stalled,
        "iterations": [_hex(t) for t in row.report.iteration_times],
        "lost_work": _hex(row.report.lost_work),
        "recoveries": [f"{r.iteration} {r.action} {r.trigger} "
                       f"{r.devices_after} {r.plan_cache_hits}"
                       for r in row.report.recoveries]}
        for i, row in enumerate(rows)}


#: the pinned sweep scale: the benchmarks' ``--quick`` settings
SWEEP = dict(steps=6, episodes=2, replan_episodes=2, seed=0)


def sweep_answers() -> Dict[str, dict]:
    """The fault sweep (four GPUs) and the churn sweep (two GPUs) over
    their canonical scenarios, for tiny vgg19."""
    graphs = {"vgg19": build_model("vgg19", "tiny")}
    faults, churn = cluster_4gpu(), cluster_2gpu()
    return {
        "sweep/faults": _sweep_rows(resilience_sweep(
            faults, graphs, fault_scenarios(faults), ("replan", "ride"),
            **SWEEP)),
        "sweep/churn": _sweep_rows(resilience_sweep(
            churn, graphs, churn_scenarios(churn),
            ("elastic", "replan", "ride"), **SWEEP)),
    }


def random_faults_answer() -> Dict[str, list]:
    """Seeded random fault schedules on four GPUs, one per seed, as
    ``(iteration, kind, target, factor)`` tuples."""
    return {str(seed): [
        (e.iteration, e.kind.value, e.target, _hex(e.factor))
        for e in FaultSchedule.random(cluster_4gpu(), seed=seed, events=6)]
        for seed in range(10)}


def blame_answer() -> dict:
    """One build request through the planning service whose critical
    path crosses devices, links and NCCL: the blame fractions its
    flight record keeps, and every critical-path segment."""
    graph = build_model("inception_v3", "tiny")
    cluster = cluster_4gpu()
    names = graph.op_names
    chunks = [make_mp_strategy("gpu1"),
              make_dp_strategy(cluster, ReplicaAllocation.EVEN,
                               CommMethod.ALLREDUCE),
              make_dp_strategy(cluster, ReplicaAllocation.PROPORTIONAL,
                               CommMethod.PS),
              make_mp_strategy("gpu2")]
    strategy = Strategy(graph, cluster, {
        n: chunks[i * 4 // len(names)] for i, n in enumerate(names)})
    request = PlanRequest(graph=graph, cluster=cluster, strategy=strategy,
                          config=HeteroGConfig(seed=0))
    with PlanningService(workers=0, name="golden") as service:
        found = service.plan(request)
        blame = service.recorder.get(request.request_id).blame
    report = critical_path(found.deployment.dist,
                           found.deployment.sim_result)
    return {"blame": {k: _hex(v) for k, v in blame.items()},
            "segments": _sha([
                f"{s.op} {s.kind} {s.resource} {_hex(s.start)} "
                f"{_hex(s.end)} {s.blocked_by}" for s in report.segments])}


#: the pinned paper-experiment scale: tiny models, seed-only searches
EXPERIMENTS = dict(preset="tiny", episodes=4)


def _measured(m) -> dict:
    """One engine-measured row: its time, strategy mix and the
    engine's breakdown (no wall-clock field)."""
    return {"time": _hex(m.time), "oom": m.oom,
            "mix": {k: _hex(v) for k, v in sorted(m.mix.items())},
            "extras": {k: _hex(m.extras[k]) for k in sorted(m.extras)
                       if k != "search_seconds"}}


def experiments_answer() -> dict:
    """Tiny-preset rows of the paper experiments that search and measure:
    Table 1 and Table 7 (two models, four GPUs), Fig 3a, Fig 8, Fig 9
    (one model) and the communication and grouping ablations."""
    cluster = cluster_4gpu()
    models = ["vgg19", "transformer"]
    table1 = per_iteration_table(cluster, 8, models=models,
                                 include_large=False, **EXPERIMENTS)
    table7 = order_scheduling_table(cluster, models=models, **EXPERIMENTS)
    fig3a = fig3a_proportional_allocation(
        preset="tiny", models=["vgg19", "inception_v3"])
    fig8 = fig8_time_breakdown(**EXPERIMENTS)
    fig9 = fig9_existing_schemes(models=["inception_v3"], **EXPERIMENTS)
    ablations = {
        "communication": communication_ablation(cluster, **EXPERIMENTS),
        "grouping": grouping_ablation(cluster, **EXPERIMENTS)}
    return {
        "table1": {row.model: {
            "heterog": _measured(row.heterog),
            "baselines": {name: _measured(m)
                          for name, m in row.baselines.items()}}
            for row in table1},
        "table7": {row.model: {"with_order": _hex(row.with_order),
                               "fifo": _hex(row.fifo)} for row in table7},
        "fig3a": {p.model: {"even": _hex(p.even),
                            "proportional": _hex(p.proportional)}
                  for p in fig3a},
        "fig8": {f"{b.model}/{b.scheme}": {
            "per_iteration": _hex(b.per_iteration),
            "computation": _hex(b.computation),
            "communication": _hex(b.communication)} for b in fig8},
        "fig9": {b.model: {k: _hex(v) for k, v in sorted(b.speeds.items())}
                 for b in fig9},
        "ablations": {name: {r.variant: {"time": _hex(r.time), "oom": r.oom}
                             for r in rows}
                      for name, rows in ablations.items()},
    }


def fusion_answer() -> Dict[str, str]:
    """The gradient-fusion sweep (tiny resnet200, four GPUs): every
    variant's engine-measured time, unfused and per bucket size."""
    rows = fusion_ablation(cluster_4gpu(), preset="tiny")
    return {row.variant: _hex(row.time) for row in rows}


def compute_answers() -> dict:
    """Every golden entry, in the form a JSON round trip gives back."""
    answers = {"_note": NOTE}
    answers.update(dp_answers())
    answers.update(cem_answers())
    answers["seeds/tiny"] = seeds_answer()
    for model, use_seeds in REINFORCE_SEARCHES:
        answers[f"reinforce/{model}"] = reinforce_search(model, use_seeds)[0]
    answers["reinforce/vgg19_past_seeds"] = past_seeds_answer()
    answers["reinforce/multi_graph"] = multi_graph_answer()
    answers["replan/transformer"] = replan_answer()
    answers["faults/transformer"] = faults_answer()
    answers["elastic/transformer"] = elastic_answer("transformer")
    answers.update(sweep_answers())
    answers["random/faults"] = random_faults_answer()
    answers["service/blame"] = blame_answer()
    answers["experiments/tiny"] = experiments_answer()
    answers["experiments/fusion"] = fusion_answer()
    return json.loads(json.dumps(answers))


def load_answers() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def _leaves(value, path: str = "") -> Dict[str, object]:
    """``value`` flattened to ``{dotted key path: leaf value}``; lists
    are leaves."""
    if not isinstance(value, dict):
        return {path: value}
    out: Dict[str, object] = {}
    for key in value:
        out.update(_leaves(value[key], f"{path}.{key}" if path else key))
    return out


class _Absent:
    def __repr__(self) -> str:
        return "<absent>"


_ABSENT = _Absent()


def differences(expected: dict, actual: dict
                ) -> List[Tuple[str, str, object, object]]:
    """``(entry, key path, committed, now)`` for every differing leaf; a
    missing side is ``<absent>``."""
    out = []
    for entry in sorted(set(expected) | set(actual)):
        old = _leaves(expected.get(entry, {}))
        new = _leaves(actual.get(entry, {}))
        for key in sorted(set(old) | set(new)):
            a, b = old.get(key, _ABSENT), new.get(key, _ABSENT)
            if a != b:
                out.append((entry, key, a, b))
    return out


def diff(expected: dict, actual: dict) -> List[str]:
    """One line per differing key: ``entry key: committed -> now``."""
    return [f"{entry} {key}: {a!r} -> {b!r}" if key
            else f"{entry}: {a!r} -> {b!r}"
            for entry, key, a, b in differences(expected, actual)]


def key_counts(expected: dict, actual: dict) -> Dict[str, int]:
    """How many differing keys each key name (the last part of the
    path) accounts for."""
    return dict(Counter(key.rsplit(".", 1)[-1] or entry
                        for entry, key, _, _ in differences(expected,
                                                            actual)))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against answers.json, exit 1 on "
                             "any difference instead of rewriting it")
    args = parser.parse_args(argv)
    actual = compute_answers()
    if args.check:
        committed = load_answers()
        problems = diff(committed, actual)
        for line in problems:
            print(line)
        for name, count in sorted(key_counts(committed, actual).items()):
            print(f"{name}: {count} differ")
        entries = {entry for entry, *_ in differences(committed, actual)}
        print(f"golden answers: {len(actual) - 1} entries, "
              f"{len(entries)} differ")
        return 1 if problems else 0
    with open(PATH, "w") as fh:
        json.dump(actual, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(actual) - 1} entries to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
