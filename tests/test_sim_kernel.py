"""Golden-equivalence suite for the array-lowered simulation kernel.

``Simulator.run`` must be *bit-identical* to the original dict-based
event loop, which lives in the test oracle (``tests.oracle``).  These
tests pair the two loops over compiled model graphs and crafted edge
cases and compare every observable: the full schedule trace, makespan,
busy/overlap metrics, peak memory, the OOM device set, the prune
verdict, and — for deadlocks and lost devices — the exact error.  Under
the truth model the jitter generator must also end each run in the
oracle's state, so the next run draws the same stream.
"""

from __future__ import annotations

import gc
import pickle
import random
import weakref

import numpy as np
import pytest

from repro import telemetry
from repro.agent import AgentConfig
from repro.cluster import cluster_4gpu, cluster_8gpu
from repro.config import HeteroGConfig
from repro.errors import SimulationError
from repro.graph.models import build_model
from repro.parallel.compiler import GraphCompiler
from repro.parallel.distgraph import DistGraph, DistOp, DistOpKind
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
    FaultOverlay,
    FaultSchedule,
    ResilientTrainer,
)
from repro.runtime import ExecutionEngine
from repro.scheduling import FifoScheduler, ListScheduler
from repro.scheduling.ranking import DEFAULT_COMM_WEIGHT, kernel_ranks
from repro.simulation import ProfileCostModel, Simulator, TruthCostModel
from repro.simulation.costs import MappingCostModel
from repro.service import PlanningService, PlanRequest
from repro.simulation.kernel import lower
from repro.simulation.metrics import RunTimes

from tests.helpers import exact_profile, make_mlp
from tests.oracle import (
    op_duration,
    reference_busy,
    run_reference,
    trace_order,
)


def assert_results_identical(a, b) -> None:
    """Every observable of a SimulationResult and another run's result
    (the oracle's record, or another SimulationResult) must match
    exactly, dicts in the same insertion order (the failure detector
    scans ``device_busy`` and ``link_busy`` in that order)."""
    assert a.makespan == b.makespan
    assert list(a.device_busy.items()) == list(b.device_busy.items())
    assert list(a.link_busy.items()) == list(b.link_busy.items())
    assert a.communication_time == b.communication_time
    assert a.computation_wall == b.computation_wall
    assert a.peak_memory == b.peak_memory
    assert a.oom_devices == b.oom_devices
    assert list(a.schedule.items()) == list(b.schedule.items())
    assert a.pruned == b.pruned
    names = a._times.names
    if len(b.schedule) == len(names):
        # the scheduler's ``earliest`` order, read from the run's arrays
        assert a.start_order().tolist() == trace_order(names, b.schedule)


def _outcome(run):
    try:
        return run()
    except SimulationError as exc:
        return exc


def assert_same_rng_state(cost, ref_cost) -> None:
    """A jittered provider must leave its generator where the oracle's
    scalar draws leave the oracle provider's."""
    rng = getattr(cost, "_rng", None)
    if rng is not None:
        assert rng.bit_generator.state == ref_cost._rng.bit_generator.state


def run_pair(make_cost, dist, **kw):
    """Run the simulator and the oracle, each on its own fresh cost
    provider; compare outcome or error and the jitter generator's state.
    A stochastic provider runs twice back to back.  Returns the first
    run's result (None when it raised)."""
    cost, ref_cost = make_cost(), make_cost()
    first = None
    for rerun in range(1 if getattr(cost, "deterministic", False) else 2):
        a = _outcome(lambda: Simulator(cost).run(dist, **kw))
        b = _outcome(lambda: run_reference(ref_cost, dist, **kw))
        if isinstance(a, SimulationError) or isinstance(b, SimulationError):
            # same type, text and fields (DeviceLostError's device, op)
            assert type(a) is type(b)
            assert str(a) == str(b)
            assert vars(a) == vars(b)
        else:
            assert_results_identical(a, b)
            if not rerun:
                first = a
        assert_same_rng_state(cost, ref_cost)
    return first


def reference_ranks(cost, kernel) -> list:
    """Upward ranks from :func:`op_duration` op by op, in reverse
    topological order (the draw order ranking has always used)."""
    ranks = [0.0] * kernel.n
    for i in reversed(kernel.topo):
        duration = op_duration(cost, kernel.ops[i])
        if kernel.is_comm[i]:
            duration *= DEFAULT_COMM_WEIGHT
        ranks[i] = duration + max((ranks[s] for s in kernel.succ[i]),
                                  default=0.0)
    return ranks


def ranks_pair(make_cost, dist) -> None:
    """``kernel_ranks`` against :func:`reference_ranks`, twice back to
    back: same ranks or error, same generator state."""
    kernel = lower(dist)
    cost, ref_cost = make_cost(), make_cost()
    for _ in range(2):
        a = _outcome(lambda: kernel_ranks(kernel, cost))
        b = _outcome(lambda: reference_ranks(ref_cost, kernel))
        if isinstance(b, SimulationError):
            assert type(a) is type(b) and vars(a) == vars(b)
        else:
            assert a == b
        assert_same_rng_state(cost, ref_cost)


# --------------------------------------------------------------------- #
# paired fuzz over compiled model graphs
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module", params=["inception_v3", "bert_large"])
def compiled(request):
    model = request.param
    cluster = cluster_4gpu() if model == "inception_v3" else cluster_8gpu()
    graph = build_model(model, "tiny")
    profile = Profiler(seed=0).profile(graph, cluster)
    rng = random.Random(1234)
    options = [make_mp_strategy(d) for d in cluster.device_ids]
    for alloc in (ReplicaAllocation.EVEN, ReplicaAllocation.PROPORTIONAL):
        for comm in (CommMethod.PS, CommMethod.ALLREDUCE):
            options.append(make_dp_strategy(cluster, alloc, comm))
    strategy = Strategy(
        graph, cluster, {n: rng.choice(options) for n in graph.op_names}
    )
    compiler = GraphCompiler(ProfileCostModel(cluster, profile))
    dist = compiler.compile(graph, strategy)
    caps = {d.device_id: d.usable_memory_bytes for d in cluster.devices}
    return cluster, profile, dist, dict(dist.resident_bytes), caps


def _faulted(overlay_of):
    """A jittered truth model under the overlay ``overlay_of(cluster)``."""
    def make(cluster, profile):
        cost = TruthCostModel(cluster, jitter_sigma=0.05,
                              rng=np.random.default_rng(7))
        cost.set_fault_overlay(overlay_of(cluster))
        return cost
    return make


COST_MAKERS = [
    ("profile", lambda cl, pr: ProfileCostModel(cl, pr)),
    ("truth-jitter", lambda cl, pr: TruthCostModel(
        cl, jitter_sigma=0.05, rng=np.random.default_rng(7))),
    ("truth-exact", lambda cl, pr: TruthCostModel(
        cl, jitter_sigma=0.0, rng=np.random.default_rng(7))),
    # every random strategy of the fixture places ops on every GPU
    ("truth-crash", _faulted(lambda cl: FaultOverlay(
        failed_devices=frozenset({cl.device_ids[1]})))),
    ("truth-straggler", _faulted(lambda cl: FaultOverlay(
        compute_scale={cl.device_ids[2]: 2.0}))),
    ("truth-degraded", _faulted(lambda cl: FaultOverlay(link_scale={
        (cl.device_ids[0], cl.device_ids[-1]): 0.5,
        (cl.device_ids[-1], cl.device_ids[0]): 0.5}))),
]


#: prune thresholds, as fractions of the unpruned makespan
PRUNE_FRACTIONS = (0.3, 0.6, 0.9, 0.999)


@pytest.mark.parametrize("cost_name,make", COST_MAKERS,
                         ids=[c[0] for c in COST_MAKERS])
def test_engines_identical_on_compiled_graphs(compiled, cost_name, make):
    cluster, profile, dist, resident, caps = compiled
    ranks_pair(lambda: make(cluster, profile), dist)
    n = len(dist)
    perm = list(range(n))
    random.Random(99).shuffle(perm)
    orders = [
        None,                                          # FIFO (tie counter)
        list(range(n)),                                # distinct priorities
        perm,                                          # shuffled distinct
        [p % 7 for p in perm],                         # heavy ties
    ]
    for order in orders:
        for strict in (False, True) if order is not None else (False,):
            kw = dict(order=order, resident_bytes=dict(resident),
                      capacities=caps, strict=strict)
            full = run_pair(lambda: make(cluster, profile), dist, **kw)
            # mid-simulation pruning: the prune verdict and the partial
            # makespan must match too, from early cuts to near-misses
            for frac in PRUNE_FRACTIONS if full is not None else ():
                run_pair(lambda: make(cluster, profile), dist,
                         prune_above=frac * full.makespan, **kw)


@pytest.mark.parametrize("cost_name,make", COST_MAKERS,
                         ids=[c[0] for c in COST_MAKERS])
def test_order_runs_match_priority_runs(compiled, cost_name, make):
    """``run(order=)`` with an int32 array against the oracle's run of
    the name-keyed priorities that order names: distinct and tied
    priorities, strict on and off, and back to back under jitter, a
    full run and then one pruned at a fraction of its makespan."""
    cluster, profile, dist, resident, caps = compiled
    perm = list(range(len(dist)))
    random.Random(5).shuffle(perm)
    for order in (perm, [p % 7 for p in perm]):
        for strict in (False, True):
            for frac in (None, 0.6):
                cost, ref_cost = make(cluster, profile), make(cluster, profile)
                kw = dict(resident_bytes=dict(resident), capacities=caps,
                          strict=strict)
                for _ in range(2):
                    a = _outcome(lambda: Simulator(cost).run(
                        dist, order=np.array(order, dtype=np.int32), **kw))
                    b = _outcome(lambda: run_reference(
                        ref_cost, dist, order=order, **kw))
                    if isinstance(b, SimulationError):
                        assert type(a) is type(b) and str(a) == str(b)
                        continue
                    assert_results_identical(a, b)
                    if frac is not None:
                        kw["prune_above"] = frac * b.makespan
                assert_same_rng_state(cost, ref_cost)


def test_engine_order_iterations_match_priority_runs(compiled):
    """Jittered engine iterations under a fault overlay run a plan's
    ``order``; each equals the oracle's run of the priorities that
    order names on a twin engine's provider, for the scheduler's order
    and a FIFO one."""
    cluster, profile, dist, resident, caps = compiled
    overlay = FaultOverlay(
        compute_scale={cluster.device_ids[2]: 2.0},
        link_scale={(cluster.device_ids[0], cluster.device_ids[-1]): 0.5})
    for schedule in (
            ListScheduler().schedule(dist, ProfileCostModel(cluster, profile)),
            FifoScheduler(seed=3).schedule(dist)):
        engine, twin = (ExecutionEngine(cluster, seed=11) for _ in range(2))
        engine.cost.set_fault_overlay(overlay)
        twin.cost.set_fault_overlay(overlay)
        for _ in range(3):
            a = engine.run_iteration(dist, schedule, resident,
                                     check_memory=False)
            b = run_reference(
                twin.cost, dist, order=schedule.order,
                resident_bytes=resident, capacities=twin.capacities)
            assert_results_identical(a, b)
        assert engine.rng.bit_generator.state \
            == twin.rng.bit_generator.state


#: the providers under which a run completes (a crash raises)
COMPLETING = [c for c in COST_MAKERS if c[0] != "truth-crash"]


@pytest.mark.parametrize("cost_name,make", COMPLETING,
                         ids=[c[0] for c in COMPLETING])
def test_split_busy_matches_one_pass_derivation(compiled, cost_name, make):
    """The busy dicts and the two walls, derived apart, equal the
    one-pass derivation bit for bit, dicts in the same order; for a
    full and a pruned run."""
    cluster, profile, dist, resident, caps = compiled
    sim = Simulator(make(cluster, profile))
    full = sim.run(dist, resident_bytes=dict(resident), capacities=caps)
    cut = sim.run(dist, resident_bytes=dict(resident), capacities=caps,
                  prune_above=0.6 * full.makespan)
    assert cut.pruned
    for result in (full, cut):
        device, link, comm, wall = reference_busy(result._times)
        assert list(result.device_busy.items()) == list(device.items())
        assert list(result.link_busy.items()) == list(link.items())
        assert result.communication_time == comm
        assert result.computation_wall == wall


def test_order_of_wrong_length_raises(compiled):
    cluster, profile, dist, resident, caps = compiled
    sim = Simulator(ProfileCostModel(cluster, profile))
    n = len(dist)
    with pytest.raises(SimulationError, match="order has"):
        sim.run(dist, order=np.arange(n - 1, dtype=np.int32))
    with pytest.raises(SimulationError, match="order has"):
        sim.run(dist, order=list(range(n + 1)))


def test_memory_pressure_oom_sets_identical(compiled):
    """Shrunken capacities force OOM; simulator and oracle must flag the
    same devices at the same peaks."""
    cluster, profile, dist, resident, caps = compiled
    tight = {d: max(1, int(c * 1e-4)) for d, c in caps.items()}
    result = run_pair(
        lambda: ProfileCostModel(cluster, profile), dist,
        resident_bytes=dict(resident), capacities=tight)
    assert result is not None and result.oom


# --------------------------------------------------------------------- #
# paired fuzz under heavy contention
# --------------------------------------------------------------------- #
#: the shared resource pool: two directed links (an AllReduce over
#: gpu0/gpu1 holds both plus the NCCL token) and two NIC ports
_LINKS = ("link:gpu0->gpu1", "link:gpu1->gpu0")
_NICS = ("nic:0", "nic:1")


def _contended_graph(rng: random.Random, index: int):
    """A random DAG whose ops hold 1-3 resources from a pool of five, in
    random order, so many ops wait on the same resources and often
    block on a different one from where they are parked; multi-resource
    ops free several resources with one completion."""
    g = DistGraph(f"contended{index}")
    durations = {}
    integral = index % 2 == 0  # whole-number durations: many equal times
    for k in range(rng.randint(8, 18)):
        name = f"op{k}"
        roll = rng.random()
        if roll < 0.2:
            op = DistOp(name, DistOpKind.SPLIT,
                        device=rng.choice(("gpu0", "gpu1")),
                        size_bytes=rng.choice((64.0, 256.0)))
        elif roll < 0.3:
            op = DistOp(name, DistOpKind.ALLREDUCE, devices=("gpu0", "gpu1"),
                        size_bytes=rng.choice((64.0, 256.0)))
        else:
            src = rng.randrange(2)
            others = [r for r in _LINKS + _NICS if r != _LINKS[src]]
            op = DistOp(name, DistOpKind.TRANSFER, src_device=f"gpu{src}",
                        dst_device=f"gpu{1 - src}",
                        size_bytes=rng.choice((64.0, 256.0, 1024.0)),
                        extra_resources=tuple(
                            rng.sample(others, rng.randint(0, 2))))
        deps = [f"op{j}" for j in range(k) if rng.random() < 0.15]
        g.add(op, deps=deps)
        durations[name] = (float(rng.randint(1, 3)) if integral
                           else rng.uniform(0.5, 3.0))
    return g, durations


def test_engines_identical_under_heavy_contention():
    """FIFO, distinct, shuffled-distinct and tied priorities, strict on
    and off, every prune threshold: the early-stop wait queues must
    match the full re-scan oracle on every observable."""
    rng = random.Random(2024)
    for index in range(200):
        dist, durations = _contended_graph(rng, index)
        n = len(dist)
        perm = list(range(n))
        rng.shuffle(perm)
        orders = [None, list(range(n)), perm, [p % 3 for p in perm]]
        caps = {"gpu0": rng.choice((300, 2000)), "gpu1": 2000}
        for order in orders:
            for strict in (False, True) if order is not None else (False,):
                kw = dict(order=order, capacities=caps, strict=strict)
                cost = MappingCostModel(durations)
                full = run_pair(lambda: cost, dist, **kw)
                for frac in PRUNE_FRACTIONS if full is not None else ():
                    run_pair(lambda: cost, dist,
                             prune_above=frac * full.makespan, **kw)


# --------------------------------------------------------------------- #
# crafted edge cases
# --------------------------------------------------------------------- #
def _chain_graph() -> DistGraph:
    g = DistGraph("chain")
    for i in range(4):
        g.add(DistOp(f"op{i}", DistOpKind.SPLIT, device="gpu0",
                     size_bytes=64.0),
              deps=[f"op{i - 1}"] if i else [])
    return g


def test_cycle_deadlock_messages_byte_equal():
    """A cycle (crafted with a back edge, like the engine edge-case tests
    do) must deadlock both loops with the same text."""
    g = _chain_graph()
    g.add_edge("op3", "op0")
    cost = MappingCostModel({}, default=1.0)
    run_pair(lambda: cost, g)


def test_strict_priority_inversion_deadlock():
    """Strict mode with priorities that invert the DAG order deadlocks;
    the error text must match the oracle byte for byte."""
    g = _chain_graph()
    inverted = [10 - i for i in range(4)]
    cost = MappingCostModel({}, default=1.0)
    run_pair(lambda: cost, g, order=inverted, strict=True)


# --------------------------------------------------------------------- #
# kernel caching semantics
# --------------------------------------------------------------------- #
def test_lowering_cached_until_mutation():
    g = _chain_graph()
    k1 = lower(g)
    assert lower(g) is k1
    g.add(DistOp("tail", DistOpKind.SPLIT, device="gpu0", size_bytes=1.0),
          deps=["op3"])
    k2 = lower(g)
    assert k2 is not k1
    assert k2.version == g.version
    assert k2.n == len(g)


def test_dropped_graph_is_freed_without_a_collection():
    """A graph owns its kernel and the kernel points back weakly: a
    compiled graph nothing else holds is freed at once, not at the next
    cyclic collection, and a pickled graph keeps its kernel's link."""
    cluster = cluster_4gpu()
    graph = make_mlp(name="freed")
    dist = GraphCompiler(ProfileCostModel(
        cluster, exact_profile(graph, cluster))).compile(
        graph, Strategy(graph, cluster, {
            n: make_mp_strategy("gpu0") for n in graph.op_names}))
    kernel = lower(dist)
    assert kernel.graph is dist
    copy = pickle.loads(pickle.dumps(dist))
    assert lower(copy).graph is copy
    assert [op.name for op in lower(copy).ops] == kernel.names
    gone = weakref.ref(dist)
    gc.disable()
    try:
        del dist, kernel
        assert gone() is None
    finally:
        gc.enable()


def test_duration_array_cached_per_deterministic_provider():
    g = _chain_graph()
    kernel = lower(g)
    det = MappingCostModel({}, default=2.0)
    first = kernel.durations_for(det)
    assert first == [2.0] * len(g)
    assert kernel.durations_for(det) is first
    stochastic = TruthCostModel(cluster_4gpu(), jitter_sigma=0.1,
                                rng=np.random.default_rng(3))
    assert kernel.durations_for(stochastic) is None


def test_topo_matches_graph_topological_order():
    g = _chain_graph()
    kernel = lower(g)
    assert [kernel.names[i] for i in kernel.topo] == g.topological_order()
    assert not kernel.has_cycle


# --------------------------------------------------------------------- #
# single-pass scheduling through the plan layer
# --------------------------------------------------------------------- #
def test_cold_evaluate_runs_exactly_two_simulations():
    """Single-pass scheduling: a cold evaluate costs the two candidate-
    order simulations and nothing more (the winner's result is reused)."""
    cluster = cluster_4gpu()
    graph = build_model("vgg19", "tiny")
    profile = Profiler(seed=0).profile(graph, cluster)
    strategy = Strategy(
        graph, cluster,
        {n: make_dp_strategy(cluster, ReplicaAllocation.EVEN, CommMethod.PS)
         for n in graph.op_names},
    )
    builder = PlanBuilder(graph, cluster, profile)
    with telemetry.session() as tel:
        outcome = builder.evaluate(strategy)
        runs = tel.registry.get("sim_runs_total")
        assert runs is not None and runs.value == 2
    plan = builder.build(strategy)
    assert outcome.time == plan.sim_result.makespan
    assert outcome.peak_memory == plan.sim_result.peak_memory
    assert outcome.oom_devices == plan.sim_result.oom_devices


def test_plan_reuses_one_lowering_for_schedule_and_resimulation():
    cluster = cluster_4gpu()
    graph = build_model("vgg19", "tiny")
    profile = Profiler(seed=0).profile(graph, cluster)
    strategy = Strategy(
        graph, cluster,
        {n: make_mp_strategy(cluster.device_ids[0])
         for n in graph.op_names},
    )
    builder = PlanBuilder(graph, cluster, profile)
    plan = builder.build(strategy)
    assert plan.kernel is lower(plan.dist)
    resim = Simulator(builder.cost).run(
        plan.dist, order=plan.schedule.order,
        resident_bytes=dict(plan.resident_bytes),
        capacities=dict(plan.capacities), kernel=plan.kernel)
    assert resim.makespan == plan.sim_result.makespan


# --------------------------------------------------------------------- #
# breakdowns derived on read
# --------------------------------------------------------------------- #
def test_pickled_result_derives_the_same_fields(compiled):
    """The process fleet ships outcomes between processes: a result
    pickled before any breakdown was read derives the same fields, in
    the same order, whether complete or cut by a prune."""
    cluster, profile, dist, resident, caps = compiled
    simulator = Simulator(ProfileCostModel(cluster, profile))
    kw = dict(resident_bytes=dict(resident), capacities=caps)
    full = simulator.run(dist, **kw)
    cut = simulator.run(dist, prune_above=0.6 * full.makespan, **kw)
    assert cut.pruned
    for result in (full, cut):
        copy = pickle.loads(pickle.dumps(result))
        assert "device_busy" not in vars(copy)
        assert_results_identical(copy, result)


def test_planning_derives_no_breakdown_but_the_detector_does(monkeypatch):
    """A REINFORCE search and an engine-measured build through the
    planning service read makespans, memory verdicts and orders (and
    the winner's trace, for blame), so no run derives its busy
    breakdown.  The failure detector reads the busy dicts on every
    iteration, and never the two walls."""
    derived = []
    walls = []
    busy = RunTimes.resource_busy
    wall = RunTimes.walls
    monkeypatch.setattr(RunTimes, "resource_busy",
                        lambda self: derived.append(self) or busy(self))
    monkeypatch.setattr(RunTimes, "walls",
                        lambda self: walls.append(self) or wall(self))
    graph = make_mlp(name="lazy_mlp")
    cluster = cluster_4gpu()
    config = HeteroGConfig(seed=0, agent=AgentConfig(
        max_groups=8, gat_hidden=16, gat_layers=2, gat_heads=2,
        strategy_dim=16, strategy_heads=2, strategy_layers=1))
    with PlanningService(workers=0, name="lazy") as service:
        found = service.plan(PlanRequest(graph=graph, cluster=cluster,
                                         episodes=3, config=config))
        measured = service.plan(PlanRequest(
            graph=graph, cluster=cluster, strategy=found.strategy,
            measure_iterations=2, config=config))
    assert measured.measured_time is not None
    assert derived == []
    trainer = ResilientTrainer(
        found.deployment, FaultInjector(cluster, FaultSchedule.empty()),
        engine=ExecutionEngine(cluster, seed=3), policy="ride")
    trainer.run(3)
    assert len(derived) == 3
    assert walls == []
