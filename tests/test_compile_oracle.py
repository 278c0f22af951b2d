"""Paired fuzz: the one-pass ``GraphCompiler`` against the reference
compiler kept in ``tests/oracle``.

For every drawn (model family, cluster, strategy) both
compilers must produce the same distributed graph field for field: op
insertion order and names (``#n`` suffixes included), every ``DistOp``
field, per-op edge order, ``instances``, ``resident_bytes`` (order and
values) and ``version``.  The kernel the compile attaches must equal an
independent lowering of the finished graph, its recipe pricing
(``ProfileCostModel.prices``) must equal ``duration`` op by op, and every
``CompileError`` must carry the same text.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.dp import all_dp_strategies
from repro.cluster import cluster_4gpu, cluster_8gpu, cluster_12gpu
from repro.graph.dag import ComputationGraph
from repro.graph.models import build_model, model_names
from repro.graph.op import Operation, OpPhase, TensorSpec
from repro.parallel import GraphCompiler
from repro.parallel.strategy import (
    CommMethod,
    OpStrategy,
    ParallelKind,
    ReplicaAllocation,
    Strategy,
    make_dp_strategy,
    make_mp_strategy,
    uniform_strategy,
)
from repro.profiling import Profiler
from repro.simulation import ProfileCostModel
from repro.simulation.kernel import lower
from repro.simulation.memory import charge_device, output_bytes

from tests.oracle import op_duration
from tests.oracle.compiler import ReferenceCompiler

CLUSTERS = {"cluster_4gpu": cluster_4gpu, "cluster_8gpu": cluster_8gpu}


@functools.lru_cache(maxsize=None)
def _context(model: str, cluster_name: str):
    """Graph, cluster, profile and one shared new compiler (so its
    per-graph tables are reused across drawn strategies)."""
    graph = build_model(model, "tiny")
    cluster = CLUSTERS[cluster_name]()
    profile = Profiler(seed=0).profile(graph, cluster)
    return graph, cluster, profile, GraphCompiler(cluster, profile)


def _options(cluster, rng: random.Random):
    """MP on every device, the four DP baselines, and one random partial
    DP allocation (uneven shares force Concat/Split routing)."""
    options = [make_mp_strategy(d) for d in cluster.device_ids]
    for alloc in ReplicaAllocation:
        for comm in CommMethod:
            options.append(make_dp_strategy(cluster, alloc, comm))
    devices = rng.sample(cluster.device_ids, rng.randint(2, 3))
    options.append(OpStrategy(
        ParallelKind.DP, replicas={d: rng.randint(1, 3) for d in devices},
        comm=rng.choice(list(CommMethod)),
        allocation=ReplicaAllocation.PROPORTIONAL))
    return options


def _draw_strategy(graph, cluster, kind: str, seed: int) -> Strategy:
    rng = random.Random(seed)
    if kind == "dp":
        dps = all_dp_strategies(graph, cluster)
        return dps[sorted(dps)[seed % len(dps)]]
    options = _options(cluster, rng)
    names = graph.op_names
    if kind == "per_op":
        return Strategy(graph, cluster,
                        {n: rng.choice(options) for n in names})
    # per group: contiguous chunks of the op order share one decision
    chosen = [rng.choice(options) for _ in range(4)]
    return Strategy(graph, cluster, {
        n: chosen[i * 4 // len(names)] for i, n in enumerate(names)})


# --------------------------------------------------------------------- #
def _graph_fields(dist):
    ops = []
    for op in dist:
        ops.append((op.name, op.kind, id(op.source_op), op.device,
                    op.src_device, op.dst_device, tuple(op.devices),
                    float(op.size_bytes).hex(),
                    float(op.batch_fraction).hex(), op.hierarchical,
                    tuple(op.extra_resources)))
    names = dist.op_names
    return {
        "name": dist.name,
        "ops": ops,
        "pred": [dist.predecessors(n) for n in names],
        "succ": [dist.successors(n) for n in names],
        "instances": list(dist.instances.items()),
        "version": dist.version,
    }


def _independent_lowering(dist):
    """Kernel arrays computed straight from the public DistOp API."""
    resources, res_ids = {}, []
    mem_devs, charge, nbytes = {}, [], []
    for op in dist:
        res_ids.append(tuple(resources.setdefault(r, len(resources))
                             for r in op.resources()))
        device = charge_device(op)
        if device is None:
            charge.append(-1)
            nbytes.append(0.0)
        else:
            charge.append(mem_devs.setdefault(device, len(mem_devs)))
            nbytes.append(output_bytes(op).hex())
    return {"resource_names": list(resources), "res_ids": res_ids,
            "mem_dev_names": list(mem_devs), "charge_dev": charge,
            "out_bytes": nbytes,
            "kind_values": [op.kind.value for op in dist],
            "is_comm": [op.is_communication for op in dist]}


def _kernel_fields(kernel):
    return {"resource_names": kernel.resource_names,
            "res_ids": kernel.res_ids,
            "mem_dev_names": kernel.mem_dev_names,
            "charge_dev": kernel.charge_dev,
            "out_bytes": [b if c < 0 else b.hex()
                          for b, c in zip(kernel.out_bytes, kernel.charge_dev)],
            "kind_values": kernel.kind_values,
            "is_comm": kernel.is_comm}


def _compile_both(compiler, graph, cluster, profile, strategy):
    """(result, error) of the new and the reference compiler."""
    results = []
    for make in (lambda: compiler,
                 lambda: ReferenceCompiler(cluster, profile)):
        comp = make()
        try:
            dist = comp.compile(graph, strategy)
        except Exception as exc:  # parity of every failure, text included
            results.append((None, (type(exc), str(exc))))
        else:
            resident = (dist.resident_bytes if comp is compiler
                        else comp.resident_bytes)
            results.append(((dist, list(resident.items())), None))
    return results


def _assert_same(new, ref, make_cost=None):
    (dist, resident), error = new
    (ref_dist, ref_resident), ref_error = ref
    assert error == ref_error
    assert _graph_fields(dist) == _graph_fields(ref_dist)
    assert resident == ref_resident
    # the compile attached its kernel: lowering is a lookup, no walk
    kernel = dist._sim_kernel
    assert kernel is not None and lower(dist) is kernel
    assert kernel.version == dist.version
    assert _kernel_fields(kernel) == _independent_lowering(ref_dist)
    ref_kernel = lower(ref_dist)
    for field in ("names", "succ", "pred", "pred_count",
                  "succ_count", "sources", "is_link", "is_compute",
                  "mem_dev_index", "topo", "has_cycle"):
        assert getattr(kernel, field) == getattr(ref_kernel, field), field
    if make_cost is not None:
        # recipe pricing against the per-op reference, bit for bit, each
        # on its own provider so neither reads the other's caches
        priced = [d.hex() for d in make_cost().prices(kernel)]
        cost = make_cost()
        assert priced == [op_duration(cost, op).hex() for op in kernel.ops]


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(model=st.sampled_from(model_names()),
       cluster_name=st.sampled_from(sorted(CLUSTERS)),
       kind=st.sampled_from(("dp", "per_op", "per_group")),
       seed=st.integers(0, 2 ** 16))
def test_compiler_matches_reference(model, cluster_name, kind, seed):
    graph, cluster, profile, compiler = _context(model, cluster_name)
    strategy = _draw_strategy(graph, cluster, kind, seed)
    new, ref = _compile_both(compiler, graph, cluster, profile, strategy)
    if ref[1] is not None:
        assert new[1] == ref[1]
        return
    _assert_same(new, ref, lambda: ProfileCostModel(cluster, profile))


# --------------------------------------------------------------------- #
# failure parity on crafted graphs
# --------------------------------------------------------------------- #
def _op(name, phase, *, batched=True, **kw):
    spec = TensorSpec((8, 4)) if batched else TensorSpec((4, 4), None)
    return Operation(name, kw.pop("op_type", "MatMul"), spec, flops=1e6,
                     phase=phase, **kw)


def _two_applies() -> ComputationGraph:
    """A parameter gradient feeding two ApplyGradient ops."""
    g = ComputationGraph("two_applies")
    g.add_op(_op("x", OpPhase.INPUT))
    g.add_op(_op("w", OpPhase.FORWARD, param_bytes=64), ["x"])
    g.add_op(_op("w_grad", OpPhase.BACKWARD, batched=False, param_bytes=64,
                 forward_ref="w", batch_scaled=True), ["w"])
    for name in ("w_apply_a", "w_apply_b"):
        g.add_op(_op(name, OpPhase.APPLY, batched=False,
                     op_type="ApplyGradient", forward_ref="w"), ["w_grad"])
    return g


def _unbatched_consumer() -> ComputationGraph:
    """A batch-scaled op with an unbatched output and a forward consumer."""
    g = ComputationGraph("unbatched_consumer")
    g.add_op(_op("x", OpPhase.INPUT))
    g.add_op(_op("reduce", OpPhase.FORWARD, batched=False,
                 batch_scaled=True), ["x"])
    g.add_op(_op("head", OpPhase.FORWARD), ["reduce"])
    return g


def _apply_consumer() -> ComputationGraph:
    """A forward op reading a batched APPLY-phase output: under PS the
    apply runs on the PS device only, so the other replicas' aligned
    inputs do not exist."""
    g = ComputationGraph("apply_consumer")
    g.add_op(_op("x", OpPhase.INPUT))
    g.add_op(_op("w", OpPhase.FORWARD, param_bytes=64), ["x"])
    g.add_op(_op("w_grad", OpPhase.BACKWARD, batched=False, param_bytes=64,
                 forward_ref="w", batch_scaled=True), ["w"])
    g.add_op(_op("w_apply", OpPhase.APPLY, forward_ref="w"), ["w_grad"])
    g.add_op(_op("after", OpPhase.FORWARD), ["w_apply"])
    return g


@pytest.mark.parametrize("make_graph",
                         [_two_applies, _unbatched_consumer, _apply_consumer])
@pytest.mark.parametrize("choice", ["mp", "dp_ps", "dp_ar", "missing"])
def test_failure_parity(make_graph, choice):
    graph = make_graph()
    cluster = cluster_4gpu()
    if choice == "mp":
        op_strategy = make_mp_strategy("gpu1")
    else:
        comm = CommMethod.PS if choice == "dp_ps" else CommMethod.ALLREDUCE
        op_strategy = make_dp_strategy(cluster, ReplicaAllocation.EVEN, comm)
    strategy = uniform_strategy(graph, cluster, op_strategy)
    if choice == "missing":
        strategy = Strategy(graph, cluster, {
            n: op_strategy for n in graph.op_names[:-1]})
    new, ref = _compile_both(GraphCompiler(cluster), graph, cluster, None,
                             strategy)
    assert new[1] == ref[1]
    if ref[1] is None:
        _assert_same(new, ref)
    elif make_graph is _two_applies and choice != "missing":
        assert "must feed exactly one ApplyGradient" in ref[1][1]


def test_prices_cover_every_kind():
    """The recipe pricing pairing above, on draws that together hold all
    seven kinds, PS push/pull, hierarchical and ring AllReduce, and
    Concat/Split routing."""
    kinds, hierarchical, prefixes = set(), set(), set()
    cases = [_context(model, cluster_name)[:3] + (kind, seed)
             for model, cluster_name, kind, seed in (
                 ("inception_v3", "cluster_8gpu", "per_op", 1),
                 ("transformer", "cluster_8gpu", "per_group", 2),
                 ("vgg19", "cluster_4gpu", "dp", 0))]
    # four NVLink V100s plus one remote GPU: hierarchical AllReduce wins
    graph = build_model("vgg19", "tiny")
    cluster = cluster_12gpu()
    cases.append((graph, cluster, Profiler(seed=0).profile(graph, cluster),
                  "uniform", 0))
    for graph, cluster, profile, kind, seed in cases:
        if kind == "uniform":
            strategy = uniform_strategy(graph, cluster, OpStrategy(
                ParallelKind.DP, replicas=dict.fromkeys(
                    cluster.device_ids[:5], 1),
                comm=CommMethod.ALLREDUCE,
                allocation=ReplicaAllocation.EVEN))
        else:
            strategy = _draw_strategy(graph, cluster, kind, seed)
        new, ref = _compile_both(GraphCompiler(cluster, profile), graph,
                                 cluster, profile, strategy)
        _assert_same(new, ref, lambda: ProfileCostModel(cluster, profile))
        dist = new[0][0]
        kinds.update(op.kind.value for op in dist)
        hierarchical.update(op.hierarchical for op in dist
                            if op.kind.value == "allreduce")
        prefixes.update(n.split(":", 1)[0] for n in dist.op_names
                        if ":" in n)
    assert kinds == {"compute", "split", "concat", "transfer", "allreduce",
                     "aggregate", "apply"}
    assert hierarchical == {False, True}
    assert {"push", "pull", "t", "concat", "split"} <= prefixes
