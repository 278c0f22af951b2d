"""Tests for the micro-batch pipelining extension (paper Sec. 7)."""

import pytest

from repro.baselines.hetpipe import _layer_blocks
from repro.errors import CompileError
from repro.parallel import GraphCompiler, DistOpKind
from repro.parallel.pipeline import pipeline_graph
from repro.parallel.strategy import Strategy, make_mp_strategy
from repro.scheduling import ListScheduler
from repro.simulation import ProfileCostModel, Simulator

from tests.helpers import exact_profile, homogeneous_cluster, make_mlp


@pytest.fixture(scope="module")
def cluster():
    # single NVLink server: per-stage compute dominates transfers, the
    # regime where pipelining pays (cross-server stage boundaries at NIC
    # bandwidth would be transfer-bound and pipelining would not help)
    return homogeneous_cluster(4, gpus_per_server=4)


def ladder_strategy(graph, cluster, stages=4):
    """The pipeline layout: FLOP-balanced forward stages, one per
    device, with each backward op colocated with its forward op (the
    layer blocks HetPipe places inside a virtual worker)."""
    devices = cluster.device_ids
    return Strategy(graph, cluster, {
        name: make_mp_strategy(devices[block])
        for name, block in _layer_blocks(graph, stages).items()})


@pytest.fixture(scope="module")
def compiled(cluster):
    # wide layers: per-stage compute must dominate kernel overhead and
    # transfer latency for pipelining to pay off (as for real models)
    graph = make_mlp(layers=12, width=4096, batch_size=512, name="pipe_mlp")
    profile = exact_profile(graph, cluster)
    compiler = GraphCompiler(ProfileCostModel(cluster, profile))
    dist = compiler.compile(graph, ladder_strategy(graph, cluster))
    return graph, profile, compiler, dist


class TestTransformation:
    def test_k1_is_identity(self, compiled):
        _, _, _, dist = compiled
        assert pipeline_graph(dist, 1) is dist

    def test_invalid_k(self, compiled):
        _, _, _, dist = compiled
        with pytest.raises(CompileError):
            pipeline_graph(dist, 0)

    def test_micro_instances_created(self, compiled):
        _, _, _, dist = compiled
        piped = pipeline_graph(dist, 4)
        piped.validate()
        assert len(piped) > 3 * len(dist)
        assert any("~mb2" in n for n in piped.op_names)

    def test_single_apply_per_parameter(self, compiled):
        """Synchronous pipeline: gradients summed, one apply — the
        semantics-preserving variant."""
        _, _, _, dist = compiled
        piped = pipeline_graph(dist, 4)
        applies_orig = sum(1 for o in dist if o.kind is DistOpKind.APPLY)
        applies_piped = sum(1 for o in piped if o.kind is DistOpKind.APPLY)
        assert applies_piped == applies_orig

    def test_microsum_before_apply(self, compiled):
        _, _, _, dist = compiled
        piped = pipeline_graph(dist, 3)
        microsums = [o for o in piped if o.name.endswith("~microsum")]
        assert microsums
        for ms in microsums:
            # k partial gradients feed each micro-sum
            assert len(piped.predecessors(ms.name)) == 3

    def test_micro_fractions_sum_to_original(self, compiled):
        _, _, _, dist = compiled
        piped = pipeline_graph(dist, 4)
        for name in dist.op_names:
            op = dist.op(name)
            if op.kind is DistOpKind.COMPUTE and op.source_op is not None \
                    and op.source_op.batch_scaled:
                micros = [piped.op(f"{name}~mb{m}") for m in range(4)]
                total = sum(m.batch_fraction for m in micros)
                assert total == pytest.approx(op.batch_fraction)

    def test_pipelining_overlaps_stages(self, cluster, compiled):
        """On a compute-heavy MP ladder, pipelining must cut the makespan
        toward the ideal k/(k+s-1) bound."""
        _, profile, compiler, dist = compiled
        cost = ProfileCostModel(cluster, profile)
        base = Simulator(cost).run(
            dist, order=ListScheduler().schedule(dist, cost).order
        ).makespan
        piped = pipeline_graph(dist, 8)
        t = Simulator(cost).run(
            piped,
            order=ListScheduler().schedule(piped, cost).order,
        ).makespan
        # measurable gain; full 1F1B efficiency would need memory-aware
        # micro-batch interleaving beyond this extension's scope
        assert t < base * 0.98
