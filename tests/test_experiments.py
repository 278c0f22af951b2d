"""Tests for the experiment harness (fast, tiny-scale invocations)."""

import pytest

from repro.baselines import dp_strategy
from repro.cluster import cluster_4gpu
from repro.config import HeteroGConfig
from repro.experiments import (
    bench_agent_config,
    experiment_config,
    fig3b_op_speedups,
    format_table,
    paper_values,
    run_heterog,
    run_strategy,
)
from repro.experiments.tables import _batch_for, mp_fraction
from repro.graph.models import build_model
from repro.service import PlanningService, PlanRequest


class TestCommon:
    def test_format_table_alignment(self):
        out = format_table(["A", "Bee"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_measure_roundtrip(self, four_gpu):
        g = build_model("vgg19", "tiny")
        with PlanningService(workers=0) as service:
            m = run_strategy(service, dp_strategy("CP-AR", g, four_gpu),
                             "CP-AR", experiment_config(0))
        assert m.time > 0 and not m.oom
        assert m.extras["computation_time"] > 0
        assert "CP-AR" in m.mix

    def test_same_named_graphs_are_measured_apart(self, four_gpu):
        """Two builds of one model at different batch sizes share a
        name; each is served on its own context, with its own profile
        and plan builder."""
        config = experiment_config(0)

        def measure(service, graph):
            return run_strategy(service, dp_strategy("CP-AR", graph,
                                                     four_gpu),
                                "CP-AR", config, iterations=1).time

        def profile(service, graph):
            return service.context_for(PlanRequest(
                graph=graph, cluster=four_gpu, config=config)).profile

        small = build_model("vgg19", "tiny", batch_size=16)
        large = build_model("vgg19", "tiny", batch_size=64)
        assert small.name == large.name
        with PlanningService(workers=0) as shared, \
                PlanningService(workers=0) as fresh:
            measure(shared, small)
            assert measure(shared, large) == measure(fresh, large)
            assert profile(shared, small) is not profile(shared, large)

    def test_run_heterog_records_search_stats(self, four_gpu):
        g = build_model("transformer", "tiny")
        config = HeteroGConfig(seed=0, agent=_tiny_agent_config())
        with PlanningService(workers=0) as service:
            m = run_heterog(service, g, four_gpu, config, episodes=6)
        assert not m.oom
        assert m.extras["simulated_time"] > 0

    def test_end_to_end_uses_the_graph_batch(self):
        """Table 5 prices each row at the batch its graph was built
        with: the tiny preset's 8-GPU graphs have batch 8, not 192."""
        from repro.cluster import cluster_8gpu
        from repro.experiments import end_to_end_table
        from repro.runtime.trainer_loop import end_to_end_minutes
        rows = end_to_end_table(preset="tiny", episodes=2,
                                models=["vgg19"])
        assert [(r.gpus, r.global_batch) for r in rows] == [(8, 8),
                                                             (12, 288)]
        cluster = cluster_8gpu()
        graph = build_model("vgg19", "tiny")
        with PlanningService(workers=0) as service:
            cp_ar = run_strategy(
                service, dp_strategy("CP-AR", graph, cluster), "CP-AR",
                experiment_config(0, use_order_scheduling=False))
        assert rows[0].minutes["CP-AR"] == end_to_end_minutes(
            "vgg19", 8, cp_ar.time)

    def test_batch_for_scales(self):
        assert _batch_for("vgg19", 8) == {}
        assert _batch_for("vgg19", 12) == {"batch_size": 288}
        assert _batch_for("transformer", 12) == {"batch_size": 1080}

    def test_mp_fraction(self):
        assert mp_fraction({"MP:gpu0": 0.2, "CP-AR": 0.8}) == pytest.approx(0.2)


def _tiny_agent_config():
    cfg = bench_agent_config(0)
    cfg.max_groups = 8
    cfg.gat_hidden = 16
    cfg.strategy_dim = 16
    return cfg


class TestFig3b:
    def test_ratios_positive_and_bounded(self):
        points = fig3b_op_speedups(seed=1)
        assert len(points) == 5
        for p in points:
            assert all(0.8 < r < 3.0 for r in p.normalized_times)

    def test_deterministic(self):
        a = fig3b_op_speedups(seed=2)
        b = fig3b_op_speedups(seed=2)
        assert [p.mean for p in a] == [p.mean for p in b]


class TestPaperValues:
    def test_table1_rows_complete(self):
        assert len(paper_values.TABLE1) == 8
        for vals in paper_values.TABLE1.values():
            assert len(vals) == 5
            # HeteroG (first) is the fastest in every paper row
            assert vals[0] == min(vals)

    def test_speedup_helper(self):
        assert paper_values.speedup(0.907, 0.462) == pytest.approx(
            0.963, abs=0.001)

    def test_table5_consistent_with_table1(self):
        """Paper cross-check: Table 5's 8-GPU HeteroG minutes divided by
        Table 1 per-iteration times give a consistent iteration count."""
        t1 = paper_values.TABLE1["vgg19"][0]
        t5 = paper_values.TABLE5["vgg19"][8][0]
        iterations = t5 * 60 / t1
        assert iterations == pytest.approx(66640, rel=0.01)


@pytest.fixture(scope="module")
def four_gpu():
    return cluster_4gpu()
