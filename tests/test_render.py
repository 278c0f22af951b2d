"""Fast unit tests for the experiment renderers (synthetic data)."""

import pytest

from repro.experiments import (
    render_ablation,
    render_end_to_end,
    render_fig3a,
    render_fig8,
    render_fig9,
    render_generalization,
    render_order_scheduling,
    render_per_iteration,
    strategy_mix_table,
)
from repro.experiments.ablations import AblationRow
from repro.experiments.common import MeasuredStrategy
from repro.experiments.figures import Fig3aPoint, Fig8Bar, Fig9Bar
from repro.experiments.generalization import GeneralizationRow
from repro.experiments.tables import (
    EndToEndRow,
    OrderSchedulingRow,
    PerIterationRow,
)


def measured(label, time, oom=False, mix=None):
    return MeasuredStrategy(label=label, time=time, oom=oom, mix=mix or {})


def sample_row():
    return PerIterationRow(
        model="vgg19", label="VGG-19",
        heterog=measured("HeteroG", 0.5, mix={"CP-AR": 0.8, "MP:gpu0": 0.2}),
        baselines={
            "EV-PS": measured("EV-PS", 1.0),
            "EV-AR": measured("EV-AR", 0.7),
            "CP-PS": measured("CP-PS", 0.9),
            "CP-AR": measured("CP-AR", 0.6),
        },
    )


class TestPerIterationRendering:
    def test_speedups(self):
        row = sample_row()
        speedup = row.heterog.speedup_over
        assert speedup(row.baselines["EV-PS"]) == pytest.approx(1.0)
        assert speedup(row.baselines["CP-AR"]) == pytest.approx(0.2)

    def test_render_includes_speedup_percent(self):
        text = render_per_iteration([sample_row()])
        assert "100.0%" in text
        assert "VGG-19" in text

    def test_oom_rendering(self):
        row = sample_row()
        row.baselines["EV-PS"] = measured("EV-PS", float("inf"), oom=True)
        text = render_per_iteration([row])
        assert text.count("OOM/-") == 1

    def test_all_oom(self):
        row = sample_row()
        for k in row.baselines:
            row.baselines[k] = measured(k, float("inf"), oom=True)
        assert render_per_iteration([row]).count("OOM/-") == len(row.baselines)

    def test_strategy_mix_table(self, four_gpu):
        row = sample_row()
        text = strategy_mix_table([row], four_gpu)
        assert "80.0%" in text   # CP-AR share
        assert "20.0%" in text   # MP:gpu0 share


class TestOtherRenderers:
    def test_end_to_end(self):
        row = EndToEndRow(model="vgg19", gpus=8, global_batch=192,
                          minutes={"HeteroG": 500.0, "CP-PS": 900.0,
                                   "CP-AR": 650.0})
        text = render_end_to_end([row])
        assert "80.0%" in text  # (900-500)/500

    def test_order_scheduling(self):
        row = OrderSchedulingRow(model="vgg19", with_order=0.5, fifo=0.6)
        assert row.speedup == pytest.approx(0.2)
        assert "20.0%" in render_order_scheduling([row])

    def test_fig3a(self):
        point = Fig3aPoint(model="vgg19", even=1.2, proportional=1.0)
        assert point.speedup == pytest.approx(0.2)
        assert "vgg19" in render_fig3a([point])

    def test_fig8(self):
        bar = Fig8Bar(model="vgg19", scheme="HeteroG", per_iteration=0.5,
                      computation=0.4, communication=0.3)
        assert bar.overlap_ratio == pytest.approx(1.4)
        assert "1.40" in render_fig8([bar])

    def test_fig9_normalization(self):
        bar = Fig9Bar(model="bert", speeds={"HeteroG": 150.0,
                                            "Horovod": 100.0,
                                            "Post": 50.0})
        norm = bar.normalized()
        assert norm["HeteroG"] == pytest.approx(1.5)
        assert "1.50" in render_fig9([bar])

    def test_fig9_zero_horovod(self):
        bar = Fig9Bar(model="bert", speeds={"HeteroG": 150.0,
                                            "Horovod": 0.0})
        assert bar.normalized()["HeteroG"] == 0.0

    def test_generalization(self):
        row = GeneralizationRow(model="vgg19", scratch_episodes=40,
                                finetune_episodes=10, scratch_seconds=100.0,
                                finetune_seconds=20.0, target_time=0.5)
        assert row.episode_ratio == pytest.approx(0.25)
        assert "20.0" in render_generalization([row])
        assert "25.0%" in render_generalization([row])

    def test_ablation(self):
        rows = [AblationRow("hybrid", 0.5), AblationRow("oom", 1.0, oom=True)]
        text = render_ablation(rows)
        assert "OOM" in text and "0.500" in text
