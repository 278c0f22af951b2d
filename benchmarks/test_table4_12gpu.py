"""Table 4: per-iteration training time on all 12 GPUs.

Paper shape: same qualitative story as Table 1 at 1.5x the global batch
— HeteroG wins everywhere; communication takes a larger share with more
GPUs; the large models still OOM under DP.
"""

import pytest

from repro.cluster import cluster_12gpu
from repro.experiments import (
    paper_values,
    per_iteration_table,
    render_per_iteration,
)

MODELS = ["vgg19", "resnet200", "inception_v3", "mobilenet_v2", "nasnet",
          "transformer", "bert_large", "xlnet_large"]


@pytest.fixture(scope="module")
def rows():
    return per_iteration_table(cluster_12gpu(), 12, models=MODELS,
                               include_large=False)


def test_table4_12gpu(benchmark, report, rows):
    benchmark.pedantic(lambda: rows, rounds=1, iterations=1)
    body = render_per_iteration(rows)
    body += "\n\npaper Table 4 (HeteroG, EV-PS, EV-AR, CP-PS, CP-AR):\n"
    for model, vals in paper_values.TABLE4.items():
        body += f"  {model:14s} " + "  ".join(f"{v:.3f}" for v in vals) + "\n"
    report("Table 4 — per-iteration time, 12 GPUs", body)


def test_table4_heterog_wins(rows):
    for row in rows:
        assert not row.heterog.oom
        for name, measured in row.baselines.items():
            if not measured.oom:
                assert row.heterog.time <= measured.time * 1.02, (
                    f"{row.label} vs {name}"
                )


def test_table4_larger_batches_than_table1(rows):
    """Strong scaling: per-iteration times grow with the 1.5x batch for
    the same model (matching Table 4 > Table 1 in the paper)."""
    from repro.cluster import cluster_8gpu
    from repro.experiments import experiment_config, run_strategy
    from repro.baselines import dp_strategy
    from repro.graph.models import build_model
    from repro.service import PlanningService
    cluster8 = cluster_8gpu()
    g8 = build_model("vgg19", "bench")
    with PlanningService(workers=0) as service:
        t8 = run_strategy(service, dp_strategy("CP-AR", g8, cluster8),
                          "CP-AR", experiment_config(
                              0, use_order_scheduling=False)).time
    row12 = next(r for r in rows if r.model == "vgg19")
    assert row12.baselines["CP-AR"].time > t8 * 0.9
