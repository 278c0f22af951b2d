"""Training a CNN on the paper's heterogeneous 8-GPU testbed.

Reproduces the Table 1 situation for one model: HeteroG's searched
strategy vs the four data-parallel baselines (EV/CP x PS/AllReduce),
all measured on the execution engine:

    python examples/heterogeneous_cnn_training.py [model]

``model`` is any registry name (default vgg19): vgg19, resnet200,
inception_v3, mobilenet_v2, nasnet, transformer, bert_large, xlnet_large.
"""

import sys

from repro.baselines import DP_BASELINES, dp_strategy
from repro.cluster import cluster_8gpu
from repro.experiments import (
    experiment_config,
    format_table,
    measure,
    run_strategy,
)
from repro.graph.models import build_model
from repro.service import PlanningService, PlanRequest


def main(model: str = "vgg19"):
    cluster = cluster_8gpu()
    graph = build_model(model, "bench")
    print(f"model: {graph.name}  ops={len(graph)}  "
          f"params={graph.total_param_bytes() / 2 ** 20:.0f} MiB")
    print(f"cluster: {cluster}")

    # baselines run with the framework's default FIFO execution order
    fifo = experiment_config(0, use_order_scheduling=False)
    with PlanningService(workers=0) as service:
        print("\nsearching deployment strategy (GNN + order scheduling)...")
        found = service.plan(PlanRequest(graph=graph, cluster=cluster,
                                         episodes=24, max_rounds=1,
                                         config=experiment_config(0)))
        heterog = measure(found.deployment, "HeteroG", seed=0)

        rows = [["HeteroG", heterog.display_time, "-"]]
        for name in DP_BASELINES:
            measured = run_strategy(service,
                                    dp_strategy(name, graph, cluster),
                                    name, fifo)
            if measured.oom:
                rows.append([name, "OOM", "-"])
            else:
                speedup = heterog.speedup_over(measured)
                rows.append([name, measured.display_time,
                             f"{speedup * 100:.1f}%"])

    print()
    print(format_table(
        ["Scheme", "Per-iteration (s)", "HeteroG speed-up"], rows))
    print("\nHeteroG strategy mix:")
    for label, fraction in sorted(heterog.mix.items(), key=lambda kv: -kv[1]):
        if fraction > 0:
            print(f"  {label:10s} {fraction * 100:5.1f}%")
    print(f"\nsearch took {found.service_seconds:.1f}s "
          f"(simulated best: {found.outcome.time:.3f}s)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "vgg19")
