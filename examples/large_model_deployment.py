"""Deploying a model that does not fit under pure data parallelism.

Reproduces the paper's Table 1/3 large-model situation: BERT-large at
batch 96 OOMs under every DP baseline on the 8-GPU testbed, while
HeteroG finds a feasible (mostly model-parallel) deployment:

    python examples/large_model_deployment.py
"""

from repro.baselines import DP_BASELINES, dp_strategy
from repro.cluster import cluster_8gpu
from repro.experiments import (
    experiment_config,
    format_table,
    run_heterog,
    run_strategy,
)
from repro.graph.models import build_model
from repro.service import PlanningService


def main():
    cluster = cluster_8gpu()
    # the Table 1 OOM row: Bert-large (24 layers), batch 96
    graph = build_model("bert_large", "paper", batch_size=96)
    print(f"model: {graph.name}  ops={len(graph)}  "
          f"params={graph.total_param_bytes() / 2 ** 30:.2f} GiB")

    fifo = experiment_config(0, use_order_scheduling=False)
    with PlanningService(workers=0) as service:
        print("\ndata-parallel baselines:")
        rows = []
        for name in DP_BASELINES:
            measured = run_strategy(service,
                                    dp_strategy(name, graph, cluster),
                                    name, fifo, iterations=2)
            rows.append([name, measured.display_time])
        print(format_table(["Scheme", "Per-iteration (s)"], rows))

        print("\nsearching a feasible HeteroG deployment...")
        heterog = run_heterog(service, graph, cluster, experiment_config(0),
                              episodes=10, iterations=2)
    print(f"HeteroG per-iteration time: {heterog.display_time} s")

    mp_share = sum(v for k, v in heterog.mix.items() if k.startswith("MP:"))
    print(f"fraction of ops deployed without replication (MP): "
          f"{mp_share * 100:.1f}%")
    print("per-device share of MP ops:")
    for i, dev in enumerate(cluster.device_ids):
        frac = heterog.mix.get(f"MP:{dev}", 0.0)
        if frac > 0:
            model = cluster.device(dev).spec.model
            print(f"  G{i} ({model}): {frac * 100:5.1f}%")


if __name__ == "__main__":
    main()
