"""Micro-batch pipelining on a model-parallel ladder (paper Sec. 7).

The paper sketches pipelining as a natural extension of HeteroG: split
the mini-batch into micro-batches over the compiled distributed graph.
This example builds a FLOP-balanced 4-stage ladder on an NVLink server,
sweeps the micro-batch count and prints the simulated per-iteration
times plus a text Gantt chart of the pipelined execution:

    python examples/pipeline_parallelism.py
"""

from repro.cluster import homogeneous_cluster
from repro.graph import GraphBuilder, build_training_graph
from repro.parallel import GraphCompiler
from repro.parallel.pipeline import (
    pipeline_graph,
    pipeline_ladder_strategy,
    pipeline_speedup_estimate,
)
from repro.profiling import exact_profile
from repro.reporting import text_gantt
from repro.scheduling import ListScheduler
from repro.simulation import ProfileCostModel, Simulator


def build_model():
    b = GraphBuilder("pipeline_mlp", 512)
    x = b.input((4096,))
    for i in range(12):
        x = b.dense(x, 4096, layer=f"fc{i}")
        x = b.activation(x, kind="Gelu", layer=f"fc{i}")
    b.softmax_loss(x, 1000)
    return build_training_graph(b)


def main():
    cluster = homogeneous_cluster(4, gpus_per_server=4)
    graph = build_model()
    profile = exact_profile(graph, cluster)
    strategy = pipeline_ladder_strategy(graph, cluster, stages=4)
    compiler = GraphCompiler(cluster, profile)
    dist = compiler.compile(graph, strategy)
    cost = ProfileCostModel(cluster, profile)

    def run(graph_):
        schedule = ListScheduler().schedule(graph_, cost)
        return Simulator(cost).run(graph_, order=schedule.order)

    base = run(dist)
    print(f"4-stage MP ladder, no pipelining: "
          f"{base.makespan * 1e3:.2f} ms/iteration")
    print("per-GPU busy: " + "  ".join(
        f"{d}={t * 1e3:.1f}ms" for d, t in sorted(base.device_busy.items())))

    best = None
    for k in (2, 4, 8):
        piped = pipeline_graph(dist, k)
        result = run(piped)
        ideal = pipeline_speedup_estimate(4, k)
        print(f"k={k}: {result.makespan * 1e3:.2f} ms "
              f"({base.makespan / result.makespan:.2f}x; ideal bound "
              f"{1 / ideal:.2f}x of stage-limited time)")
        if best is None or result.makespan < best[1].makespan:
            best = (piped, result)

    print("\npipelined execution timeline (best k):")
    print(text_gantt(best[0], best[1], width=70))


if __name__ == "__main__":
    main()
