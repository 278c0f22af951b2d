"""Shared test helpers (importable, unlike conftest)."""

from __future__ import annotations

from repro.graph import GraphBuilder, build_training_graph
from repro.graph.dag import ComputationGraph


def make_mlp(batch_size: int = 8, layers: int = 3, width: int = 32,
             name: str = "mlp") -> ComputationGraph:
    """A small dense training graph used across tests."""
    b = GraphBuilder(name, batch_size)
    x = b.input((16,))
    for i in range(layers):
        x = b.dense(x, width, layer=f"fc{i}")
        x = b.activation(x, layer=f"fc{i}")
    b.softmax_loss(x, 10)
    return build_training_graph(b)


def pruned_sweep(builder, strategies):
    """A serial sweep that prunes each candidate at the best exact
    feasible makespan before it, as a search threads its incumbent
    through ``prune_above``: the reference ``evaluate_many(keep=1)``
    must match."""
    outcomes, best = [], float("inf")
    for strategy in strategies:
        outcome = builder.evaluate(strategy, prune_above=best)
        if outcome.feasible and outcome.time < best:
            best = outcome.time
        outcomes.append(outcome)
    return outcomes
