"""Operation grouping (paper Sec. 4.1.1, "Per-group embeddings").

"If the number of operations exceeds the maximal group number N, we
choose the top-N operations with longest average execution time ...
We group each of the other operations with one of the N operations with
the least number of hops in-between."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

import numpy as np

from ..errors import GraphError
from .dag import ComputationGraph


@dataclass
class Grouping:
    """Assignment of every op to one of ``num_groups`` groups."""

    group_of: Dict[str, int]
    anchors: List[str]  # the top-N ops seeding each group

    @property
    def num_groups(self) -> int:
        return len(self.anchors)

    def assignment_matrix(self, op_index: Mapping[str, int]) -> np.ndarray:
        """(N, O) binary matrix S with S[g, o] = 1 iff op o is in group g."""
        mat = np.zeros((self.num_groups, len(op_index)), dtype=np.float64)
        for name, g in self.group_of.items():
            mat[g, op_index[name]] = 1.0
        return mat


def group_operations(graph: ComputationGraph,
                     avg_exec_time: Mapping[str, float],
                     max_groups: int) -> Grouping:
    """Nearest-neighbour grouping seeded by the longest-running ops."""
    if max_groups <= 0:
        raise GraphError(f"max_groups must be positive, got {max_groups}")
    names = graph.op_names
    missing = [n for n in names if n not in avg_exec_time]
    if missing:
        raise GraphError(
            f"avg_exec_time missing for {len(missing)} ops, e.g. {missing[:3]}"
        )

    if len(names) <= max_groups:
        anchors = list(names)
    else:
        # top-N by average execution time; stable tie-break on graph order
        order = sorted(
            range(len(names)),
            key=lambda i: (-avg_exec_time[names[i]], i),
        )
        anchors = sorted(
            (names[i] for i in order[:max_groups]),
            key=lambda n: names.index(n),
        )

    anchor_index = {name: g for g, name in enumerate(anchors)}
    nearest = graph.undirected_hop_distances(anchors)

    group_of: Dict[str, int] = {}
    for name in names:
        if name in anchor_index:
            group_of[name] = anchor_index[name]
        elif name in nearest:
            group_of[name] = anchor_index[nearest[name][1]]
        else:
            # disconnected from every anchor (shouldn't happen for training
            # graphs, but stay total): assign to the first group
            group_of[name] = 0
    return Grouping(group_of=group_of, anchors=anchors)
