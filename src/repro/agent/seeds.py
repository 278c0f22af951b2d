"""Deterministic exploration seeds for the strategy search.

The paper's agent explores for hours on GPUs; our CPU budget is far
smaller, so the trainer's ``_sweep`` evaluates canonical candidates
before its policy samples: the four uniform DP schemes, parameter-heavy-
group MP hybrids, PS/AllReduce mixes and memory-balanced MP ladders,
plus a per-op memory ladder as a raw strategy for the large models.
The queue opens with uniform CP-AR, the strongest DP baseline and the
usual winner, so every later seed races a strong incumbent.
Every ladder is one ``_staircase``: items in topological order fill the
devices in turn, each up to its weighted share of the pinned bytes; the
rebalancing functions reweight the shares from measured peaks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..graph.grouping import Grouping
from ..graph.op import Operation, OpPhase
from ..parallel.strategy import Strategy, make_mp_strategy
from ..profiling.cost_model import op_memory_bytes, op_resident_bytes
from .policy import DP_ACTIONS, uniform_action_vector

#: phases whose ops pin memory until their backward runs
_PINNED_PHASES = (OpPhase.INPUT, OpPhase.FORWARD, OpPhase.LOSS)


def _pinned_bytes(op: Operation) -> float:
    """Activation + resident bytes ``op`` pins during an iteration."""
    return op_memory_bytes(op, 1.0) + op_resident_bytes(op)


def _usable_memory(cluster: Cluster) -> np.ndarray:
    return np.asarray([d.usable_memory_bytes for d in cluster.devices],
                      dtype=np.float64)


def _staircase(sizes: Sequence[float], total: float, weights: np.ndarray,
               m: int) -> np.ndarray:
    """Device of each item of ``sizes``, in order: fill the ``m``
    devices in turn, each up to its ``weights`` share of ``total`` (the
    caller's sum of the *unordered* sizes, so targets match bit for
    bit)."""
    weights = np.asarray(weights, dtype=np.float64)
    targets = np.cumsum(weights / weights.sum()) * total
    stages = np.zeros(len(sizes), dtype=np.int64)
    dev = 0
    cumulative = 0.0
    for i, size in enumerate(sizes):
        cumulative += size
        stages[i] = dev
        while dev < m - 1 and cumulative >= targets[dev]:
            dev += 1
    return stages


def _group_param_bytes(graph: ComputationGraph, grouping: Grouping
                       ) -> np.ndarray:
    out = np.zeros(grouping.num_groups)
    for name, g in grouping.group_of.items():
        op = graph.op(name)
        if op.param_bytes > 0 and op.phase in (OpPhase.FORWARD, OpPhase.LOSS):
            out[g] += op.param_bytes
    return out


def _anchor_topo_positions(graph: ComputationGraph, grouping: Grouping
                           ) -> np.ndarray:
    topo_pos = {n: i for i, n in enumerate(graph.topological_order())}
    return np.asarray([topo_pos[a] for a in grouping.anchors])


def seed_action_vectors(graph: ComputationGraph, cluster: Cluster,
                        grouping: Grouping) -> List[np.ndarray]:
    """Candidate per-group action vectors worth trying first, in sweep
    order: uniform CP-AR, then EV-PS, EV-AR and CP-PS, the two group
    ladders at positions 4 and 5, then the MP and communication hybrids.
    """
    m = cluster.num_devices
    candidates: List[np.ndarray] = []

    # 1) the four uniform DP schemes (the Sec. 6.1 baselines), CP-AR
    #    (the last DP action) first: it is the strongest DP baseline,
    #    and the admissible pruning cuts most later seeds against it
    for allocation, comm in DP_ACTIONS[-1:] + DP_ACTIONS[:-1]:
        candidates.append(np.asarray(
            uniform_action_vector(cluster, grouping, allocation, comm)
        ))

    params = _group_param_bytes(graph, grouping)
    if params.sum() > 0:
        order = np.argsort(-params)
        # 2) hybrids: parameter-heaviest groups go MP on the fastest GPU,
        #    the rest stay data-parallel (Table 2's dominant pattern)
        for top_k in (1, max(1, grouping.num_groups // 20)):
            heavy = set(order[:top_k].tolist())
            for dp_offset in (1, 3):  # EV-AR and CP-AR backbones
                vec = np.full(grouping.num_groups, m + dp_offset,
                              dtype=np.int64)
                for g in heavy:
                    if params[g] > 0:
                        vec[g] = 0  # MP on gpu0 (fastest)
                candidates.append(vec)

        # 3) hybrid communication: AllReduce for the few largest
        #    gradients, PS for the long tail of small ones.  NCCL
        #    serializes collectives, so draining the tail through PS
        #    links overlaps with the big AllReduces (the Table 2
        #    "mixture of PS and AllReduce" pattern).
        for top_k in (max(1, grouping.num_groups // 8),
                      max(1, grouping.num_groups // 3)):
            heavy = set(order[:top_k].tolist())
            for backbone, alt in ((1, 0), (3, 2)):  # EV and CP backbones
                vec = np.full(grouping.num_groups, m + alt, dtype=np.int64)
                for g in heavy:
                    vec[g] = m + backbone
                candidates.append(vec)
        # MP-heavy + hybrid comm combined
        vec = np.full(grouping.num_groups, m + 2, dtype=np.int64)  # CP-PS
        big = order[: max(1, grouping.num_groups // 3)]
        for g in big:
            vec[g] = m + 3  # CP-AR for the heavy third
        for g in order[:1]:
            if params[g] > 0:
                vec[g] = 0  # heaviest group MP on the fastest GPU
        candidates.append(vec)

    # 4) memory-balanced MP ladder over each device's usable memory —
    #    the feasible fallback for models where DP OOMs.  The ladders go
    #    right after the four uniform DP candidates: for the large
    #    models every DP scheme OOMs, and the search budget may be
    #    small, so the feasible fallbacks must be tried early
    ladder = ladder_from_targets(graph, cluster, grouping,
                                 _usable_memory(cluster))
    candidates.insert(4, ladder)

    # 5) ladder with the most compute-heavy half data-parallel (CP-AR)
    mixed = ladder.copy()
    light = params < np.median(params) if params.sum() > 0 else np.ones(
        grouping.num_groups, dtype=bool
    )
    mixed[light] = m + 3
    candidates.insert(5, mixed)

    return candidates


def group_memory_bytes(graph: ComputationGraph, grouping: Grouping
                       ) -> np.ndarray:
    """Activation + resident bytes each group pins during an iteration."""
    out = np.zeros(grouping.num_groups)
    for name, g in grouping.group_of.items():
        op = graph.op(name)
        if op.phase in _PINNED_PHASES:
            out[g] += _pinned_bytes(op)
    return out


def ladder_from_targets(graph: ComputationGraph, cluster: Cluster,
                        grouping: Grouping,
                        capacity_weights: np.ndarray) -> np.ndarray:
    """Contiguous MP ladder of group blocks (in topo order of their
    anchors), with stage boundaries set so each device's estimated
    pinned memory is proportional to ``capacity_weights``: forward
    outputs live until their backward runs."""
    group_mem = group_memory_bytes(graph, grouping)
    topo_order = np.argsort(_anchor_topo_positions(graph, grouping))
    ladder = np.zeros(grouping.num_groups, dtype=np.int64)
    ladder[topo_order] = _staircase(group_mem[topo_order], group_mem.sum(),
                                    capacity_weights, cluster.num_devices)
    return ladder


def rebalanced_ladder(graph: ComputationGraph, cluster: Cluster,
                      grouping: Grouping,
                      peak_memory: Dict[str, float]) -> np.ndarray:
    """Feasibility repair for the MP ladder.

    The static estimate cannot predict transfer buffers and backward
    pinning exactly, so at ~90% cluster occupancy (the large-model rows)
    the first ladder may overflow individual devices.  This reweights
    each device's capacity share by how over/under-committed the last
    *measured* attempt left it and rebuilds the stage boundaries —
    a one-step multiplicative-weights correction.
    """
    weights = []
    for dev in cluster.devices:
        cap = float(dev.usable_memory_bytes)
        peak = float(peak_memory.get(dev.device_id, 0.0))
        if peak <= 0:
            correction = 2.0  # unused device: attract more work
        else:
            correction = min(2.0, max(0.4, (cap / peak) ** 1.2))
        weights.append(cap * correction)
    return ladder_from_targets(graph, cluster, grouping,
                               np.asarray(weights))


def memory_ladder_strategy(graph: ComputationGraph, cluster: Cluster,
                           capacity_weights: Optional[np.ndarray] = None
                           ) -> Strategy:
    """Per-op model-parallel ladder balanced by pinned activation bytes.

    Unlike the group-granular ladder above, this places every *operation*
    individually: forward ops are assigned to devices in topological
    order so each device's estimated pinned memory tracks its capacity
    share; backward/apply ops are colocated with their forward op.  This
    is the expressiveness the Graph Compiler supports even though the
    GNN's group action space cannot emit it — used as a raw strategy seed
    for the large models where the cluster runs near full occupancy.
    """
    m = cluster.num_devices
    forward = [n for n in graph.topological_order()
               if graph.op(n).phase in _PINNED_PHASES]
    mem = np.asarray([_pinned_bytes(graph.op(n)) for n in forward],
                     dtype=np.float64)
    if capacity_weights is None:
        capacity_weights = _usable_memory(cluster)
    stage = dict(zip(forward, _staircase(mem, mem.sum(), capacity_weights,
                                         m).tolist()))
    per = {}
    for name in graph.op_names:
        op = graph.op(name)
        if name in stage:
            s = stage[name]
        elif op.forward_ref is not None and op.forward_ref in stage:
            s = stage[op.forward_ref]
        else:
            s = m - 1
        per[name] = make_mp_strategy(cluster.device_ids[s])
    return Strategy(graph, cluster, per)


def rebalance_weights(cluster: Cluster, peak_memory: Dict[str, float]
                      ) -> np.ndarray:
    """Multiplicative-weights capacity correction from measured peaks."""
    weights = []
    for dev in cluster.devices:
        cap = float(dev.usable_memory_bytes)
        peak = float(peak_memory.get(dev.device_id, 0.0))
        if peak <= 0:
            correction = 1.5
        else:
            correction = min(1.8, max(0.4, (cap / peak) ** 1.2))
        weights.append(cap * correction)
    return np.asarray(weights)
