"""Deterministic exploration seeds for the strategy search.

The paper's agent explores for hours on GPUs; our CPU budget is far
smaller, so the trainer's first episodes evaluate a set of canonical
candidate action vectors (the four uniform DP schemes, parameter-heavy-
group MP hybrids, and memory-balanced MP ladders for large models).
They are a sweep, not samples: each seed takes one episode but no
policy pass and no gradient, races the incumbent under admissible
pruning, and feeds only the best-found tracker.  The sweep's best is
the incumbent the reward baseline starts from once the policy samples.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..cluster.topology import Cluster
from ..graph.dag import ComputationGraph
from ..graph.grouping import Grouping
from ..graph.op import OpPhase
from .policy import DP_ACTIONS, uniform_action_vector


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
    """Candidate per-group action vectors worth trying first."""
    m = cluster.num_devices
    candidates: List[np.ndarray] = []

    # 1) the four uniform DP schemes (the Sec. 6.1 baselines)
    for allocation, comm in DP_ACTIONS:
        candidates.append(np.asarray(
            uniform_action_vector(cluster, grouping, allocation, comm)
        ))

    # 2) hybrids: parameter-heaviest groups go MP on the fastest GPU,
    #    the rest stay data-parallel (Table 2's dominant pattern)
    params = _group_param_bytes(graph, grouping)
    if params.sum() > 0:
        order = np.argsort(-params)
        for top_k in (1, max(1, grouping.num_groups // 20)):
            heavy = set(order[:top_k].tolist())
            for dp_offset in (1, 3):  # EV-AR and CP-AR backbones
                vec = np.full(grouping.num_groups, m + dp_offset,
                              dtype=np.int64)
                for g in heavy:
                    if params[g] > 0:
                        vec[g] = 0  # MP on gpu0 (fastest)
                candidates.append(vec)

    # 3) hybrid communication: AllReduce for the few largest gradients,
    #    PS for the long tail of small ones.  NCCL serializes collectives,
    #    so draining the tail through PS links overlaps with the big
    #    AllReduces (the Table 2 "mixture of PS and AllReduce" pattern).
    if params.sum() > 0:
        order = np.argsort(-params)
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

    # 4) memory-balanced MP ladders: contiguous group blocks (in topo order
    #    of their anchors) across devices — the feasible fallback for
    #    models where DP OOMs.  Blocks are balanced by the *activation
    #    bytes* each group pins (forward outputs live until their backward
    #    runs), proportional to each device's usable memory.
    from ..profiling.cost_model import op_memory_bytes, op_resident_bytes
    group_mem = np.zeros(grouping.num_groups)
    for name, g in grouping.group_of.items():
        op = graph.op(name)
        if op.phase in (OpPhase.INPUT, OpPhase.FORWARD, OpPhase.LOSS):
            group_mem[g] += op_memory_bytes(op, 1.0) + op_resident_bytes(op)
    positions = _anchor_topo_positions(graph, grouping)
    topo_order = np.argsort(positions)
    memories = np.asarray([d.usable_memory_bytes for d in cluster.devices],
                          dtype=np.float64)
    mem_targets = np.cumsum(memories / memories.sum()) * group_mem.sum()
    ladder = np.zeros(grouping.num_groups, dtype=np.int64)
    dev = 0
    cumulative = 0.0
    for g in topo_order:
        cumulative += group_mem[g]
        ladder[g] = dev
        while dev < m - 1 and cumulative >= mem_targets[dev]:
            dev += 1
    # the ladders go right after the four uniform DP candidates: for the
    # large models every DP scheme OOMs, and the search budget may be
    # small, so the feasible fallbacks must be tried early
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
    from ..profiling.cost_model import op_memory_bytes, op_resident_bytes
    out = np.zeros(grouping.num_groups)
    for name, g in grouping.group_of.items():
        op = graph.op(name)
        if op.phase in (OpPhase.INPUT, OpPhase.FORWARD, OpPhase.LOSS):
            out[g] += op_memory_bytes(op, 1.0) + op_resident_bytes(op)
    return out


def ladder_from_targets(graph: ComputationGraph, cluster: Cluster,
                        grouping: Grouping,
                        capacity_weights: np.ndarray) -> np.ndarray:
    """Contiguous MP ladder with stage boundaries set so each device's
    estimated pinned memory is proportional to ``capacity_weights``."""
    m = cluster.num_devices
    group_mem = group_memory_bytes(graph, grouping)
    positions = _anchor_topo_positions(graph, grouping)
    topo_order = np.argsort(positions)
    shares = np.asarray(capacity_weights, dtype=np.float64)
    shares = shares / shares.sum()
    targets = np.cumsum(shares) * group_mem.sum()
    ladder = np.zeros(grouping.num_groups, dtype=np.int64)
    dev = 0
    cumulative = 0.0
    for g in topo_order:
        cumulative += group_mem[g]
        ladder[g] = dev
        while dev < m - 1 and cumulative >= targets[dev]:
            dev += 1
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
                           capacity_weights: "np.ndarray" = None):
    """Per-op model-parallel ladder balanced by pinned activation bytes.

    Unlike the group-granular ladder above, this places every *operation*
    individually: forward ops are assigned to devices in topological
    order so each device's estimated pinned memory tracks its capacity
    share; backward/apply ops are colocated with their forward op.  This
    is the expressiveness the Graph Compiler supports even though the
    GNN's group action space cannot emit it — used as a raw strategy seed
    for the large models where the cluster runs near full occupancy.
    """
    from ..profiling.cost_model import op_memory_bytes, op_resident_bytes
    from ..parallel.strategy import Strategy, make_mp_strategy

    m = cluster.num_devices
    forward = [n for n in graph.topological_order()
               if graph.op(n).phase in (OpPhase.INPUT, OpPhase.FORWARD,
                                        OpPhase.LOSS)]
    mem = np.asarray([
        op_memory_bytes(graph.op(n), 1.0) + op_resident_bytes(graph.op(n))
        for n in forward
    ], dtype=np.float64)
    if capacity_weights is None:
        capacity_weights = np.asarray(
            [d.usable_memory_bytes for d in cluster.devices], dtype=np.float64
        )
    shares = capacity_weights / capacity_weights.sum()
    targets = np.cumsum(shares) * mem.sum()
    stage: Dict[str, int] = {}
    dev = 0
    cumulative = 0.0
    for name, bytes_ in zip(forward, mem):
        cumulative += bytes_
        stage[name] = dev
        while dev < m - 1 and cumulative >= targets[dev]:
            dev += 1
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
