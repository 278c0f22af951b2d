"""Cost providers: price every dist-op of a simulation kernel.

Two implementations with deliberately different fidelity (see DESIGN.md):

- :class:`ProfileCostModel` — what the Strategy Maker's simulator uses.
  Durations come from the Profiler's fitted linear regressions, i.e. from
  *predictions* (the paper trains the GNN against simulated rewards).
- :class:`TruthCostModel` — what the execution engine ("the testbed")
  uses.  Durations come from the analytic ground truth with multiplicative
  log-normal jitter and a systematic inter-server bandwidth discount,
  modelling effects the profiler's clean microbenchmarks miss.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from ..cluster.device import GPUSpec
from ..cluster.topology import Cluster
from ..errors import SimulationError
from ..parallel.aggregation import allreduce_time, choose_allreduce
from ..parallel.distgraph import DistOpKind
from ..profiling import cost_model
from ..profiling.profiler import Profile


# Per-transfer fixed cost of TensorFlow's rendezvous/executor path
# (Send/Recv kernel pair, proto handling) paid by every point-to-point
# tensor transfer — the PS push/pull path and MP activation routing.
# NCCL collectives bypass it (fused launch, modelled separately via
# NCCL_LAUNCH_OVERHEAD in repro.parallel.aggregation).  This constant is
# what makes PS expensive for models with many small gradients (ResNet)
# while staying cheap per byte for the few huge, spread-out tensors of
# BERT-class models — the paper's Table 1 crossover.
SENDRECV_OVERHEAD = 150e-6

#: max distinct kernels whose base-duration arrays one truth model retains
_PRICE_CACHE_SLOTS = 4


class CostProvider(Protocol):
    """Interface the simulator uses to time dist-ops.

    A provider prices whole kernels; :meth:`ProfileCostModel.price`
    also prices one op from its recipe, for the graph compiler, which
    prices each op as it emits it under the planner's model.
    ``deterministic`` declares that ``prices(kernel)`` is a pure
    function of the kernel: the
    simulation kernel then prices every op once per lowering, from its recipes (so a compiled graph never
    builds its ``DistOp`` objects), and shares the array across ranking
    and repeated simulations.  Stochastic providers (per-execution
    jitter) leave ``deterministic`` False and implement
    :meth:`TruthCostModel.draw` and :meth:`TruthCostModel.settle`
    instead: the kernel consumers read one iteration's prices and
    jitter from arrays.
    """

    deterministic: bool = False

    def prices(self, kernel) -> List[float]: ...

    def link_lookup(self, src: str, dst: str) -> Tuple[float, float]: ...


def _aux_compute_time(spec: GPUSpec, traffic_bytes: float) -> float:
    """Time of a memory-bound auxiliary op (Split/Concat/Aggregate)."""
    return traffic_bytes / spec.mem_bandwidth + spec.kernel_overhead


class _BaseCost:
    """Shared plumbing for both cost providers."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    def _spec(self, device: str) -> GPUSpec:
        return self.cluster.device(device).spec

    def _allreduce(self, devices: Tuple[str, ...], size_bytes: float,
                   hierarchical: bool) -> float:
        return allreduce_time(devices, size_bytes, self.link_lookup,
                              self.cluster, hierarchical)

    def link_lookup(self, src: str, dst: str) -> Tuple[float, float]:
        raise NotImplementedError


class ProfileCostModel(_BaseCost):
    """Durations from the profiler's regression predictions.

    It is also the graph compiler's only source of link figures: PS
    placement reads :meth:`link_lookup` and each collective's structure
    comes from :meth:`hierarchical`, so the compiler decides with the
    model that prices its result."""

    deterministic = True

    def __init__(self, cluster: Cluster, profile: Profile):
        super().__init__(cluster)
        self.profile = profile
        # predictions are pure functions of their keys; candidates of the
        # same model share most (op, device, share) triples and collective
        # shapes, so one provider prices each distinct key once
        self._op_time_cache: dict = {}
        self._transfer_cache: dict = {}
        self._allreduce_cache: dict = {}
        # (device tuple, bytes) -> hierarchical?
        self._structure_cache: Dict[Tuple[Tuple[str, ...], float], bool] = {}
        self._link_cache: Dict[Tuple[str, str], Tuple[float, float]] = {}
        self._spec_of = {d: self.cluster.device(d).spec
                         for d in self.cluster.device_ids}

    def link_lookup(self, src: str, dst: str) -> Tuple[float, float]:
        """(bandwidth, latency) of a link: profiled when the profile has
        a model of it, else the cluster's spec."""
        cached = self._link_cache.get((src, dst))
        if cached is None:
            model = self.profile.link_models.get((src, dst))
            if model is None:
                link = self.cluster.link(src, dst)
                cached = (link.bandwidth, link.latency)
            else:
                cached = (model.bandwidth, model.latency)
            self._link_cache[(src, dst)] = cached
        return cached

    def hierarchical(self, devices: Tuple[str, ...],
                     size_bytes: float) -> bool:
        """:func:`choose_allreduce`'s ring-or-hierarchical decision for a
        collective; the time it returns is kept as the price of the
        collective so built."""
        key = (devices, size_bytes)
        cached = self._structure_cache.get(key)
        if cached is None:
            cached, t = choose_allreduce(devices, size_bytes,
                                         self.link_lookup, self.cluster)
            self._structure_cache[key] = cached
            self._allreduce_cache[key + (cached,)] = t
        return cached

    def prices(self, kernel) -> List[float]:
        """The predicted duration of every op of ``kernel``, from its
        recipes."""
        sources = kernel.source_ops
        price = self.price
        return [price(r, sources[r[1]] if r[1] >= 0 else None)
                for r in kernel.recipes]

    def price(self, recipe: tuple, source_op) -> float:
        """Duration of the op with this recipe and source op: what
        :meth:`prices` gives for it, so the graph compiler can price
        each op as it emits it."""
        (kind, _, device, src_device, dst_device, devices, size_bytes,
         batch_fraction, hierarchical, _) = recipe
        if kind == "compute" or kind == "apply":
            assert source_op is not None and device is not None
            key = (source_op.name, device, batch_fraction)
            cache = self._op_time_cache
            t = cache.get(key)
            if t is None:
                t = cache[key] = self.profile.op_time(*key)
            return t
        if kind == "transfer":
            key = (src_device, dst_device, size_bytes)
            cache = self._transfer_cache
            t = cache.get(key)
            if t is None:
                t = cache[key] = SENDRECV_OVERHEAD + \
                    self.profile.transfer_time(*key)
            return t
        if kind == "allreduce":
            key = (devices, size_bytes, hierarchical)
            cache = self._allreduce_cache
            t = cache.get(key)
            if t is None:
                t = cache[key] = self._allreduce(*key)
            return t
        if kind == "split" or kind == "concat" or kind == "aggregate":
            assert device is not None
            return _aux_compute_time(self._spec_of[device], size_bytes)
        raise SimulationError(f"cannot cost op kind {DistOpKind(kind)}")


class MappingCostModel:
    """Fixed per-op durations, for crafted instances (appendix worst case)
    and deterministic unit tests."""

    deterministic = True

    def __init__(self, durations: dict, default: Optional[float] = None):
        self.durations = dict(durations)
        self.default = default

    def prices(self, kernel) -> List[float]:
        """The registered duration of every op of ``kernel``, by name
        (``default`` for an unregistered one, when given)."""
        durations, default = self.durations, self.default
        prices = []
        for name in kernel.names:
            duration = durations.get(name, default)
            if duration is None:
                raise SimulationError(
                    f"no duration registered for {name!r}")
            prices.append(float(duration))
        return prices

    def link_lookup(self, src: str, dst: str) -> Tuple[float, float]:
        return float("inf"), 0.0


#: the share of its profiled bandwidth a cross-machine link delivers
INTERSERVER_DISCOUNT = 0.92


class TruthCostModel(_BaseCost):
    """Ground-truth durations with jitter — the stand-in for real hardware.

    ``jitter_sigma`` is the log-normal sigma applied per execution;
    :data:`INTERSERVER_DISCOUNT` scales down cross-machine bandwidth
    (switch contention, protocol overhead) relative to what profiling
    measured.

    ``rng`` is the seeded generator the jitter draws come from (the
    ExecutionEngine passes its own so the engine -> cost model -> fault
    injector chain draws from one reproducible stream).

    The resilience layer applies faults through the overlay hooks
    (:meth:`set_fault_overlay` / :meth:`clear_fault_overlay`): crashed
    devices make any op touching them raise :class:`DeviceLostError`,
    stragglers multiply compute durations, and degraded links divide
    bandwidth.  With no overlay installed every code path is byte-for-
    byte the pre-fault arithmetic, so fault-free runs stay bit-identical.

    The simulator and the ranking pass price a kernel per execution
    with :meth:`draw` and :meth:`settle`: base durations from arrays,
    and one batch of jitter factors per run.
    """

    def __init__(self, cluster: Cluster, jitter_sigma: float = 0.04, *,
                 rng: np.random.Generator):
        super().__init__(cluster)
        self.jitter_sigma = jitter_sigma
        self._rng = rng
        self._overlay = None
        # id(kernel) -> (kernel, overlay, base durations, lost ops)
        self._price_cache: Dict[int, tuple] = {}
        # (generator state before the last batch draw, batch size)
        self._drawn: Optional[tuple] = None

    @property
    def deterministic(self) -> bool:
        # jitter differs per execution, so the kernel may not share one
        # duration array across runs; an active fault overlay likewise
        # varies durations between iterations (see draw)
        return self.jitter_sigma <= 0 and self._overlay is None

    # ---------------------------------------------------------------- #
    # fault hooks (repro.resilience.FaultInjector drives these)
    # ---------------------------------------------------------------- #
    def set_fault_overlay(self, overlay) -> None:
        """Install the active-fault view (``None`` clears it).

        ``overlay`` duck-types :class:`repro.resilience.FaultOverlay`:
        ``failed_devices`` (set of ids), ``compute_scale`` (device id ->
        duration multiplier > 1) and ``link_scale`` ((src, dst) ->
        bandwidth multiplier in (0, 1]).
        """
        self._overlay = overlay

    def clear_fault_overlay(self) -> None:
        self._overlay = None

    @property
    def fault_overlay(self):
        return self._overlay

    def link_lookup(self, src: str, dst: str) -> Tuple[float, float]:
        link = self.cluster.link(src, dst)
        bandwidth = link.bandwidth
        if not link.intra_server:
            bandwidth *= INTERSERVER_DISCOUNT
        overlay = self._overlay
        if overlay is not None:
            scale = overlay.link_scale.get((src, dst))
            if scale is not None:
                bandwidth *= scale
        return bandwidth, link.latency

    def prices(self, kernel) -> List[float]:
        """The duration of every op of ``kernel`` while the model is
        deterministic (no jitter, no fault overlay)."""
        return self._prices(kernel)[0]

    def draw(self, kernel) -> Tuple[List[float], Optional[Dict[int, str]],
                                    Optional[List[float]]]:
        """One execution's prices for ``kernel``: ``(base, lost, jitter)``.

        ``base[i] * jitter[k]`` is op ``i``'s duration when it is the
        ``k``-th op priced, bit for bit what one scalar log-normal draw
        per op, in pricing order, gives.  ``lost`` maps each op that
        touches a crashed device to that device (None when there is
        none); such an op's base is ``-inf``, so its duration fails a
        non-negativity check and the caller raises
        :class:`DeviceLostError`.  ``jitter`` is ``kernel.n`` factors
        from one generator call, or None (and nothing drawn) when
        ``jitter_sigma <= 0``.  A caller that uses fewer than
        ``kernel.n`` factors must :meth:`settle` how many it used.
        """
        base, lost = self._prices(kernel)
        if self.jitter_sigma <= 0:
            return base, lost, None
        self._drawn = (self._rng.bit_generator.state, kernel.n)
        jitter = self._rng.lognormal(0.0, self.jitter_sigma, size=kernel.n)
        return base, lost, jitter.tolist()

    def settle(self, used: int) -> None:
        """Keep only the first ``used`` factors of the last :meth:`draw`:
        the generator ends where ``used`` scalar draws would leave it."""
        drawn, self._drawn = self._drawn, None
        if drawn is not None and used < drawn[1]:
            self._rng.bit_generator.state = drawn[0]
            self._rng.lognormal(0.0, self.jitter_sigma, size=used)

    def _prices(self, kernel) -> Tuple[List[float], Optional[Dict[int, str]]]:
        """:meth:`_price` of every op of ``kernel``, read from its
        recipes, once per (kernel, overlay) pair.  The cache lives on
        this provider, never on the kernel, and keeps at most
        ``_PRICE_CACHE_SLOTS`` kernels.  The overlay object is a valid
        key: the fault injector installs a new one on every change."""
        overlay = self._overlay
        cache = self._price_cache
        entry = cache.get(id(kernel))
        if entry is not None and entry[0] is kernel and entry[1] is overlay:
            return entry[2], entry[3]
        sources = kernel.source_ops
        price = self._price
        base = [0.0] * kernel.n
        lost = {}
        for i, recipe in enumerate(kernel.recipes):
            device, base[i] = price(
                recipe, sources[recipe[1]] if recipe[1] >= 0 else None)
            if device is not None:
                lost[i] = device
        if id(kernel) not in cache and len(cache) >= _PRICE_CACHE_SLOTS:
            cache.clear()
        cache[id(kernel)] = (kernel, overlay, base, lost or None)
        return base, lost or None

    def _price(self, recipe: tuple,
               source_op) -> Tuple[Optional[str], float]:
        """``(None, base duration)`` of the op with this recipe and
        source op under the overlay, or ``(device, -inf)`` for the first
        crashed device it touches."""
        overlay = self._overlay
        if overlay is None:
            return None, self._base_duration(recipe, source_op)
        kind = recipe[0]
        compute = kind != "transfer" and kind != "allreduce"
        failed = overlay.failed_devices
        if failed:
            if compute:
                touched = (recipe[2],)
            elif kind == "transfer":
                touched = recipe[3:5]
            else:
                touched = recipe[5]
            for device in touched:
                if device in failed:
                    return device, -math.inf
        base = self._base_duration(recipe, source_op)
        if compute:
            scale = overlay.compute_scale.get(recipe[2])
            if scale is not None:
                base *= scale
        return None, base

    def _base_duration(self, recipe: tuple, source_op) -> float:
        """Jitter- and overlay-free duration of the op with this recipe
        and source op."""
        (kind, _, device, src_device, dst_device, devices, size_bytes,
         batch_fraction, hierarchical, _) = recipe
        if kind == "compute" or kind == "apply":
            assert source_op is not None and device is not None
            return cost_model.op_time(source_op, self._spec(device),
                                      batch_fraction)
        if kind == "split" or kind == "concat" or kind == "aggregate":
            assert device is not None
            return _aux_compute_time(self._spec(device), size_bytes)
        if kind == "transfer":
            bandwidth, latency = self.link_lookup(src_device, dst_device)
            return SENDRECV_OVERHEAD + latency + size_bytes / bandwidth
        if kind == "allreduce":
            return self._allreduce(devices, size_bytes, hierarchical)
        raise SimulationError(f"cannot cost op kind {DistOpKind(kind)}")
