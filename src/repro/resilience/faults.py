"""Deterministic fault injection for the ground-truth execution engine.

A :class:`FaultSchedule` is a seeded, fully deterministic list of
:class:`FaultEvent`\\ s keyed by iteration number; the
:class:`FaultInjector` binds one to an :class:`ExecutionEngine` and
applies the active faults to its :class:`TruthCostModel` through the
overlay hooks:

- ``crash`` — ops touching the device raise :class:`DeviceLostError`;
- ``degrade`` — links through the device/server lose bandwidth;
- ``straggler`` — the device's compute durations are multiplied.

The vocabulary also covers *capacity* events, which change the fleet
itself rather than the cost overlay (the elastic subsystem reacts to
these; a policy that ignores them simply keeps its current plan):

- ``join`` — fresh GPUs appear on an existing server;
- ``server_join`` — a whole new server joins the fleet;
- ``preempt`` — a spot-style crash with an advance-notice window (the
  device dies ``factor`` iterations after the notice fires);
- ``reclaim`` — a previously crashed/preempted device comes back.

With an empty schedule the injector installs no overlay at all, so the
engine's timeline is bit-identical to a run without any injector —
paired (faults on/off) experiments are sound by construction.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from .. import telemetry
from ..cluster.device import resolve_gpu
from ..cluster.link import NIC_50G, PCIE3
from ..cluster.topology import Cluster, ServerSpec
from ..errors import ReproError


class FaultKind(enum.Enum):
    """What goes wrong — or what capacity shows up."""

    DEVICE_CRASH = "crash"          # GPU disappears (XID error, host dies)
    LINK_DEGRADE = "degrade"        # NIC/link drops to a fraction of BW
    STRAGGLER = "straggler"         # device persistently slows down
    DEVICE_JOIN = "join"            # GPUs appear on an existing server
    SERVER_JOIN = "server_join"     # a whole new server joins the fleet
    PREEMPT = "preempt"             # spot notice: crash after a window
    RECLAIM = "reclaim"             # a downed device comes back


#: the degradation kinds — the pool :meth:`FaultSchedule.random` draws
#: from (capacity events come from :class:`~repro.elastic.ChurnSchedule`)
FAULT_KINDS = (FaultKind.DEVICE_CRASH, FaultKind.LINK_DEGRADE,
               FaultKind.STRAGGLER)

#: events that change the fleet rather than degrade it
CAPACITY_KINDS = frozenset({FaultKind.DEVICE_JOIN, FaultKind.SERVER_JOIN,
                            FaultKind.PREEMPT, FaultKind.RECLAIM})


@dataclass(frozen=True)
class FaultEvent:
    """One fault striking at the start of ``iteration``.

    ``target`` is a device id (crash/straggler/preempt/reclaim), a
    server name (degrade: the server's NIC; join: the hosting server) or
    a GPU model alias (server_join, e.g. ``v100``).  ``factor`` is the
    bandwidth multiplier in (0, 1) for ``degrade``, the slowdown
    multiplier > 1 for ``straggler``, the GPU count for ``join`` /
    ``server_join`` and the advance-notice window in iterations for
    ``preempt``; crashes and reclaims ignore it.
    """

    iteration: int
    kind: FaultKind
    target: str
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ReproError(f"fault iteration must be >= 0: {self}")
        if self.kind is FaultKind.LINK_DEGRADE and not 0 < self.factor < 1:
            raise ReproError(
                f"degrade factor must be in (0, 1), got {self.factor}")
        if self.kind is FaultKind.STRAGGLER and self.factor <= 1:
            raise ReproError(
                f"straggler factor must be > 1, got {self.factor}")
        if self.kind in (FaultKind.DEVICE_JOIN, FaultKind.SERVER_JOIN,
                         FaultKind.PREEMPT):
            what = ("GPU count" if self.kind is not FaultKind.PREEMPT
                    else "notice window")
            if self.factor < 1 or self.factor != int(self.factor):
                raise ReproError(
                    f"{self.kind.value} factor is a {what}: needs a "
                    f"whole number >= 1, got {self.factor}")

    @property
    def is_capacity(self) -> bool:
        """True for events that change the fleet (join/preempt/reclaim)."""
        return self.kind in CAPACITY_KINDS

    @property
    def count(self) -> int:
        """The factor as a whole number (join counts, notice windows)."""
        return int(self.factor)

    @property
    def label(self) -> str:
        """The spec form :meth:`FaultSchedule.parse` reads back exactly:
        the factor as ``:g`` when that is exact (``x0.5``, ``x2``), else
        its shortest round-tripping repr."""
        head = f"{self.kind.value}:{self.target}@{self.iteration}"
        if self.kind in (FaultKind.DEVICE_CRASH, FaultKind.RECLAIM):
            return head
        short = f"{self.factor:g}"
        factor = short if float(short) == self.factor else repr(self.factor)
        return f"{head}x{factor}"


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, iteration-ordered fault timeline."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events",
            tuple(sorted(self.events, key=lambda e: e.iteration)),
        )

    @property
    def is_empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __str__(self) -> str:
        """The comma-separated spec form; ``parse(str(s))`` round-trips."""
        return ",".join(e.label for e in self.events)

    # ---------------------------------------------------------------- #
    @staticmethod
    def empty() -> "FaultSchedule":
        return FaultSchedule(())

    @staticmethod
    def parse(spec: str) -> "FaultSchedule":
        """Parse ``kind:target@iteration[xfactor]`` items, comma-separated.

        Examples: ``crash:gpu3@5``, ``degrade:server1@8x0.5``,
        ``straggler:gpu2@3x1.7``, ``join:server1@4x2``,
        ``server_join:v100@6x2``, ``preempt:gpu3@5x2``,
        ``reclaim:gpu3@9``.

        Two events for the same ``target@iteration`` are rejected: the
        injector would apply them in spec order, silently making the
        schedule order-sensitive, so the collision is an error instead.
        """
        events: List[FaultEvent] = []
        specs_at: Dict[Tuple[str, int], List[str]] = {}
        for raw in spec.split(","):
            item = raw.strip()
            if not item:
                continue
            try:
                kind_s, rest = item.split(":", 1)
                target, when = rest.rsplit("@", 1)
                if "x" in when:
                    when_s, factor_s = when.split("x", 1)
                    factor = float(factor_s)
                else:
                    when_s, factor = when, 1.0
                kind = FaultKind(kind_s.strip().lower())
                events.append(FaultEvent(int(when_s), kind, target.strip(),
                                         factor))
            except (ValueError, KeyError) as exc:
                raise ReproError(
                    f"bad fault spec {item!r} (want kind:target@iter[xF], "
                    f"e.g. crash:gpu3@5 or degrade:server1@8x0.5): {exc}"
                ) from None
            specs_at.setdefault(
                (events[-1].target, events[-1].iteration), []).append(item)
        colliding = [items for items in specs_at.values() if len(items) > 1]
        if colliding:
            listed = "; ".join(" vs ".join(items) for items in colliding)
            raise ReproError(
                f"duplicate fault events for the same target@iteration: "
                f"{listed}")
        return FaultSchedule(tuple(events))

    @staticmethod
    def random(cluster: Cluster, *, seed: int, events: int = 2,
               horizon: int = 16) -> "FaultSchedule":
        """A deterministic seeded schedule of degradation faults
        (:data:`FAULT_KINDS`) over ``cluster``'s resources.

        Never crashes more than ``num_devices - 1`` GPUs, so a replan on
        the survivors is always possible.  Capacity events (arrivals,
        preemptions) come from :class:`~repro.elastic.ChurnSchedule`.
        """
        rng = np.random.default_rng(seed)
        device_ids = cluster.device_ids
        servers = cluster.server_names()
        crashed: List[str] = []
        taken: set = set()            # (target, iteration) pairs used
        out: List[FaultEvent] = []

        def emit(iteration: int, kind: FaultKind, target: str,
                 factor: float = 1.0) -> bool:
            if (target, iteration) in taken:
                return False          # skip colliding draws, stay valid
            taken.add((target, iteration))
            out.append(FaultEvent(iteration, kind, target, factor))
            return True

        for _ in range(events):
            kind = FAULT_KINDS[int(rng.integers(len(FAULT_KINDS)))]
            iteration = int(rng.integers(1, max(2, horizon)))
            if kind is FaultKind.DEVICE_CRASH:
                alive = [d for d in device_ids if d not in crashed]
                if len(alive) <= 1:
                    kind = FaultKind.STRAGGLER
                else:
                    target = alive[int(rng.integers(len(alive)))]
                    if emit(iteration, kind, target):
                        crashed.append(target)
                    continue
            if kind is FaultKind.LINK_DEGRADE:
                target = servers[int(rng.integers(len(servers)))]
                emit(iteration, kind, target, float(rng.uniform(0.3, 0.7)))
            else:  # straggler
                target = device_ids[int(rng.integers(len(device_ids)))]
                emit(iteration, kind, target, float(rng.uniform(1.5, 3.0)))
        return FaultSchedule(tuple(out))


@dataclass(frozen=True)
class FaultOverlay:
    """The active-fault view a :class:`TruthCostModel` prices under."""

    failed_devices: FrozenSet[str] = frozenset()
    compute_scale: Mapping[str, float] = field(default_factory=dict)
    link_scale: Mapping[Tuple[str, str], float] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return (not self.failed_devices and not self.compute_scale
                and not self.link_scale)


class FaultInjector:
    """Applies a :class:`FaultSchedule` to execution-engine cost models.

    The controller calls :meth:`advance` at the top of every training
    iteration; events whose iteration has arrived become *active* and
    are pushed to every attached cost model as one merged overlay.
    Faults are persistent (a crashed GPU stays dead, a straggler stays
    slow) — recovery happens by *replanning around* them, not by the
    fault clearing.
    """

    def __init__(self, cluster: Cluster, schedule: FaultSchedule):
        self.cluster = cluster
        self.schedule = schedule
        # the engine's stream, once bound
        self.rng: Optional[np.random.Generator] = None
        self._next = 0  # index of the first not-yet-fired event
        self._cost_models: List[object] = []
        self.failed_devices: set = set()
        self.compute_scale: Dict[str, float] = {}
        self._degrades: List[FaultEvent] = []
        self._link_scale: Dict[Tuple[str, str], float] = {}
        # the physical fleet: base cluster plus every activated join
        # (it only ever grows — failures live in the overlay, so a
        # reclaimed device is un-failed, never re-created)
        self._fleet: Cluster = cluster
        self._preempt_deadlines: Dict[str, int] = {}
        self._validate(schedule)

    def _validate(self, schedule: FaultSchedule) -> None:
        """Fail at construction on a typo'd target, not mid-run."""
        device_ids = set(self.cluster.device_ids)
        servers = set(self.cluster.server_names())
        future_dev = re.compile(r"gpu\d+$")
        for event in schedule:
            kind, target = event.kind, event.target
            if kind is FaultKind.LINK_DEGRADE:
                if target not in device_ids and target not in servers:
                    raise ReproError(
                        f"fault targets unknown resource {target!r} "
                        f"(known: {sorted(device_ids | servers)})")
            elif kind is FaultKind.DEVICE_JOIN:
                if target not in servers:
                    raise ReproError(
                        f"join needs an existing server, got {target!r} "
                        f"(known: {sorted(servers)})")
            elif kind is FaultKind.SERVER_JOIN:
                try:
                    resolve_gpu(target)
                except KeyError as exc:
                    raise ReproError(f"server_join: {exc.args[0]}") from None
            elif kind in (FaultKind.PREEMPT, FaultKind.RECLAIM):
                # fleet-relative: ids beyond the base cluster are allowed
                # when they match the fleet's naming (a device that joins
                # mid-run); membership is re-checked at activation
                if target not in device_ids and not future_dev.match(target):
                    raise ReproError(
                        f"{kind.value} fault needs a device id, got "
                        f"{target!r} (known: {sorted(device_ids)})")
            else:
                if target not in device_ids:
                    raise ReproError(
                        f"{kind.value} fault needs a device id, got "
                        f"{target!r} (known: {sorted(device_ids)})")

    # ---------------------------------------------------------------- #
    def bind(self, engine) -> None:
        """Share the engine's RNG stream and hook its cost model."""
        if self.rng is None:
            self.rng = engine.rng
        self.attach(engine.cost)

    def attach(self, cost) -> None:
        """Hook a :class:`TruthCostModel`; pushes the current overlay."""
        self._cost_models.append(cost)
        self._push_overlay_to(cost)

    # ---------------------------------------------------------------- #
    @property
    def any_active(self) -> bool:
        return self._next > 0

    @property
    def preempt_pending(self) -> Dict[str, int]:
        """Devices under a spot notice -> iteration they go dark."""
        return dict(self._preempt_deadlines)

    def advance(self, iteration: int) -> List[FaultEvent]:
        """Activate every event due at or before ``iteration``.

        Returns the newly fired events (empty most iterations).  A
        ``preempt`` notice whose window has elapsed fires a synthesized
        ``crash`` for its device here — the spot instance is gone.
        """
        fired: List[FaultEvent] = []
        events = self.schedule.events
        while self._next < len(events) \
                and events[self._next].iteration <= iteration:
            event = events[self._next]
            self._next += 1
            self._activate(event)
            fired.append(event)
        for target in sorted(self._preempt_deadlines):
            deadline = self._preempt_deadlines[target]
            if deadline <= iteration:
                del self._preempt_deadlines[target]
                self.failed_devices.add(target)
                fired.append(FaultEvent(deadline, FaultKind.DEVICE_CRASH,
                                        target))
        if fired:
            self._push_overlay()
            for event in fired:
                telemetry.emit_count(
                    "resilience_faults_injected_total",
                    labels={"kind": event.kind.value},
                    help="fault events activated by the injector")
        return fired

    def _activate(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind is FaultKind.DEVICE_CRASH:
            self.failed_devices.add(event.target)
        elif kind is FaultKind.STRAGGLER:
            # repeated stragglers on one device compound
            prev = self.compute_scale.get(event.target, 1.0)
            self.compute_scale[event.target] = prev * event.factor
        elif kind is FaultKind.DEVICE_JOIN:
            self._fleet = self._fleet.with_joined_devices(
                event.target, event.count)
        elif kind is FaultKind.SERVER_JOIN:
            template = ServerSpec(self._next_server_name(),
                                  resolve_gpu(event.target), event.count,
                                  NIC_50G, intra_link=PCIE3)
            self._fleet = self._fleet.with_joined_server(template)
        elif kind is FaultKind.PREEMPT:
            if event.target not in set(self._fleet.device_ids):
                raise ReproError(
                    f"preempt notice for a device not in the fleet: "
                    f"{event.label}")
            if event.target in self.failed_devices:
                raise ReproError(
                    f"preempt notice for an already-dead device: "
                    f"{event.label}")
            self._preempt_deadlines[event.target] = \
                event.iteration + event.count
        elif kind is FaultKind.RECLAIM:
            if event.target not in self.failed_devices:
                raise ReproError(
                    f"reclaim of a device that is not down: {event.label}")
            self.failed_devices.discard(event.target)
        else:
            self._degrades.append(event)
            for src, dst in self._links_of(event.target):
                prev = self._link_scale.get((src, dst), 1.0)
                self._link_scale[(src, dst)] = prev * event.factor

    def _next_server_name(self) -> str:
        """The next free ``server<N>`` name in the current fleet."""
        taken = [int(name[6:]) for name in self._fleet.server_names()
                 if name.startswith("server") and name[6:].isdigit()]
        return f"server{(max(taken) + 1) if taken else 0}"

    def _links_of(self, target: str) -> List[Tuple[str, str]]:
        """Directed device pairs whose link degrades with ``target``."""
        pairs: List[Tuple[str, str]] = []
        fleet = self._fleet
        is_device = target in set(fleet.device_ids)
        for link in fleet.links():
            if is_device:
                if target in (link.src, link.dst):
                    pairs.append((link.src, link.dst))
            elif not link.intra_server and (
                    fleet.device(link.src).server == target
                    or fleet.device(link.dst).server == target):
                pairs.append((link.src, link.dst))
        return pairs

    # ---------------------------------------------------------------- #
    def overlay(self) -> Optional[FaultOverlay]:
        """The merged active-fault overlay, or None when healthy."""
        if (not self.failed_devices and not self.compute_scale
                and not self._link_scale):
            return None
        return FaultOverlay(
            failed_devices=frozenset(self.failed_devices),
            compute_scale=dict(self.compute_scale),
            link_scale=dict(self._link_scale),
        )

    def _push_overlay(self) -> None:
        for cost in self._cost_models:
            self._push_overlay_to(cost)

    def _push_overlay_to(self, cost) -> None:
        overlay = self.overlay()
        if overlay is None:
            cost.clear_fault_overlay()
        else:
            cost.set_fault_overlay(overlay)

    # ---------------------------------------------------------------- #
    def degraded_cluster(self, base: Optional[Cluster] = None) -> Cluster:
        """The surviving cluster under every active fault.

        Crashed devices are removed, degraded links keep their scaled
        bandwidth, and stragglers keep their scaled compute throughput —
        this is what the :class:`~repro.resilience.replan.Replanner`
        re-plans against.
        """
        cluster = base if base is not None else self.cluster
        alive_failed = self.failed_devices & set(cluster.device_ids)
        if alive_failed:
            cluster = cluster.without_devices(alive_failed)
        for event in self._degrades:
            if (event.target in cluster.device_ids
                    or event.target in cluster.server_names()):
                cluster = cluster.with_scaled_links(
                    event.factor, involving=event.target)
        stragglers = {
            d: 1.0 / s for d, s in self.compute_scale.items()
            if d in set(cluster.device_ids) and s != 1.0
        }
        if stragglers:
            cluster = cluster.with_scaled_compute(stragglers)
        return cluster

    def physical_cluster(self) -> Cluster:
        """The fleet as hardware: base cluster plus every activated join.

        Failed devices are *included* (they exist, they are just dark) —
        this is what a rebuilt execution engine models, with the overlay
        making the failures visible.
        """
        return self._fleet

    def current_cluster(self) -> Cluster:
        """The usable fleet right now: joins applied, failures removed.

        The time-varying generalization of :meth:`degraded_cluster` —
        identical to it while no capacity event has fired.  Devices
        under a pending preempt notice are still present (they have not
        died yet); a drain policy subtracts them itself via
        :meth:`~repro.cluster.topology.Cluster.without_devices`.
        """
        return self.degraded_cluster(self._fleet)
