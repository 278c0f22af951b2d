"""Cluster topology: servers, devices, and the link fabric between them."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import PlacementError
from .device import Device, GPUSpec
from .link import LOOPBACK, PCIE3, Link, LinkSpec


@dataclass(frozen=True)
class ServerSpec:
    """One physical machine hosting GPUs behind a NIC."""

    name: str
    gpu_spec: GPUSpec
    num_gpus: int
    nic: LinkSpec
    intra_link: LinkSpec = PCIE3  # NVLink on the V100 box, PCIe elsewhere


def _wire_link(a: Device, b: Device, spec_of: Mapping[str, ServerSpec],
               switch_bandwidth: float) -> Link:
    """The link the fabric gives a device pair (loopback / intra / inter).

    One shared implementation so links wired for a freshly-joined device
    are value-identical to what full re-enumeration would produce.
    """
    if a.device_id == b.device_id:
        return Link(a.device_id, b.device_id, LOOPBACK.bandwidth,
                    LOOPBACK.latency, intra_server=True)
    if a.server == b.server:
        spec = spec_of[a.device_id].intra_link
        return Link(a.device_id, b.device_id, spec.bandwidth, spec.latency,
                    intra_server=True)
    nic_a = spec_of[a.device_id].nic
    nic_b = spec_of[b.device_id].nic
    bandwidth = min(nic_a.bandwidth, nic_b.bandwidth, switch_bandwidth)
    latency = nic_a.latency + nic_b.latency
    return Link(a.device_id, b.device_id, bandwidth, latency,
                intra_server=False)


def _device_order_key(device: Device) -> Tuple[int, str]:
    """Canonical fleet order: numeric ``gpuN`` suffix, then lexical."""
    dev_id = device.device_id
    if dev_id.startswith("gpu") and dev_id[3:].isdigit():
        return (int(dev_id[3:]), dev_id)
    return (1 << 30, dev_id)


class Cluster:
    """The heterogeneous GPU cluster HeteroG deploys onto.

    Responsible for: device enumeration (deterministic order — placement
    actions index into it), pairwise link lookup, and compute-power ratios
    for proportional replica allocation.
    """

    def __init__(self, servers: Sequence[ServerSpec],
                 switch_bandwidth: float = 100e9 / 8):
        if not servers:
            raise PlacementError("cluster needs at least one server")
        self.servers: List[ServerSpec] = list(servers)
        self.switch_bandwidth = switch_bandwidth
        self._devices: List[Device] = []
        for server in self.servers:
            for i in range(server.num_gpus):
                dev_id = f"gpu{len(self._devices)}"
                self._devices.append(Device(dev_id, server.name, server.gpu_spec))
        self._by_id: Dict[str, Device] = {d.device_id: d for d in self._devices}
        self._server_of: Dict[str, ServerSpec] = {
            d.device_id: server
            for server in self.servers
            for d in self._devices
            if d.server == server.name
        }
        self._links: Dict[Tuple[str, str], Link] = {}
        for a in self._devices:
            for b in self._devices:
                self._links[(a.device_id, b.device_id)] = self._make_link(a, b)

    # ------------------------------------------------------------------ #
    def _make_link(self, a: Device, b: Device) -> Link:
        return _wire_link(a, b, self._server_of, self.switch_bandwidth)

    # ------------------------------------------------------------------ #
    @property
    def devices(self) -> List[Device]:
        return list(self._devices)

    @property
    def device_ids(self) -> List[str]:
        return [d.device_id for d in self._devices]

    @property
    def num_devices(self) -> int:
        return len(self._devices)

    def device(self, device_id: str) -> Device:
        try:
            return self._by_id[device_id]
        except KeyError:
            raise PlacementError(f"unknown device {device_id!r}") from None

    def link(self, src: str, dst: str) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise PlacementError(f"unknown link {src!r} -> {dst!r}") from None

    def links(self) -> List[Link]:
        return [link for link in self._links.values()
                if link.src != link.dst]

    def same_server(self, a: str, b: str) -> bool:
        return self.device(a).server == self.device(b).server

    def devices_on_server(self, server: str) -> List[Device]:
        return [d for d in self._devices if d.server == server]

    def server_names(self) -> List[str]:
        return [s.name for s in self.servers]

    # ------------------------------------------------------------------ #
    def compute_powers(self) -> Dict[str, float]:
        return {d.device_id: d.compute_power for d in self._devices}

    def relative_powers(self) -> Dict[str, float]:
        """Powers normalized so the weakest device is 1.0."""
        powers = self.compute_powers()
        weakest = min(powers.values())
        return {k: v / weakest for k, v in powers.items()}

    def proportional_shares(self, device_ids: Optional[Iterable[str]] = None
                            ) -> Dict[str, float]:
        """Fractions of a batch per device, proportional to compute power."""
        ids = list(device_ids) if device_ids is not None else self.device_ids
        total = sum(self.device(d).compute_power for d in ids)
        return {d: self.device(d).compute_power / total for d in ids}

    def min_memory(self) -> int:
        return min(d.memory_bytes for d in self._devices)

    def subcluster(self, device_ids: Sequence[str]) -> "Cluster":
        """A cluster view restricted to ``device_ids`` (keeps servers/links).

        Used for the paper's 8-GPU vs 12-GPU experiments on one testbed.

        .. note:: This builds a *fresh* cluster, so devices are
           **renumbered** from ``gpu0`` (``subcluster(["gpu2", "gpu3"])``
           yields devices ``gpu0``/``gpu1``).  That is right for
           "pretend the testbed is smaller" experiments, but wrong for a
           fleet that changed mid-run: use :meth:`without_devices` /
           :meth:`with_devices`, which preserve device identity, when
           strategies or plan fingerprints referencing existing ids must
           stay valid.
        """
        keep = set(device_ids)
        unknown = keep - set(self.device_ids)
        if unknown:
            raise PlacementError(f"unknown devices {sorted(unknown)}")
        per_server: Dict[str, int] = {}
        for dev in self._devices:
            if dev.device_id in keep:
                per_server[dev.server] = per_server.get(dev.server, 0) + 1
        specs = [
            ServerSpec(s.name, s.gpu_spec, per_server[s.name], s.nic, s.intra_link)
            for s in self.servers if per_server.get(s.name)
        ]
        return Cluster(specs, self.switch_bandwidth)

    # ------------------------------------------------------------------ #
    # degraded views (resilience layer): unlike subcluster(), these keep
    # the surviving devices' original ids and link objects, so strategies
    # and schedules that reference "gpu5" still mean the same GPU after a
    # failure elsewhere in the cluster
    # ------------------------------------------------------------------ #
    def _derive(self, devices: List[Device],
                links: Dict[Tuple[str, str], Link],
                servers: List[ServerSpec]) -> "Cluster":
        """Clone with explicit device/link tables (bypasses re-enumeration)."""
        clone = object.__new__(Cluster)
        clone.servers = servers
        clone.switch_bandwidth = self.switch_bandwidth
        clone._devices = devices
        clone._by_id = {d.device_id: d for d in devices}
        spec_of = {s.name: s for s in servers}
        clone._server_of = {d.device_id: spec_of[d.server] for d in devices}
        clone._links = links
        return clone

    def without_devices(self, device_ids: Iterable[str]) -> "Cluster":
        """The cluster minus crashed devices, original ids preserved.

        Every link touching a removed device disappears with it; servers
        whose GPUs all failed are dropped entirely.

        Unlike :meth:`subcluster` (which renumbers from ``gpu0``), the
        survivors keep their ids, specs and link objects, so placements
        and plan fingerprints that mention ``gpu5`` still mean the same
        GPU.  :meth:`with_devices` is the growth dual: removing devices
        and adding the *same* :class:`Device` objects back round-trips
        to an identical cluster fingerprint.
        """
        failed = set(device_ids)
        unknown = failed - set(self.device_ids)
        if unknown:
            raise PlacementError(f"unknown devices {sorted(unknown)}")
        survivors = [d for d in self._devices if d.device_id not in failed]
        if not survivors:
            raise PlacementError("cannot remove every device in the cluster")
        alive = {d.device_id for d in survivors}
        links = {
            pair: link for pair, link in self._links.items()
            if pair[0] in alive and pair[1] in alive
        }
        per_server: Dict[str, int] = {}
        for dev in survivors:
            per_server[dev.server] = per_server.get(dev.server, 0) + 1
        servers = [
            dataclasses.replace(s, num_gpus=per_server[s.name])
            for s in self.servers if per_server.get(s.name)
        ]
        return self._derive(survivors, links, servers)

    def with_devices(self, devices: Iterable[Device],
                     templates: Optional[Mapping[str, ServerSpec]] = None
                     ) -> "Cluster":
        """The cluster plus ``devices``, existing identities untouched.

        The growth dual of :meth:`without_devices`: no device is
        renumbered, existing link objects are kept, and the new devices'
        links are wired from their hosting server's spec (intra link
        inside the server, NIC + switch across servers) exactly as full
        re-enumeration would wire them — so
        ``c.without_devices(s).with_devices([c.device(d) for d in s])``
        produces an *identical* cluster fingerprint and the warm plan
        layer stays sound across fleet changes.

        Each added :class:`Device` names its hosting server.  Servers
        already in the cluster contribute their NIC/intra-link specs;
        a server unknown to the cluster must appear in ``templates``
        (its ``num_gpus`` is taken from the devices actually added).
        Devices are kept in canonical fleet order (numeric ``gpuN``
        order), so a reclaimed ``gpu1`` slots back between ``gpu0`` and
        ``gpu2`` instead of being appended.
        """
        added = list(devices)
        if not added:
            return self
        dup = [d.device_id for d in added if d.device_id in self._by_id]
        if dup:
            raise PlacementError(
                f"devices already in the cluster: {sorted(set(dup))}")
        if len({d.device_id for d in added}) != len(added):
            raise PlacementError(
                f"duplicate device ids in with_devices: "
                f"{sorted(d.device_id for d in added)}")
        templates = dict(templates or {})
        spec_by_name: Dict[str, ServerSpec] = {s.name: s for s in self.servers}
        per_new_server: Dict[str, int] = {}
        for dev in added:
            if dev.server not in spec_by_name:
                if dev.server not in templates:
                    raise PlacementError(
                        f"device {dev.device_id!r} joins unknown server "
                        f"{dev.server!r} and no template was given")
                per_new_server[dev.server] = \
                    per_new_server.get(dev.server, 0) + 1
        servers: List[ServerSpec] = []
        added_per_server: Dict[str, int] = {}
        for dev in added:
            added_per_server[dev.server] = \
                added_per_server.get(dev.server, 0) + 1
        for s in self.servers:
            extra = added_per_server.get(s.name, 0)
            servers.append(dataclasses.replace(s, num_gpus=s.num_gpus + extra)
                           if extra else s)
        for name, count in per_new_server.items():
            servers.append(dataclasses.replace(templates[name], name=name,
                                               num_gpus=count))
        merged = sorted(self._devices + added, key=_device_order_key)
        spec_of = {s.name: s for s in servers}
        server_of = {d.device_id: spec_of[d.server] for d in merged}
        links = dict(self._links)
        new_ids = {d.device_id for d in added}
        for a in merged:
            for b in merged:
                if a.device_id in new_ids or b.device_id in new_ids:
                    links[(a.device_id, b.device_id)] = _wire_link(
                        a, b, server_of, self.switch_bandwidth)
        return self._derive(merged, links, servers)

    def with_joined_devices(self, server: str, count: int = 1) -> "Cluster":
        """``count`` fresh GPUs joining an existing ``server`` in place.

        New devices take the server's GPU spec and the next free numeric
        ids (``gpu<max+1>`` ...), so existing ids never shift.
        """
        spec = next((s for s in self.servers if s.name == server), None)
        if spec is None:
            raise PlacementError(
                f"unknown server {server!r} "
                f"(known: {self.server_names()})")
        if count < 1:
            raise PlacementError(f"join count must be >= 1, got {count}")
        start = self._next_device_index()
        added = [Device(f"gpu{start + i}", server, spec.gpu_spec)
                 for i in range(count)]
        return self.with_devices(added)

    def with_joined_server(self, template: ServerSpec) -> "Cluster":
        """A whole new server (``template``) joining the fleet.

        The template's ``num_gpus`` GPUs get the next free numeric ids.
        """
        if template.name in set(self.server_names()):
            raise PlacementError(
                f"server {template.name!r} already in the cluster")
        if template.num_gpus < 1:
            raise PlacementError(
                f"joined server needs >= 1 GPUs, got {template.num_gpus}")
        start = self._next_device_index()
        added = [Device(f"gpu{start + i}", template.name, template.gpu_spec)
                 for i in range(template.num_gpus)]
        return self.with_devices(added, templates={template.name: template})

    def _next_device_index(self) -> int:
        """First numeric device suffix not used by any current device."""
        taken = [int(d.device_id[3:]) for d in self._devices
                 if d.device_id.startswith("gpu") and d.device_id[3:].isdigit()]
        return (max(taken) + 1) if taken else 0

    def with_scaled_links(self, factor: float,
                          involving: Optional[str] = None) -> "Cluster":
        """The cluster with some link bandwidths multiplied by ``factor``.

        ``involving`` selects which links degrade: a device id scales
        every link touching that device; a server name scales the
        server's inter-server (NIC) paths; ``None`` scales every
        inter-server link (switch-wide congestion).
        """
        if factor <= 0:
            raise PlacementError(f"link scale must be positive, got {factor}")
        if (involving is not None and involving not in self._by_id
                and involving not in self.server_names()):
            raise PlacementError(
                f"unknown device or server {involving!r}")

        def touched(link: Link) -> bool:
            if involving is None:
                return not link.intra_server
            if involving in self._by_id:
                return involving in (link.src, link.dst)
            return (not link.intra_server
                    and (self.device(link.src).server == involving
                         or self.device(link.dst).server == involving))

        links = {
            pair: (dataclasses.replace(
                       link, bandwidth=link.bandwidth * factor)
                   if link.src != link.dst and touched(link) else link)
            for pair, link in self._links.items()
        }
        return self._derive(list(self._devices), links, list(self.servers))

    def with_scaled_compute(self, scale: Mapping[str, float]) -> "Cluster":
        """The cluster with some devices' compute throughput multiplied.

        ``scale`` maps device ids to a factor applied to peak FLOPs and
        memory bandwidth (e.g. 0.5 for a device running at half speed —
        a persistent straggler).  Memory capacity is unchanged.
        """
        unknown = set(scale) - set(self.device_ids)
        if unknown:
            raise PlacementError(f"unknown devices {sorted(unknown)}")
        if any(f <= 0 for f in scale.values()):
            raise PlacementError(f"compute scale must be positive: {scale}")
        devices: List[Device] = []
        for dev in self._devices:
            factor = scale.get(dev.device_id)
            if factor is None or factor == 1.0:
                devices.append(dev)
                continue
            spec = dataclasses.replace(
                dev.spec,
                model=f"{dev.spec.model} (x{factor:.2f})",
                peak_flops=dev.spec.peak_flops * factor,
                mem_bandwidth=dev.spec.mem_bandwidth * factor,
            )
            devices.append(dataclasses.replace(dev, spec=spec))
        return self._derive(devices, dict(self._links), list(self.servers))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        per = ", ".join(
            f"{s.name}:{s.num_gpus}x{s.gpu_spec.model}" for s in self.servers
        )
        return f"Cluster({per})"
