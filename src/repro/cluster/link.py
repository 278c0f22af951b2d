"""Communication links between devices.

Following Sec. 4.2, each *directed* device pair is modelled as its own
schedulable resource ("we further treat a link between two GPUs as a
device"): a link carries at most one tensor transfer at a time.  Intra-
server links go over NVLink/PCIe; inter-server paths traverse both NICs
and the switch, so their bandwidth is the minimum along the path.
"""

from __future__ import annotations

from dataclasses import dataclass

GBPS = 1e9 / 8  # 1 Gbit/s in bytes/s


@dataclass(frozen=True)
class LinkSpec:
    """Bandwidth/latency of one interconnect technology."""

    name: str
    bandwidth: float  # bytes/s
    latency: float    # seconds per message

    def transfer_time(self, size_bytes: float) -> float:
        return self.latency + size_bytes / self.bandwidth


NVLINK = LinkSpec("NVLink", 22e9, 2e-6)
PCIE3 = LinkSpec("PCIe3 x16", 11e9, 3e-6)
NIC_100G = LinkSpec("100GbE RDMA", 100 * GBPS, 6e-6)
NIC_50G = LinkSpec("50GbE RDMA", 50 * GBPS, 6e-6)
LOOPBACK = LinkSpec("loopback", 1e15, 0.0)


@dataclass(frozen=True)
class Link:
    """A directed communication path between two devices."""

    src: str
    dst: str
    bandwidth: float
    latency: float
    intra_server: bool

    def transfer_time(self, size_bytes: float) -> float:
        if self.src == self.dst:
            return 0.0
        return self.latency + size_bytes / self.bandwidth
