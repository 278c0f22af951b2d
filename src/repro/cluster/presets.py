"""Cluster presets mirroring the paper's testbed (Sec. 6.1).

The testbed: 5 machines, 12 GPUs total —
  * server0: 4x NVIDIA Tesla V100 16GB, 100GbE RDMA NIC, NVLink inside;
  * server1, server2: 2x GTX 1080Ti 11GB each, 50GbE RDMA NIC, PCIe;
  * server3, server4: 2x Tesla P100 12GB each, 50GbE RDMA NIC, PCIe;
all connected through a 100Gbps switch.

The 8-GPU experiments (Tables 1, 2, 7, Fig. 8) use 2 V100 + 4 1080Ti +
2 P100; Fig. 3 uses 2 V100 + 2 1080Ti.
"""

from __future__ import annotations

from .device import GTX_1080TI, TESLA_P100, TESLA_V100
from .link import NIC_100G, NIC_50G, NVLINK, PCIE3
from .topology import Cluster, ServerSpec

SWITCH_BANDWIDTH = 100e9 / 8  # bytes/s


def paper_testbed() -> Cluster:
    """The full 12-GPU, 5-server heterogeneous cluster."""
    return Cluster(
        [
            ServerSpec("server0", TESLA_V100, 4, NIC_100G, intra_link=NVLINK),
            ServerSpec("server1", GTX_1080TI, 2, NIC_50G, intra_link=PCIE3),
            ServerSpec("server2", GTX_1080TI, 2, NIC_50G, intra_link=PCIE3),
            ServerSpec("server3", TESLA_P100, 2, NIC_50G, intra_link=PCIE3),
            ServerSpec("server4", TESLA_P100, 2, NIC_50G, intra_link=PCIE3),
        ],
        switch_bandwidth=SWITCH_BANDWIDTH,
    )


def cluster_12gpu() -> Cluster:
    """Alias of :func:`paper_testbed` — the Table 4 / Fig. 9 cluster."""
    return paper_testbed()


def cluster_8gpu() -> Cluster:
    """2x V100 + 4x 1080Ti + 2x P100 (Tables 1, 2, 7; Fig. 8).

    Device indices match Table 2's caption: G0, G1 = V100; G2-G5 = 1080Ti;
    G6, G7 = P100.
    """
    return Cluster(
        [
            ServerSpec("server0", TESLA_V100, 2, NIC_100G, intra_link=NVLINK),
            ServerSpec("server1", GTX_1080TI, 2, NIC_50G, intra_link=PCIE3),
            ServerSpec("server2", GTX_1080TI, 2, NIC_50G, intra_link=PCIE3),
            ServerSpec("server3", TESLA_P100, 2, NIC_50G, intra_link=PCIE3),
        ],
        switch_bandwidth=SWITCH_BANDWIDTH,
    )


def cluster_2gpu() -> Cluster:
    """2x GTX 1080Ti on one server — the elastic-churn starting fleet.

    Deliberately small and slow: the churn experiments start here so
    that arriving V100 capacity is genuinely worth replanning onto.
    """
    return Cluster(
        [ServerSpec("server0", GTX_1080TI, 2, NIC_50G, intra_link=PCIE3)],
        switch_bandwidth=SWITCH_BANDWIDTH,
    )


def cluster_4gpu() -> Cluster:
    """2x V100 + 2x 1080Ti — the Fig. 3(a) motivation cluster."""
    return Cluster(
        [
            ServerSpec("server0", TESLA_V100, 2, NIC_100G, intra_link=NVLINK),
            ServerSpec("server1", GTX_1080TI, 2, NIC_50G, intra_link=PCIE3),
        ],
        switch_bandwidth=SWITCH_BANDWIDTH,
    )
