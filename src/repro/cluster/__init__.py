"""Heterogeneous GPU cluster model: devices, links, topology, presets."""

from .device import (
    GB,
    GPU_ALIASES,
    GPU_MODELS,
    GTX_1080TI,
    TESLA_P100,
    TESLA_V100,
    Device,
    GPUSpec,
    resolve_gpu,
)
from .link import GBPS, NIC_50G, NIC_100G, NVLINK, PCIE3, Link, LinkSpec
from .presets import (
    cluster_2gpu,
    cluster_4gpu,
    cluster_8gpu,
    cluster_12gpu,
    paper_testbed,
)
from .topology import Cluster, ServerSpec

__all__ = [
    "Cluster",
    "Device",
    "GPUSpec",
    "Link",
    "LinkSpec",
    "ServerSpec",
    "GB",
    "GBPS",
    "GPU_ALIASES",
    "GPU_MODELS",
    "resolve_gpu",
    "TESLA_V100",
    "TESLA_P100",
    "GTX_1080TI",
    "NVLINK",
    "PCIE3",
    "NIC_100G",
    "NIC_50G",
    "paper_testbed",
    "cluster_12gpu",
    "cluster_8gpu",
    "cluster_4gpu",
    "cluster_2gpu",
]
