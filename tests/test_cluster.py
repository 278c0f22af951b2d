"""Tests for the cluster/topology substrate."""

import pytest

from repro.cluster import (
    GTX_1080TI,
    TESLA_V100,
    Cluster,
    cluster_4gpu,
    cluster_8gpu,
    cluster_12gpu,
    homogeneous_cluster,
)
from repro.errors import PlacementError


class TestPresets:
    def test_paper_testbed_has_12_gpus(self):
        c = cluster_12gpu()
        assert c.num_devices == 12
        models = [d.spec.model for d in c.devices]
        assert models.count("Tesla V100") == 4
        assert models.count("GTX 1080Ti") == 4
        assert models.count("Tesla P100") == 4

    def test_8gpu_matches_table2_caption(self):
        """G0, G1 = V100; G2-G5 = 1080Ti; G6, G7 = P100."""
        c = cluster_8gpu()
        models = [d.spec.model for d in c.devices]
        assert models[0] == models[1] == "Tesla V100"
        assert all(m == "GTX 1080Ti" for m in models[2:6])
        assert models[6] == models[7] == "Tesla P100"

    def test_4gpu_preset(self):
        c = cluster_4gpu()
        assert c.num_devices == 4

    def test_homogeneous(self):
        c = homogeneous_cluster(6, gpus_per_server=4)
        assert c.num_devices == 6
        assert len({d.spec.model for d in c.devices}) == 1


class TestTopology:
    def test_deterministic_device_ids(self):
        c = cluster_8gpu()
        assert c.device_ids == [f"gpu{i}" for i in range(8)]

    def test_unknown_device(self):
        with pytest.raises(PlacementError):
            cluster_4gpu().device("gpu99")

    def test_same_server(self):
        c = cluster_4gpu()
        assert c.same_server("gpu0", "gpu1")
        assert not c.same_server("gpu0", "gpu2")

    def test_intra_server_link_uses_nvlink_on_v100_box(self):
        c = cluster_4gpu()
        link = c.link("gpu0", "gpu1")
        assert link.intra_server
        assert link.bandwidth > 15e9  # NVLink class

    def test_inter_server_limited_by_slower_nic(self):
        c = cluster_4gpu()
        link = c.link("gpu0", "gpu2")  # V100 box (100G) -> 1080Ti box (50G)
        assert not link.intra_server
        assert link.bandwidth == pytest.approx(50e9 / 8)

    def test_loopback_link(self):
        c = cluster_4gpu()
        assert c.link("gpu0", "gpu0").transfer_time(1e9) == 0.0

    def test_links_exclude_loopback(self):
        c = cluster_4gpu()
        assert len(c.links()) == 4 * 3

    def test_transfer_time_monotone_in_size(self):
        link = cluster_4gpu().link("gpu0", "gpu2")
        assert link.transfer_time(2e6) > link.transfer_time(1e6)

    def test_empty_cluster_rejected(self):
        with pytest.raises(PlacementError):
            Cluster([])


class TestComputePower:
    def test_v100_roughly_2x_1080ti(self):
        ratio = TESLA_V100.peak_flops / GTX_1080TI.peak_flops
        assert 1.8 <= ratio <= 2.2

    def test_relative_powers_min_one(self):
        rel = cluster_8gpu().relative_powers()
        assert min(rel.values()) == 1.0

    def test_proportional_shares_sum_to_one(self):
        shares = cluster_8gpu().proportional_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_proportional_shares_subset(self):
        c = cluster_8gpu()
        shares = c.proportional_shares(["gpu0", "gpu2"])
        assert set(shares) == {"gpu0", "gpu2"}
        assert shares["gpu0"] > shares["gpu2"]  # V100 > 1080Ti

    def test_min_memory(self):
        assert cluster_8gpu().min_memory() == GTX_1080TI.memory_bytes


class TestSubcluster:
    def test_subcluster_device_count(self):
        c = cluster_12gpu()
        sub = c.subcluster([f"gpu{i}" for i in range(6)])
        assert sub.num_devices == 6

    def test_subcluster_unknown_device(self):
        with pytest.raises(PlacementError):
            cluster_4gpu().subcluster(["gpu9"])

    def test_subcluster_preserves_models(self):
        c = cluster_12gpu()
        sub = c.subcluster(["gpu0", "gpu4", "gpu5"])
        models = sorted(d.spec.model for d in sub.devices)
        assert models == ["GTX 1080Ti", "GTX 1080Ti", "Tesla V100"]
