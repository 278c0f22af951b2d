"""Tests for PS / AllReduce aggregation structures and cost formulas."""

import pytest

from repro.cluster import cluster_4gpu, cluster_8gpu
from repro.errors import CompileError
from repro.parallel.aggregation import (
    choose_allreduce,
    choose_ps_device,
    cluster_link_lookup,
    hierarchical_allreduce_time,
    ring_allreduce_time,
)

from tests.helpers import homogeneous_cluster


@pytest.fixture(scope="module")
def lookup4():
    return cluster_link_lookup(cluster_4gpu())


class TestRingAllReduce:
    def test_single_device_free(self, lookup4):
        assert ring_allreduce_time(["gpu0"], 1e8, lookup4) == 0.0

    def test_scales_with_bytes(self, lookup4):
        devices = ["gpu0", "gpu1", "gpu2"]
        t1 = ring_allreduce_time(devices, 1e7, lookup4)
        t2 = ring_allreduce_time(devices, 1e8, lookup4)
        assert t2 > 5 * t1

    def test_bottlenecked_by_slowest_link(self):
        het = cluster_4gpu()
        lk = cluster_link_lookup(het)
        # ring within the NVLink server vs ring across servers
        intra = ring_allreduce_time(["gpu0", "gpu1"], 1e8, lk)
        cross = ring_allreduce_time(["gpu0", "gpu2"], 1e8, lk)
        assert cross > intra

    def test_2n_minus_1_over_n_scaling(self, lookup4):
        """Per-device traffic is 2(n-1)/n * bytes: doubling n with the same
        min-bandwidth ring shouldn't double the time."""
        t2 = ring_allreduce_time(["gpu0", "gpu2"], 1e8, lookup4)
        t4 = ring_allreduce_time(["gpu0", "gpu1", "gpu2", "gpu3"], 1e8, lookup4)
        assert t4 < 2 * t2


class TestHierarchicalAllReduce:
    @staticmethod
    def _nvlink_slow_nic_cluster():
        """Two servers, 4 NVLink GPUs each, slow 25GbE NICs: the regime
        where hierarchical AllReduce clearly beats the flat ring (the
        leader ring moves ~B over the slow path instead of ~2B)."""
        from repro.cluster import GBPS, NVLINK, TESLA_V100, Cluster, LinkSpec, ServerSpec
        nic = LinkSpec("25GbE", 25 * GBPS, 15e-6)
        return Cluster([
            ServerSpec("s0", TESLA_V100, 4, nic, intra_link=NVLINK),
            ServerSpec("s1", TESLA_V100, 4, nic, intra_link=NVLINK),
        ])

    def test_beats_flat_ring_with_fast_intra_links(self):
        c = self._nvlink_slow_nic_cluster()
        lk = cluster_link_lookup(c)
        flat = ring_allreduce_time(c.device_ids, 5e8, lk)
        hier = hierarchical_allreduce_time(c.device_ids, 5e8, lk, c)
        assert hier < flat

    def test_choose_allreduce_picks_better(self):
        """On the paper testbed (2 GPUs/server over PCIe), the flat ring's
        larger chunking amortization wins; with NVLink servers behind slow
        NICs the hierarchical structure wins.  choose_allreduce must pick
        the min either way."""
        for c in (cluster_8gpu(), self._nvlink_slow_nic_cluster()):
            lk = cluster_link_lookup(c)
            hierarchical, t = choose_allreduce(c.device_ids, 5e8, lk, c)
            flat = ring_allreduce_time(c.device_ids, 5e8, lk)
            hier = hierarchical_allreduce_time(c.device_ids, 5e8, lk, c)
            assert t == pytest.approx(min(flat, hier))
            assert hierarchical == (hier < flat)

    def test_choose_flat_for_single_server(self):
        c = homogeneous_cluster(4, gpus_per_server=4)
        lk = cluster_link_lookup(c)
        hierarchical, _ = choose_allreduce(c.device_ids, 1e8, lk, c)
        assert not hierarchical

    def test_choose_requires_two_devices(self, lookup4):
        c = cluster_4gpu()
        with pytest.raises(CompileError):
            choose_allreduce(["gpu0"], 1e8, lookup4, c)


class TestPSDeviceChoice:
    def test_prefers_best_connected(self):
        c = cluster_4gpu()
        lk = cluster_link_lookup(c)
        # gpu0/gpu1 sit behind the 100GbE NIC; either should win
        ps = choose_ps_device(c.device_ids, 1e8, lk)
        assert ps in ("gpu0", "gpu1")

    def test_single_candidate(self):
        c = cluster_4gpu()
        lk = cluster_link_lookup(c)
        assert choose_ps_device(["gpu3"], 1e8, lk) == "gpu3"

    def test_empty_rejected(self, lookup4):
        with pytest.raises(CompileError):
            choose_ps_device([], 1e8, lookup4)

    def test_deterministic(self):
        c = cluster_8gpu()
        lk = cluster_link_lookup(c)
        assert (choose_ps_device(c.device_ids, 1e8, lk)
                == choose_ps_device(c.device_ids, 1e8, lk))
