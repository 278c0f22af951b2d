"""Tests for the multi-job allocation extension (paper Sec. 7)."""

import pytest

from repro.cluster import cluster_8gpu
from repro.errors import ReproError
from repro.multijob import Job, MultiJobAllocator, Objective

from tests.helpers import make_mlp


@pytest.fixture(scope="module")
def cluster():
    return cluster_8gpu()


def jobs():
    # "big" genuinely scales with more GPUs (conv-heavy, light on
    # parameters); "small" is communication-bound and is fastest on a
    # single device
    from repro.graph.models import build_model
    return [
        Job("big", build_model("resnet200", "tiny", batch_size=256,
                               image_size=64),
            global_batch=256),
        Job("small", make_mlp(layers=2, width=32, batch_size=16,
                              name="job_small"), global_batch=16),
    ]


@pytest.fixture(scope="module")
def allocation(cluster):
    return MultiJobAllocator(cluster, seed=0).allocate(jobs())


class TestJobValidation:
    def test_min_gpus_positive(self):
        with pytest.raises(ReproError):
            Job("j", make_mlp(name="job_bad"), 8, min_gpus=0)

    def test_no_jobs_rejected(self, cluster):
        with pytest.raises(ReproError):
            MultiJobAllocator(cluster).allocate([])

    def test_too_many_min_gpus(self, cluster):
        many = [Job(f"j{i}", make_mlp(name=f"job_{i}"), 8, min_gpus=3)
                for i in range(4)]
        with pytest.raises(ReproError):
            MultiJobAllocator(cluster).allocate(many)

    def test_duplicate_names_rejected(self, cluster):
        dup = [Job("same", make_mlp(name="job_d1"), 8),
               Job("same", make_mlp(name="job_d2"), 8)]
        with pytest.raises(ReproError):
            MultiJobAllocator(cluster).allocate(dup)


class TestAllocation:
    def test_every_gpu_assigned_or_idle(self, allocation, cluster):
        assigned = [d for devs in allocation.devices.values() for d in devs]
        assigned += allocation.idle
        assert sorted(assigned) == sorted(cluster.device_ids)

    def test_no_device_assigned_twice(self, allocation):
        assigned = [d for devs in allocation.devices.values() for d in devs]
        assert len(assigned) == len(set(assigned))

    def test_idle_gpus_only_when_harmful(self, allocation, cluster):
        """The scalable job exists, so not every GPU should sit idle."""
        assert len(allocation.idle) < cluster.num_devices - 2

    def test_min_gpus_respected(self, allocation):
        for devs in allocation.devices.values():
            assert len(devs) >= 1

    def test_speeds_positive(self, allocation):
        assert all(s > 0 for s in allocation.speeds.values())

    def test_scalable_job_gets_more_gpus(self, allocation):
        """Greedy throughput allocation gives extra GPUs to the job whose
        marginal gain is larger — the compute-heavy, scalable one."""
        assert len(allocation.devices["big"]) > len(allocation.devices["small"])

    def test_total_throughput(self, allocation):
        assert allocation.total_throughput() == pytest.approx(
            sum(allocation.speeds.values()))

    def test_fairness_objective_helps_slowest(self, cluster):
        fair = MultiJobAllocator(cluster, seed=0).allocate(
            jobs(), objective=Objective.FAIRNESS)
        assert fair.min_speed() > 0

    def test_makespan_objective_runs(self, cluster):
        alloc = MultiJobAllocator(cluster, seed=0).allocate(
            jobs(), objective=Objective.MIN_MAKESPAN)
        assert set(alloc.devices) == {"big", "small"}

    def test_speed_cache_reused(self, cluster):
        allocator = MultiJobAllocator(cluster, seed=0)
        allocator.allocate(jobs())
        before = allocator.service.stats.snapshot()
        # the greedy loop re-queries identical (graph, allocation)
        # candidates; those must be result-cache hits, not re-evaluations
        assert before["executed"] > 0
        assert before["result_hits"] > 0
        allocator.allocate(jobs())
        after = allocator.service.stats.snapshot()
        # second allocation answered fully from the service's result cache
        assert after["executed"] == before["executed"]
        assert after["result_hits"] > before["result_hits"]

    def test_identical_queries_evaluated_once(self, cluster):
        """One evaluation per unique (job, device-set) fingerprint."""
        allocator = MultiJobAllocator(cluster, seed=0)
        allocator.allocate(jobs())
        stats = allocator.service.stats
        assert stats.executed + stats.result_hits == stats.submitted
        # far fewer evaluations than queries: the loop repeats itself
        assert stats.executed < stats.submitted / 2
