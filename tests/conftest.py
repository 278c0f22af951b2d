"""Shared fixtures: tiny graphs, clusters, and profiles (session-scoped)."""

from __future__ import annotations

import pytest

from repro.cluster import cluster_4gpu, cluster_8gpu
from repro.graph.models import build_model
from repro.profiling import MeasurementNoise, Profiler
from repro.service.backends import fleet

from tests.helpers import homogeneous_cluster, make_mlp


@pytest.fixture
def fast_heartbeats(monkeypatch):
    """A fast, deterministic fleet failure detector: workers beat every
    0.1 s and are declared lost after 1 s of silence."""
    monkeypatch.setattr(fleet, "HEARTBEAT_INTERVAL", 0.1)
    monkeypatch.setattr(fleet, "HEARTBEAT_TIMEOUT", 1.0)


@pytest.fixture(scope="session")
def mlp_graph():
    return make_mlp()


@pytest.fixture(scope="session")
def tiny_vgg():
    return build_model("vgg19", "tiny")


@pytest.fixture(scope="session")
def tiny_transformer():
    return build_model("transformer", "tiny")


@pytest.fixture(scope="session")
def four_gpu():
    return cluster_4gpu()


@pytest.fixture(scope="session")
def eight_gpu():
    return cluster_8gpu()


@pytest.fixture(scope="session")
def homog_4gpu():
    return homogeneous_cluster(4)


@pytest.fixture(scope="session")
def mlp_profile(mlp_graph, four_gpu):
    return Profiler(seed=0).profile(mlp_graph, four_gpu)


@pytest.fixture(scope="session")
def mlp_profile_exact(mlp_graph, four_gpu):
    return Profiler(noise=MeasurementNoise(0.0), seed=0).profile(
        mlp_graph, four_gpu
    )


@pytest.fixture(scope="session")
def vgg_profile(tiny_vgg, four_gpu):
    return Profiler(seed=0).profile(tiny_vgg, four_gpu)
