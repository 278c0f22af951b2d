"""Client API (paper Sec. 3.5, Fig. 5) and the typed service entrypoint.

.. code-block:: python

    import repro as heterog

    def model_func():
        # create single GPU model
        return build_vgg19(batch_size=192)

    def input_func():
        return heterog.Dataset(batch_size=192)

    dist_runner = heterog.get_runner(
        model_func, input_func, device_info, heterog_config)
    dist_runner.run(steps)

``device_info`` is either a :class:`~repro.cluster.Cluster` or a list of
per-machine dicts with hostnames, GPU model and count, e.g.::

    [{"host": "10.0.0.1", "gpu_model": "Tesla V100", "gpus": 4,
      "nic_gbps": 100},
     {"host": "10.0.0.2", "gpu_model": "GTX 1080Ti", "gpus": 2,
      "nic_gbps": 50}]

Programmatic consumers that want more control than ``get_runner`` use
the typed planning surface re-exported here: build a
:class:`PlanRequest`, pass it to :func:`plan` (the process-wide default
:class:`PlanningService`) or to a service of your own, and get a
:class:`PlanResult` back.  Every error crossing this boundary is a
:class:`~repro.errors.ReproError` subclass.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Union

from .cluster.device import GPU_MODELS
from .cluster.link import GBPS, NVLINK, PCIE3, LinkSpec
from .cluster.topology import Cluster, ServerSpec
from .config import HeteroGConfig
from .errors import ReproError
from .graph.dag import ComputationGraph
from .heterog import HeteroG
from .runtime.runner import DistributedRunner
from .service import PlanningService, PlanRequest, PlanResult, PlanTicket


@dataclass(frozen=True)
class Dataset:
    """Input pipeline description (the ``input_func`` return value)."""

    batch_size: int
    num_samples: int = 1_000_000

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise ReproError(f"batch_size must be positive: {self.batch_size}")


DeviceInfo = Union[Cluster, Sequence[Mapping[str, object]]]


def parse_device_info(device_info: DeviceInfo) -> Cluster:
    """Build a :class:`Cluster` from the client's device description.

    Only :class:`~repro.errors.ReproError` subclasses escape: malformed
    entries (missing keys, non-numeric counts, unknown GPU models) are
    reported with the offending entry index, and unknown models list
    every valid model name.
    """
    if isinstance(device_info, Cluster):
        return device_info
    try:
        entries = list(device_info)
    except TypeError:
        raise ReproError(
            f"device_info must be a Cluster or a list of per-machine "
            f"dicts, got {type(device_info).__name__}"
        ) from None
    if not entries:
        raise ReproError("device_info is empty: describe at least one "
                         "machine or pass a Cluster")
    servers: List[ServerSpec] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ReproError(
                f"device_info entry {i} must be a mapping, "
                f"got {type(entry).__name__}"
            )
        try:
            model = str(entry["gpu_model"])
            gpus = int(entry["gpus"])  # type: ignore[arg-type]
            nic_gbps = float(entry.get("nic_gbps", 50))  # type: ignore
        except KeyError as missing:
            raise ReproError(
                f"device_info entry {i} missing key {missing}"
            ) from None
        except (TypeError, ValueError) as bad:
            raise ReproError(
                f"device_info entry {i} has a non-numeric field: {bad}"
            ) from None
        if model not in GPU_MODELS:
            raise ReproError(
                f"unknown GPU model {model!r}; known: {sorted(GPU_MODELS)}"
            )
        if gpus < 1:
            raise ReproError(
                f"device_info entry {i}: gpus must be >= 1, got {gpus}")
        nic = LinkSpec(f"{nic_gbps:.0f}GbE", nic_gbps * GBPS, 15e-6)
        intra = NVLINK if bool(entry.get("nvlink", model == "Tesla V100")) \
            else PCIE3
        host = str(entry.get("host", f"server{i}"))
        servers.append(ServerSpec(host, GPU_MODELS[model], gpus, nic,
                                  intra_link=intra))
    return Cluster(servers)


# --------------------------------------------------------------------- #
# the process-wide default planning service
_default_service: Optional[PlanningService] = None
_default_lock = threading.Lock()


def default_service() -> PlanningService:
    """The lazily created process-wide :class:`PlanningService`.

    Shared by :func:`plan` / :func:`submit` and the ``repro serve``
    demo; long-lived so repeated requests across callers coalesce and
    hit warm contexts.
    """
    global _default_service
    with _default_lock:
        if _default_service is None:
            _default_service = PlanningService(name="default")
        return _default_service


def plan(request: PlanRequest) -> PlanResult:
    """Plan one typed request on the default service (blocking)."""
    return default_service().plan(request)


def submit(request: PlanRequest) -> PlanTicket:
    """Admit one typed request on the default service (non-blocking)."""
    return default_service().submit(request)


def postmortem(request_id: str) -> str:
    """Post-hoc timeline for one request (or resilience episode) from
    the process-wide flight recorder; accepts a unique id prefix.

    Works with telemetry disabled — the recorder is always on and
    bounded.  Raises :class:`~repro.errors.ReproError` when no (unique)
    record matches.
    """
    from .telemetry.flight import default_recorder, postmortem_report
    record = default_recorder().get(request_id)
    if record is None:
        raise ReproError(
            f"no (unique) flight record for {request_id!r}; the ring "
            f"buffer holds {len(default_recorder())} records")
    return postmortem_report(record)


# --------------------------------------------------------------------- #
def get_runner(
    model_func: Callable[[], ComputationGraph],
    input_func: Callable[[], Dataset],
    device_info: DeviceInfo,
    heterog_config: Optional[HeteroGConfig] = None,
) -> DistributedRunner:
    """Convert a single-GPU model into a distributed runner (Sec. 3.5).

    Computes deployment strategies (GNN search + order scheduling),
    produces the distributed training model, and returns the runner whose
    ``run(steps)`` executes it on the heterogeneous cluster.
    """
    try:
        graph = model_func()
    except ReproError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ReproError(f"model_func failed: {exc}") from exc
    if not isinstance(graph, ComputationGraph):
        raise ReproError(
            "model_func must return a ComputationGraph (the single-GPU "
            "training graph)"
        )
    try:
        dataset = input_func()
    except ReproError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ReproError(f"input_func failed: {exc}") from exc
    batch = graph.batch_size()
    if batch and dataset.batch_size != batch:
        raise ReproError(
            f"input_func batch_size {dataset.batch_size} != model batch "
            f"size {batch}"
        )
    cluster = parse_device_info(device_info)
    module = HeteroG(cluster, heterog_config)
    deployment = module.deploy(graph)
    return module.runner(deployment)
