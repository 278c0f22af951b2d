"""Exception hierarchy for the HeteroG reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this package.

    ``request_id`` carries the correlation id of the plan request (or
    resilience episode) the error was produced on behalf of, when one
    was in scope — the planning service stamps it before handing the
    error back, so a caller can go straight to ``repro postmortem``.
    """

    request_id = None  # set by the service when raised for a request


class GraphError(ReproError):
    """Raised for malformed computation graphs (cycles, dangling edges, ...)."""


class PlacementError(ReproError):
    """Raised when a strategy references an unknown device or is inconsistent."""


class CompileError(ReproError):
    """Raised when the graph compiler cannot apply a strategy."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulator reaches an invalid state."""


class OutOfMemoryError(SimulationError):
    """Raised (or recorded) when a device exceeds its memory capacity.

    The strategy framework usually *records* OOM instead of raising, so the
    RL agent can penalize the strategy; the execution engine raises it when
    asked to run an infeasible deployment for real.
    """

    def __init__(self, device: str, required: int, capacity: int):
        self.device = device
        self.required = required
        self.capacity = capacity
        super().__init__(
            f"device {device} out of memory: "
            f"needs {required} bytes, capacity {capacity} bytes"
        )


class DeviceLostError(SimulationError):
    """Raised when an op touches a device the fault injector has crashed.

    The resilience layer (``repro.resilience``) treats this as the
    testbed's way of reporting a hard device failure: the execution
    engine surfaces it from the first dist-op that needs the dead GPU,
    and the :class:`~repro.runtime.trainer_loop.FailureDetector` turns
    it into a ``device_lost`` detection.
    """

    def __init__(self, device: str, op: str = ""):
        self.device = device
        self.op = op
        where = f" (needed by {op!r})" if op else ""
        super().__init__(f"device {device} is lost{where}")


class ProfilingError(ReproError):
    """Raised when the profiler cannot produce a prediction."""


class ServiceError(ReproError):
    """Base class for planning-service failures (``repro.service``)."""


class ServiceOverloadedError(ServiceError):
    """Raised when the service's admission queue is full.

    Structured so callers can implement backpressure: ``queue_depth`` is
    the number of requests waiting when the submission was rejected and
    ``limit`` is the service's configured queue bound.
    """

    def __init__(self, queue_depth: int, limit: int):
        self.queue_depth = queue_depth
        self.limit = limit
        super().__init__(
            f"planning service overloaded: {queue_depth} requests queued "
            f"(limit {limit}); retry later or raise max_queue"
        )


class ServiceTimeoutError(ServiceError):
    """Raised when a plan request misses its deadline.

    ``stage`` is ``"queue"`` when the deadline expired before the
    request was dispatched to a worker (the service fails it fast
    without evaluating) and ``"wait"`` when the caller stopped waiting
    for an in-flight computation.
    """

    def __init__(self, timeout: float, stage: str = "wait",
                 fingerprint: str = ""):
        self.timeout = timeout
        self.stage = stage
        self.fingerprint = fingerprint
        super().__init__(
            f"plan request timed out after {timeout:.3f}s ({stage})"
        )


class ServiceClosedError(ServiceError):
    """Raised when submitting to (or waiting on) a closed service."""


class WorkerLostError(ServiceError):
    """Raised when a request exhausts its re-dispatch budget.

    The fleet backend re-dispatches an in-flight request when its
    worker dies or stops heartbeating; after ``REDISPATCH_LIMIT``
    re-dispatches the request is failed with this error so a poisonous
    request cannot take the whole fleet down worker by worker.
    ``attempts`` counts dispatches tried, ``workers`` the ids that
    served (and lost) it.
    """

    def __init__(self, message, attempts=0, workers=()):
        self.attempts = attempts
        self.workers = list(workers)
        super().__init__(message)


class StrategyError(ReproError):
    """Raised for invalid strategy encodings or action vectors."""


class JournalSchemaError(ReproError):
    """Raised when a journal event fails schema validation.

    Emission and reading both validate against the versioned schema
    (``repro.telemetry.journal.SCHEMA_VERSION``): an unknown event type
    or a missing required field raises this, so a malformed journal
    fails loudly instead of silently degrading observability.
    """
