"""Runtime: execution engine (testbed stand-in) and runner."""

from .execution_engine import ExecutionEngine, IterationStats
from .runner import DistributedRunner, TrainingReport
from .trainer_loop import (
    SAMPLES_TO_TARGET,
    ConvergenceModel,
    DetectionEvent,
    FailureDetector,
    end_to_end_minutes,
)

__all__ = [
    "ExecutionEngine",
    "IterationStats",
    "DistributedRunner",
    "TrainingReport",
    "ConvergenceModel",
    "end_to_end_minutes",
    "SAMPLES_TO_TARGET",
    "DetectionEvent",
    "FailureDetector",
]
