"""Execution-order scheduling: ranks, list scheduler, FIFO, bounds."""

from .bounds import (
    WorstCaseInstance,
    critical_path,
    optimal_lower_bound,
    total_work,
    worst_case_instance,
)
from .list_scheduler import FifoScheduler, ListScheduler, Schedule

__all__ = [
    "ListScheduler",
    "FifoScheduler",
    "Schedule",
    "worst_case_instance",
    "WorstCaseInstance",
    "total_work",
    "critical_path",
    "optimal_lower_bound",
]
