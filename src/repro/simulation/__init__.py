"""Discrete-event simulation of distributed training iterations."""

from .costs import CostProvider, ProfileCostModel, TruthCostModel
from .engine import Simulator
from .kernel import SimKernel, lower
from .memory import MemoryTracker, charge_device, output_bytes
from .metrics import SimulationResult, union_length

__all__ = [
    "CostProvider",
    "ProfileCostModel",
    "TruthCostModel",
    "Simulator",
    "SimKernel",
    "lower",
    "SimulationResult",
    "MemoryTracker",
    "union_length",
    "output_bytes",
    "charge_device",
]
