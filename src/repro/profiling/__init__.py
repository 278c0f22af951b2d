"""Profiler: analytic cost model, synthetic measurements, regressions."""

from .cost_model import (
    bytes_touched,
    op_class,
    op_memory_bytes,
    op_resident_bytes,
    op_time,
    transfer_time,
)
from .measurements import (
    DEFAULT_FRACTIONS,
    DEFAULT_SIZES,
    MeasurementNoise,
)
from .profiler import Profile, Profiler
from .regression import OpTimeRegression, TransferTimeRegression

__all__ = [
    "Profile",
    "Profiler",
    "OpTimeRegression",
    "TransferTimeRegression",
    "MeasurementNoise",
    "DEFAULT_FRACTIONS",
    "DEFAULT_SIZES",
    "op_time",
    "op_class",
    "transfer_time",
    "bytes_touched",
    "op_memory_bytes",
    "op_resident_bytes",
]
