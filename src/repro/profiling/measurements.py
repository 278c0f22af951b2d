"""Synthetic measurement settings.

Stand in for running the model under TensorFlow's FULL_TRACE profiler:
the Profiler samples the analytic cost model at representative batch
fractions / transfer sizes, with multiplicative log-normal noise
mimicking kernel-time variance on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Batch fractions the profiler samples per op/device ("different
# representative batch sizes", Sec. 3.3).
DEFAULT_FRACTIONS = (0.125, 0.25, 0.5, 1.0)
# Transfer sizes sampled per link, in bytes.
DEFAULT_SIZES = (64 * 1024, 1024 * 1024, 16 * 1024 * 1024, 128 * 1024 * 1024)


@dataclass(frozen=True)
class MeasurementNoise:
    """Log-normal multiplicative noise model for one profiling run."""

    sigma: float = 0.03

    def apply(self, values: np.ndarray, rng: np.random.Generator
              ) -> np.ndarray:
        """``values`` times one log-normal factor each, drawn in C
        order (the draws one scalar call per value would make)."""
        if self.sigma <= 0:
            return values
        return values * rng.lognormal(mean=0.0, sigma=self.sigma,
                                      size=values.shape)
