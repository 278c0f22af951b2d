"""Linear-regression predictors, as the paper's Profiler builds (Sec. 3.3).

Two families:

- :class:`OpTimeRegression` — per (operation, GPU model): execution time as
  a linear function of the batch fraction, fitted on measurements at
  representative batch sizes ("we build a linear regression model to
  predict computation time of a specific operation at other batch sizes").
- :class:`TransferTimeRegression` — per link: transfer time as a linear
  function of tensor size ("record the transfer time and build a linear
  regression model for transfer time prediction over each link").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from ..errors import ProfilingError


def _raise_lstsq(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_gufunc(samples: int):
    """The gufunc ``np.linalg.lstsq`` calls for ``samples`` x 2 systems.

    numpy >= 2.1 has one ``lstsq`` gufunc; numpy 2.0 has ``lstsq_m``
    (samples <= unknowns) and ``lstsq_n``, and its ``np.linalg.lstsq``
    picks between them the same way.
    """
    gufunc = getattr(_umath_linalg, "lstsq", None)
    if gufunc is not None:
        return gufunc
    return _umath_linalg.lstsq_m if samples <= 2 else _umath_linalg.lstsq_n


def fit_lines(xs: Sequence[float], ys) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted least-squares fits y = slope * x + intercept, one per row
    of ``ys`` (rows x ``len(xs)``); returns the slopes and intercepts.

    Measurement noise is multiplicative (kernel-time jitter is a
    percentage, not an absolute), so residuals are weighted by 1/y:
    without this, the intercept — microseconds of latency — would be
    swamped by the absolute noise of the multi-millisecond large-size
    samples and come out wildly wrong.

    Every row is solved in one call of the LAPACK gufunc that
    ``np.linalg.lstsq`` wraps, with the ``rcond`` and error handling
    that wrapper uses, so each row's coefficients are bit-identical to
    a ``np.linalg.lstsq`` call of its own.  A fit that does not
    converge (a NaN sample, say) raises :class:`LinAlgError`.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != len(x) or len(x) == 0:
        raise ProfilingError("regression needs equal, non-empty x/y samples")
    if len(x) == 1:
        return np.zeros(len(y)), y[:, 0]
    weights = 1.0 / np.maximum(np.abs(y), 1e-12)
    design = np.stack([np.broadcast_to(x, y.shape), np.ones_like(y)],
                      axis=2) * weights[:, :, None]
    rhs = (y * weights)[:, :, None]
    # np.linalg.lstsq's default: eps * max(samples, unknowns)
    rcond = np.finfo(np.float64).eps * max(len(x), 2)
    with np.errstate(call=_raise_lstsq, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        coef = _lstsq_gufunc(len(x))(design, rhs, rcond,
                                     signature="ddd->ddid")[0]
    return coef[:, 0, 0], coef[:, 1, 0]


@dataclass(frozen=True)
class OpTimeRegression:
    """time(batch_fraction) = slope * batch_fraction + intercept."""

    slope: float
    intercept: float

    @classmethod
    def fit_many(cls, fractions: Sequence[float], times
                 ) -> List["OpTimeRegression"]:
        """One regression per row of ``times`` (rows x fractions)."""
        slopes, intercepts = fit_lines(fractions, times)
        return list(map(cls, slopes.tolist(), intercepts.tolist()))

    @classmethod
    def fit(cls, fractions: Sequence[float], times: Sequence[float]
            ) -> "OpTimeRegression":
        return cls.fit_many(fractions, [times])[0]

    def predict(self, batch_fraction: float) -> float:
        if batch_fraction <= 0:
            raise ProfilingError(
                f"batch_fraction must be positive, got {batch_fraction}"
            )
        # physical floor: a kernel never runs in negative time
        return max(1e-9, self.slope * batch_fraction + self.intercept)


@dataclass(frozen=True)
class TransferTimeRegression:
    """time(bytes) = bytes / bandwidth + latency, fitted from samples."""

    inv_bandwidth: float
    latency: float

    @classmethod
    def fit_many(cls, sizes: Sequence[float], times
                 ) -> List["TransferTimeRegression"]:
        """One regression per row of ``times`` (rows x sizes)."""
        slopes, intercepts = fit_lines(sizes, times)
        return [cls(max(slope, 0.0), max(intercept, 0.0))
                for slope, intercept in zip(slopes.tolist(),
                                            intercepts.tolist())]

    @classmethod
    def fit(cls, sizes: Sequence[float], times: Sequence[float]
            ) -> "TransferTimeRegression":
        return cls.fit_many(sizes, [times])[0]

    def predict(self, size_bytes: float) -> float:
        if size_bytes < 0:
            raise ProfilingError(f"negative transfer size {size_bytes}")
        return self.latency + self.inv_bandwidth * size_bytes

    @property
    def bandwidth(self) -> float:
        if self.inv_bandwidth <= 0:
            return float("inf")
        return 1.0 / self.inv_bandwidth
