"""Per-coordinate confidence intervals and z-tests from a covariance estimate.

A sink's or the oracle's covariance is a CovarianceEstimate; this module
imports nothing from the package, so every module can import it from here.
The functions are pure: no state, safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

_STANDARD_NORMAL = NormalDist()


@dataclass
class CovarianceEstimate:
    """A d×d estimate of the asymptotic covariance of the averaged iterate."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("covariance estimate must be a square matrix")


class EstimatorCorruptionError(ValueError):
    """A covariance estimate carried a materially negative diagonal entry."""


def z_quantile(p: float) -> float:
    """Inverse standard normal CDF (statistics.NormalDist, AS241 to about
    1e-16). Raises ValueError outside the open interval (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must be in (0, 1), got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


@dataclass
class CiReport:
    """Per-coordinate two-sided intervals, plus hit flags when a truth is known."""

    center: np.ndarray
    half_width: np.ndarray
    truth: np.ndarray | None = None
    hits: np.ndarray | None = field(default=None)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.half_width = np.asarray(self.half_width, dtype=float)
        if self.center.shape != self.half_width.shape:
            raise ValueError("center/half_width shape mismatch")
        if np.any(self.half_width < 0):
            raise ValueError("negative half-width")
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=float)
            self.hits = (self.lower <= self.truth) & (self.truth <= self.upper)

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.half_width

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.half_width

    @property
    def lengths(self) -> np.ndarray:
        return 2.0 * self.half_width


def confidence_interval(x_bar, cov, n: int, q: float, truth=None) -> CiReport:
    """Intervals x̄_j ± z_{q/2}·sqrt(max(cov_jj, 0)/n) for every coordinate."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    x_bar = np.asarray(x_bar, dtype=float)
    matrix = np.asarray(getattr(cov, "matrix", cov), dtype=float)
    if matrix.shape != (x_bar.size, x_bar.size):
        raise ValueError("covariance dimension does not match x_bar")
    if n < 1:
        raise ValueError("n must be >= 1")
    diag = np.diag(matrix).copy()
    if np.any(diag < -1e-8):
        raise EstimatorCorruptionError(
            f"covariance diagonal has entries below -1e-8 (min {diag.min():.3e})")
    diag = np.maximum(diag, 0.0)
    z = z_quantile(1.0 - q / 2.0)
    half = z * np.sqrt(diag / n)
    return CiReport(center=x_bar, half_width=half, truth=truth)


def z_test(x_bar_j: float, cov_jj: float, n: int, null_value: float = 0.0):
    """Two-sided z-test of coordinate j against a null value.

    Returns (z statistic, p-value) for a finite positive variance and n >= 1.
    """
    if not 0 < cov_jj < math.inf:
        raise ValueError(f"variance must be positive and finite, got {cov_jj}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    z = math.sqrt(n) * (x_bar_j - null_value) / math.sqrt(cov_jj)
    p = 2.0 * _STANDARD_NORMAL.cdf(-abs(z))
    return z, p
