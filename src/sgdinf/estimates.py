"""Covariance-estimate container shared by the streaming estimators."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CovarianceEstimate:
    """A d×d estimate of the asymptotic covariance of the averaged iterate.

    `estimator` names the producing method ("plugin", "batch_means", "oracle"),
    `n` is the number of observations it was built from, and `params` carries
    estimator-specific provenance (threshold level, batch boundaries, ...).
    """

    matrix: np.ndarray
    estimator: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("covariance estimate must be a square matrix")
