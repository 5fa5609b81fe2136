"""Streaming plug-in estimator of the sandwich covariance.

Accumulates the running means of per-sample Hessians ℓ″·aaᵀ and gradient
outer products (ℓ′)²·aaᵀ, one block of iterations at a time, clamps the
Hessian-mean spectrum away from zero, and returns Ã⁻¹ S_n Ã⁻¹.
"""

from __future__ import annotations

import numpy as np

from .sgd import CovarianceEstimate, EstimatorSink


class PluginAccumulator(EstimatorSink):
    """Streaming accumulator for A_n (Hessian mean) and S_n (gradient
    outer-product mean); finalize() yields Ã⁻¹ S_n Ã⁻¹."""

    def __init__(self, d: int, lambda_a: float):
        if lambda_a <= 0:
            raise ValueError("lambda_a must be positive")
        self.d = d
        self.lambda_a = lambda_a
        self.sum_h = np.zeros((d, d))
        self.sum_g = np.zeros((d, d))
        self.count = 0

    def observe(self, start, xs, a, r, w):
        m = len(a)
        if a.shape != (m, self.d) or np.shape(r) != (m,) or np.shape(w) != (m,):
            raise ValueError("dimension mismatch in plug-in observe")
        g = a * r[:, None]
        self.sum_g += g.T @ g
        self.sum_h += (a * w[:, None]).T @ a
        self.count += m

    @property
    def a_n(self) -> np.ndarray:
        """Sample Hessian mean, symmetrized against accumulation drift."""
        m = self.sum_h / self.count
        return 0.5 * (m + m.T)

    @property
    def s_n(self) -> np.ndarray:
        m = self.sum_g / self.count
        return 0.5 * (m + m.T)

    def finalize(self) -> CovarianceEstimate:
        if self.count < 1:
            raise ValueError("no observations accumulated")
        floor = self.lambda_a / 2.0
        w, psi = np.linalg.eigh(self.a_n)
        w = np.maximum(w, floor)
        inv = (psi / w) @ psi.T
        est = inv @ self.s_n @ inv
        return CovarianceEstimate(0.5 * (est + est.T))
