"""Streaming plug-in estimator of the sandwich covariance.

Accumulates the running means of per-sample Hessians ℓ″·aaᵀ and gradient
outer products (ℓ′)²·aaᵀ, one block of iterations at a time, floors the
Hessian-mean spectrum at its rank tolerance, and returns Ã⁻¹ S_n Ã⁻¹.
"""

from __future__ import annotations

import numpy as np

from .inference import CovarianceEstimate
from .sgd import EstimatorSink


class PluginAccumulator(EstimatorSink):
    """Streaming accumulator for A_n (Hessian mean) and S_n (gradient
    outer-product mean); finalize() yields Ã⁻¹ S_n Ã⁻¹, Ã being A_n with its
    eigenvalues floored at δ = d·ε·λ_max(A_n), its numerical-rank tolerance.
    finalize() raises ValueError when λ_max(A_n) ≤ 0 or 1/δ² overflows."""

    def __init__(self, d: int):
        self.d = d
        self.sum_h = np.zeros((d, d))
        self.sum_g = np.zeros((d, d))
        self.count = 0

    def observe(self, start, xs, a, r, w):
        m = len(a)
        if a.shape != (m, self.d) or np.shape(r) != (m,) or np.shape(w) != (m,):
            raise ValueError(f"block shapes a {np.shape(a)}, r {np.shape(r)}, w "
                             f"{np.shape(w)}; need ({m}, {self.d}), ({m},), ({m},)")
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
        w, psi = np.linalg.eigh(self.a_n)
        if not w[-1] > 0:
            raise ValueError(f"Hessian mean has no positive eigenvalue ({w[-1]:.3g})")
        floor = self.d * np.finfo(float).eps * w[-1]
        # the estimate's entries scale up to 1/δ², which must be finite
        with np.errstate(divide="ignore", over="ignore"):
            if not np.isfinite(1.0 / floor ** 2):
                raise ValueError("Hessian mean is too small to invert "
                                 f"(largest eigenvalue {w[-1]:.3g})")
        w = np.maximum(w, floor)
        inv = (psi / w) @ psi.T
        est = inv @ self.s_n @ inv
        return CovarianceEstimate(0.5 * (est + est.T))
