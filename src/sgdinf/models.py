"""Loss models for streaming inference: linear and logistic regression.

A model bundles a covariate design (identity / Toeplitz / equi-correlated
Gaussian) and the true parameter vector. The loss enters only through its
scalar derivatives ℓ′(t, b) and ℓ″(t, b) at the linear predictor t = aᵀx,
from `derivatives`; the oracle covariance, in closed form for both models,
benchmarks the streaming estimators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .inference import CovarianceEstimate


class InvalidDesignError(ValueError):
    """Design parameters outside the positive-definite range."""


class OracleError(RuntimeError):
    """Oracle covariance could not be formed (singular Hessian or negative
    diagonal)."""


class DesignKind(str, enum.Enum):
    IDENTITY = "identity"
    TOEPLITZ = "toeplitz"
    EQUICORR = "equicorr"


class ModelKind(str, enum.Enum):
    LINEAR = "linear"
    LOGISTIC = "logistic"


@dataclass(frozen=True)
class DesignSpec:
    """Covariance family for the Gaussian covariates a ~ N(0, Σ)."""

    kind: DesignKind
    d: int
    rho: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "kind", DesignKind(self.kind))
        if self.d < 1:
            raise InvalidDesignError(f"dimension must be positive, got {self.d}")
        if self.kind is not DesignKind.IDENTITY and not 0.0 <= self.rho < 1.0:
            raise InvalidDesignError(
                f"rho must lie in [0, 1) for {self.kind.value}, got {self.rho}")

    @classmethod
    def from_config(cls, cfg: dict) -> "DesignSpec":
        return cls(kind=DesignKind(cfg["design"]), d=int(cfg["d"]),
                   rho=float(cfg.get("rho", 0.0)))


def make_covariance(spec: DesignSpec) -> np.ndarray:
    """The exact design covariance matrix Σ for a spec."""
    d = spec.d
    if spec.kind is DesignKind.IDENTITY:
        return np.eye(d)
    if spec.kind is DesignKind.TOEPLITZ:
        idx = np.arange(d)
        return spec.rho ** np.abs(idx[:, None] - idx[None, :])
    # equi-correlated: ones on the diagonal, rho elsewhere
    return np.full((d, d), spec.rho) + (1.0 - spec.rho) * np.eye(d)


def default_x_star(d: int) -> np.ndarray:
    """Coordinates linearly spaced over [0, 1] inclusive."""
    if d == 1:
        return np.array([1.0])
    return np.linspace(0.0, 1.0, d)


@dataclass(frozen=True)
class ModelSpec:
    """A fully specified estimation problem. sigma is the noise s.d. and
    only applies to the linear model."""

    kind: ModelKind
    design: DesignSpec
    x_star: tuple
    sigma: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        object.__setattr__(self, "x_star", tuple(float(v) for v in self.x_star))
        if len(self.x_star) != self.design.d:
            raise ValueError("x_star length does not match design dimension")
        if self.kind is ModelKind.LINEAR:
            # sigma = 0 is allowed as the degenerate noiseless case
            if self.sigma is None or self.sigma < 0:
                raise ValueError("linear model requires a nonnegative sigma")
        elif self.sigma is not None:
            raise ValueError("sigma applies to the linear model only")

    @property
    def d(self) -> int:
        return self.design.d

    @property
    def xs(self) -> np.ndarray:
        return np.asarray(self.x_star)

    @classmethod
    def from_config(cls, cfg: dict) -> "ModelSpec":
        design = DesignSpec.from_config(cfg)
        x_star = cfg.get("x_star")
        if x_star is None:
            x_star = default_x_star(design.d)
        sigma = cfg.get("sigma")
        kind = ModelKind(cfg["kind"])
        if kind is ModelKind.LINEAR and sigma is None:
            sigma = 1.0
        return cls(kind=kind, design=design, x_star=tuple(x_star),
                   sigma=float(sigma) if sigma is not None else None)


def sample_covariates(design: DesignSpec, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """n covariates a ~ N(0, Σ) of a design, as the rows of an (n, d) array:
    standard normal z, times the Cholesky factor of Σ unless Σ = I."""
    z = rng.standard_normal((n, design.d))
    if design.kind is DesignKind.IDENTITY:
        return z
    return z @ np.linalg.cholesky(make_covariance(design)).T


def sample_dataset(model: ModelSpec, n: int, rng: np.random.Generator,
                   covariates: np.ndarray | None = None):
    """Vectorized draw of n points; returns (A, b) with A of shape (n, d).
    The covariates are drawn first, then the responses.

    When `covariates` is given only the responses are drawn (fixed-design
    replications).
    """
    if covariates is None:
        a = sample_covariates(model.design, n, rng)
    else:
        a = covariates
        if a.shape != (n, model.d):
            raise ValueError("covariate array has wrong shape")
    mean = a @ model.xs
    if model.kind is ModelKind.LINEAR:
        b = mean + model.sigma * rng.standard_normal(n)
    else:
        # P(b = 1) = σ(aᵀx*), which is ℓ′(aᵀx*, −1)
        p = derivatives(ModelKind.LOGISTIC, mean, -1.0)[0]
        b = np.where(rng.random(n) < p, 1.0, -1.0)
    return a, b


def derivatives(kind: ModelKind, t, b):
    """(ℓ′, ℓ″) of the loss at linear predictor t and response b, elementwise.

    Linear: ℓ = (t − b)²/2, so ℓ′ = t − b and ℓ″ = 1. Logistic, b = ±1:
    ℓ = log(1 + e^{−bt}), so ℓ′ = −b·σ(−bt) and ℓ″ = σ(t)σ(−t).
    """
    t = np.asarray(t, dtype=float)
    if kind is ModelKind.LINEAR:
        return t - b, np.ones(np.broadcast(t, b).shape)
    # both sigmoids from one exp that cannot overflow: σ(|t|) = 1/(1 + e)
    # and σ(−|t|) = e/(1 + e)
    e = np.exp(-np.abs(t))
    denom = 1.0 + e
    s_big = 1.0 / denom
    s_small = e / denom
    # σ(−bt) is σ(−|t|) where the signs of b and t agree (t = ±0 counts as
    # positive), and σ(|t|) where they differ
    return -b * np.where((b > 0) == (t >= 0), s_small, s_big), s_big * s_small


def _logistic_moments(s: float):
    """(E[ℓ″(sZ)], E[ℓ″(sZ)·Z²]) for Z ~ N(0, 1), s > 0 and the logistic ℓ″,
    by the trapezoid rule on the integer grid z = h·k, |z| ≤ min(40, 50/s),
    at most 801 nodes. The integrand is analytic in a strip, so the error
    falls exponentially in 1/h, and h tracks the width 1/s of ℓ″(sz).
    Gauss–Hermite converges slowly here: ℓ″ has poles at ±iπ."""
    h = min(0.1, 0.25 / s)
    k = int(min(40.0, 50.0 / s) / h)
    z = h * np.arange(-k, k + 1)
    w = derivatives(ModelKind.LOGISTIC, s * z, 1.0)[1] * np.exp(-0.5 * z * z)
    w *= h / np.sqrt(2.0 * np.pi)
    return w.sum(), (w * z * z).sum()


def population_hessian(model: ModelSpec) -> np.ndarray:
    """A = ∇²F(x*) = E[ℓ″(aᵀx*)·aaᵀ] in closed form (the logistic ℓ″ does not
    depend on b). Linear: Σ. Logistic: aᵀx* ~ N(0, s²) with v = Σx* and
    s² = x*ᵀv, so A = c₀Σ + (c₂ − c₀)·vvᵀ/s² with (c₀, c₂) from
    _logistic_moments, and A = Σ/4 at s = 0, where ℓ″ ≡ ℓ″(0) = 1/4."""
    sigma = make_covariance(model.design)
    if model.kind is ModelKind.LINEAR:
        return sigma
    v = sigma @ model.xs
    s2 = float(model.xs @ v)
    if s2 == 0.0:
        return sigma / 4.0
    if not s2 < np.inf:     # overflow: ℓ″(aᵀx*) = 0 almost surely, A = 0
        raise OracleError("Hessian is numerically singular: x*ᵀΣx* overflows")
    c0, c2 = _logistic_moments(np.sqrt(s2))
    return c0 * sigma + (c2 - c0) / s2 * np.outer(v, v)


def oracle_covariance(model: ModelSpec) -> CovarianceEstimate:
    """True A⁻¹SA⁻¹ of √n(x̄_n − x*), symmetrized: σ²Σ⁻¹ for the linear model
    (A = Σ, S = σ²Σ), A⁻¹ for the well-specified logistic one (S = A)."""
    a = population_hessian(model)
    if model.kind is ModelKind.LOGISTIC and np.linalg.cond(a) > 1e12:
        raise OracleError("Hessian is numerically singular")
    matrix = np.linalg.inv(a)
    if model.kind is ModelKind.LINEAR:
        matrix = model.sigma ** 2 * matrix
    if np.any(np.diag(matrix) < 0):   # zero only for the noiseless linear model
        raise OracleError("oracle covariance has a negative diagonal")
    return CovarianceEstimate(0.5 * (matrix + matrix.T))
