"""Loss models for streaming inference: linear and logistic regression.

A model bundles a covariate design (identity / Toeplitz / equi-correlated
Gaussian) and the true parameter vector. The loss enters only through its
scalar derivatives ℓ′(t, b) and ℓ″(t, b) at the linear predictor t = aᵀx,
from `derivatives`; the closed-form or Monte-Carlo oracle covariance
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


def population_hessian(model: ModelSpec, mc_samples: int = 1_000_000,
                       rng: np.random.Generator | None = None) -> np.ndarray:
    """A = ∇²F(x*): exact Σ for the linear model, Monte-Carlo mean of the
    per-sample Hessian ℓ″·aaᵀ at x* for logistic (its ℓ″ does not depend
    on b)."""
    if model.kind is ModelKind.LINEAR:
        return make_covariance(model.design)
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(987654321))
    d = model.d
    acc = np.zeros((d, d))
    chunk = min(mc_samples, max(1, 8_000_000 // max(d, 1)))
    for done in range(0, mc_samples, chunk):
        a = sample_covariates(model.design, min(chunk, mc_samples - done), rng)
        _, w = derivatives(model.kind, a @ model.xs, 1.0)
        acc += (a * w[:, None]).T @ a
    return acc / mc_samples


def oracle_covariance(model: ModelSpec, mc_samples: int = 1_000_000,
                      rng: np.random.Generator | None = None) -> CovarianceEstimate:
    """True A⁻¹SA⁻¹ of √n(x̄_n − x*), symmetrized.

    Linear: σ²Σ⁻¹ in closed form (A = Σ, S = σ²Σ). Logistic: the model is
    well-specified so S = A and the sandwich collapses to Â⁻¹ with Â a
    Monte-Carlo Hessian average at x*.
    """
    a = population_hessian(model, mc_samples=mc_samples, rng=rng)
    if model.kind is ModelKind.LINEAR:
        matrix = model.sigma ** 2 * np.linalg.inv(a)
    else:
        if np.linalg.cond(a) > 1e12:
            raise OracleError("Monte-Carlo Hessian is numerically singular")
        matrix = np.linalg.inv(a)
    if np.any(np.diag(matrix) < 0):   # zero only for the noiseless linear model
        raise OracleError("oracle covariance has a negative diagonal")
    return CovarianceEstimate(0.5 * (matrix + matrix.T))

