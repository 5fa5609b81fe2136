"""One-pass inference for sparse linear regression.

Pipeline: a multi-epoch annealed solver for l1-regularized least squares
(radii R_i = R_{i-1}/sqrt(2), per-epoch regularization from
lambda_i^2 = R_i * sqrt(log d) / (s * sqrt(T)), feasible sets
||x - y_i||_p <= R_i with p = 2L/(2L-1), L = max(log d, 1)), node-wise
regressions for every coordinate to assemble a precision-matrix estimate
Omega = T C, a one-step debiasing correction, and per-coordinate normal
confidence intervals. Everything after the two solves reads only the
sufficient statistics G = D^T D / n and c = D^T b / n.

The solver consumes each sample exactly once, follow-the-leader style: the
stream is folded into running second-moment statistics (Gram and
cross-moment), and at each epoch boundary the accumulated l1-regularized
quadratic is approximately minimized over the shrinking ball around the
prox center by a fixed number (INNER_ITERS) of proximal-gradient sweeps,
the fixed work per epoch of the annealed scheme. For quadratic losses this
keeps the one-pass contract while giving each epoch the full statistical
strength of every sample seen so far.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .inference import CiReport, confidence_interval


class RadarConfigError(ValueError):
    """Iteration budget cannot accommodate a single epoch."""


class DegenerateResidualError(RuntimeError):
    """A node-wise residual inner product came out non-positive."""


SQRT2 = math.sqrt(2.0)
# Proximal-gradient sweeps closing each epoch, and the cap on the number of
# epochs.
INNER_ITERS = 120
MAX_EPOCHS = 40
_TINY = np.finfo(float).tiny


def lp_geometry(dim: int):
    """(p, q) exponents for the ball geometry in dimension `dim`; q/2 = max(log d, 1)."""
    q = 2.0 * max(math.log(max(dim, 2)), 1.0)
    p = q / (q - 1.0)
    return p, q


def pball_norm(u: np.ndarray, p: float):
    """p-norm along the last axis, taken after scaling by the largest entry
    so the power cannot overflow."""
    a = np.abs(u)
    m = a.max(axis=-1, keepdims=True)
    w = a / np.maximum(m, _TINY)         # a zero row stays zero
    return (m * (w ** p).sum(axis=-1, keepdims=True) ** (1.0 / p))[..., 0]


def scale_into_ball(u: np.ndarray, radii: np.ndarray, p: float) -> None:
    """Scale each row of u in place by min(1, R_k / ||u_k||_p).

    For p >= 1, ||u_k||_p <= ||u_k||_1, so a row with ||u_k||_1 <= R_k is
    certified feasible and its factor is exactly 1: only the other rows
    pay for the fractional power in pball_norm.
    """
    out = np.abs(u).sum(axis=1) > radii
    if out.any():
        u[out] *= np.minimum(1.0, radii[out] / pball_norm(u[out], p))[:, None]


def soft_threshold(z: np.ndarray, thr) -> np.ndarray:
    """sign(z)·max(|z| − thr, 0), as z minus its clip to [−thr, thr]."""
    return z - np.minimum(np.maximum(z, -thr), thr)


@dataclass(frozen=True)
class RadarConfig:
    """Solver parameters.

    r1 bounds ||x* - y_1||_1 from above; s_bound is the assumed sparsity;
    total_n the sample budget. t_min floors the theoretical epoch length
    s^2*log(d)/R_i^2 while radii are large.

    t_min should grow with log(d) when the budget allows (around 16 for
    d in the several hundreds): radii halve every epoch regardless of
    progress, so early epochs must carry enough samples to move the
    center or the annealing locks in their noise.
    """

    r1: float
    s_bound: int
    total_n: int
    t_min: int = 8

    def __post_init__(self):
        if self.r1 < 0 or self.total_n < 1 or self.t_min < 1:
            raise RadarConfigError("invalid radar configuration")


@dataclass
class Epoch:
    index: int
    length: int
    radius: float


def epoch_plan(config: RadarConfig, dim: int) -> list[Epoch]:
    """Split the budget into epochs with R_{i+1} = R_i/sqrt(2).

    Epoch i gets max(t_min, ceil(s^2*log(d)/R_i^2)) samples; the leftover
    budget is absorbed into the final epoch (also when the epoch cap is
    hit). Raises when the budget cannot cover the first epoch.
    """
    log_d = lp_geometry(dim)[1] / 2.0
    s = max(config.s_bound, 1)
    radius = config.r1
    epochs: list[Epoch] = []
    used = 0
    while used < config.total_n:
        if radius > 0:
            t_i = max(config.t_min, math.ceil(s * s * log_d / radius ** 2))
        else:
            t_i = config.t_min
        if used + t_i > config.total_n or len(epochs) == MAX_EPOCHS:
            if not epochs:
                raise RadarConfigError(
                    f"budget {config.total_n} cannot cover one epoch of length {t_i}")
            epochs[-1].length += config.total_n - used
            used = config.total_n
            break
        epochs.append(Epoch(index=len(epochs) + 1, length=t_i, radius=radius))
        used += t_i
        radius = radius / SQRT2
    return epochs


def radar_solve(D: np.ndarray, targets: np.ndarray, config: RadarConfig,
                r1_rows=None, s_rows=None, fixed=None, on_step=None) -> np.ndarray:
    """Multi-epoch annealed l1 solver for K rows sharing one Gram matrix.

    D (n, d) is the covariate stream in arrival order and column k of
    `targets` (n, K) is row k's response; exactly config.total_n samples
    are consumed. At the end of each epoch row k approximately minimizes
    1/2 x'Gx - c_k'x + lam_k|x|_1, with G and c_k the running means of aa'
    and a*targets[:, k], over the p-ball of radius R_k around its previous
    center, by exactly INNER_ITERS ISTA sweeps with radial feasibility
    projection, which needs the p-norm only of rows with |u|_1 > R_k:
    lp_geometry's p = q/(q-1) is at least 1, and |u|_p <= |u|_1 for p >= 1.
    Epoch lengths follow `config`; radii (default config.r1) and sparsities
    (default config.s_bound) are per row, with
    lam_k^2 = R_k * sqrt(log d) / (s_k * sqrt(T)) after T samples.

    fixed[k], when given, is a coordinate of row k held at zero; the ball
    geometry is then that of the d-1 free coordinates. A row of radius 0
    stays at its center; every other row (a live row) takes the same
    epochs x INNER_ITERS sweeps, so no row's path depends on the other
    rows. on_step(epoch, x, y) sees the new iterates and the centers of
    all live rows after each sweep. Returns the final centers.
    """
    n, d = D.shape
    if config.total_n > n:
        raise RadarConfigError("sample stream shorter than the iteration budget")
    k = targets.shape[1]
    radii = np.full(k, config.r1) if r1_rows is None else np.asarray(r1_rows, float)
    s_rows = np.full(k, config.s_bound) if s_rows is None else s_rows
    s_rows = np.maximum(np.asarray(s_rows, dtype=float), 1.0)
    dim = d if fixed is None else d - 1
    p, q = lp_geometry(dim)
    plan = epoch_plan(config, dim)

    # radii only shrink, so the live rows are the same in every epoch
    live = np.flatnonzero(radii > 0.0)
    y = np.zeros((k, d))
    if not live.size:
        return y
    radii, s_rows = radii[live], s_rows[live]
    held = None if fixed is None else (np.arange(live.size), np.asarray(fixed)[live])
    x = np.zeros((live.size, d))
    gram_sum = np.zeros((d, d))
    cross_sum = np.zeros((d, k))
    seen = 0
    for ep in plan:
        block = D[seen:seen + ep.length]
        gram_sum += block.T @ block
        cross_sum += block.T @ targets[seen:seen + ep.length]
        seen += ep.length
        gram = gram_sum / seen
        lip = float(np.linalg.eigvalsh(gram).max())
        if lip > 0.0:
            lam = np.sqrt(radii * math.sqrt(q / 2.0) / (s_rows * math.sqrt(seen)))
            rhs, thr, center = cross_sum.T[live] / seen, lam[:, None] / lip, x
            for _ in range(INNER_ITERS):
                u = soft_threshold(x - (x @ gram - rhs) / lip, thr)
                if held is not None:
                    u[held] = 0.0       # the coordinate each row holds at zero
                u -= center
                scale_into_ball(u, radii, p)
                x = center + u
                if on_step is not None:
                    on_step(ep, x, center)
        radii = radii / SQRT2
    y[live] = x
    return y


def radar_lasso(D: np.ndarray, b: np.ndarray, config: RadarConfig,
                on_step=None) -> np.ndarray:
    """Solve the l1-regularized regression of b on the rows of D: the
    solver with one row, whose on_step sees 1-D vectors."""
    step_cb = None
    if on_step is not None:
        def step_cb(ep, x, y):
            on_step(ep, x[0], y[0])
    b = np.asarray(b, dtype=float)
    return radar_solve(D, b[:, None], config, on_step=step_cb)[0]


def nodewise_fit_all(D: np.ndarray, config: RadarConfig,
                     r1_rows=None, s_rows=None) -> np.ndarray:
    """All d node-wise fits over the same replayed stream, sharing one
    accumulated Gram matrix.

    Row j of the returned (d, d-1) array is gamma^j, column j regressed on
    the others, targeting -Omega_jj^{-1} (Omega_{j,-j})^T. Epoch lengths
    are planned from the largest per-row radius/sparsity so the rows share
    sample blocks; radii and regularization stay per-row.
    """
    d = D.shape[1]
    r1_rows = np.full(d, config.r1) if r1_rows is None else np.asarray(r1_rows, float)
    s_rows = np.full(d, config.s_bound) if s_rows is None else np.asarray(s_rows)
    plan = dataclasses.replace(config, r1=float(r1_rows.max()),
                               s_bound=int(s_rows.max()))
    y = radar_solve(D, D, plan, r1_rows, s_rows, fixed=np.arange(d))
    return y[~np.eye(d, dtype=bool)].reshape(d, d - 1)


def tau_hat(gram: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Estimates of 1/Omega_jj for every j at once from G = D^T D / n:
    tau_j = G_jj - G_{j,-j} gamma_j, the mean of (D_j - D_{-j} gamma_j) D_j."""
    off = gram[~np.eye(len(gram), dtype=bool)].reshape(gammas.shape)
    taus = np.diag(gram) - np.einsum("jk,jk->j", off, gammas)
    bad = np.flatnonzero(taus <= 0)
    if bad.size:
        j = bad[0]
        raise DegenerateResidualError(f"tau_hat_{j} = {taus[j]:.3e} <= 0")
    return taus


@dataclass
class PrecisionEstimate:
    """Node-wise precision estimate Omega = T C (rows need not be symmetric)."""

    gamma: np.ndarray    # (d, d-1) node-wise coefficients
    tau: np.ndarray      # (d,) positive scalars
    omega: np.ndarray    # (d, d)


def build_omega(gammas: np.ndarray, taus: np.ndarray) -> PrecisionEstimate:
    """Assemble Omega = T C from node-wise coefficients and tau estimates."""
    gammas = np.asarray(gammas, dtype=float)
    taus = np.asarray(taus, dtype=float)
    d = taus.size
    if np.any(taus <= 0):
        raise DegenerateResidualError("all tau_j must be positive")
    c = np.eye(d)
    c[~np.eye(d, dtype=bool)] = -gammas.ravel()
    omega = c / taus[:, None]
    return PrecisionEstimate(gamma=gammas, tau=taus, omega=omega)


def debias(x_hat: np.ndarray, omega: np.ndarray, gram: np.ndarray,
           cross: np.ndarray) -> np.ndarray:
    """One-step correction x_hat + Omega (c - G x_hat), with G = D^T D / n and
    c = D^T b / n: the same as x_hat + (1/n) Omega D^T (b - D x_hat)."""
    return x_hat + omega @ (cross - gram @ x_hat)


def highdim_ci(x_d: np.ndarray, omega: np.ndarray, gram: np.ndarray, n: int,
               sigma: float, q: float, truth=None) -> CiReport:
    """Intervals x_d_j ± z_{q/2}·sigma·sqrt((Omega G Omega^T)_jj / n)."""
    return confidence_interval(x_d, sigma ** 2 * omega @ gram @ omega.T, n, q,
                               truth=truth)


@dataclass
class DebiasedLassoFit:
    x_hat: np.ndarray
    x_debiased: np.ndarray
    precision: PrecisionEstimate
    report: CiReport


def fit_debiased_lasso(D: np.ndarray, b: np.ndarray, main_config: RadarConfig,
                       node_config: RadarConfig, sigma: float, q: float,
                       truth=None, node_r1_rows=None, node_s_rows=None) -> DebiasedLassoFit:
    """Full pipeline on stored data: main fit, d node-wise fits replaying
    the same stream, then Omega, debiasing and intervals from G and c alone."""
    x_hat = radar_lasso(D, b, main_config)
    gammas = nodewise_fit_all(D, node_config, r1_rows=node_r1_rows, s_rows=node_s_rows)
    n = len(b)
    gram, cross = D.T @ D / n, D.T @ b / n
    precision = build_omega(gammas, tau_hat(gram, gammas))
    x_d = debias(x_hat, precision.omega, gram, cross)
    report = highdim_ci(x_d, precision.omega, gram, n, sigma, q, truth=truth)
    return DebiasedLassoFit(x_hat=x_hat, x_debiased=x_d,
                            precision=precision, report=report)
