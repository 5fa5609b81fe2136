"""Averaged SGD driver with pluggable streaming estimator sinks.

run() makes one pass over fresh samples and keeps the (Polyak-Ruppert)
average of the iterates. It walks the stream in chunks: inside a chunk
only the sequential recursion runs, one scalar GLM derivative ℓ′(aᵀx, b)
per iteration, inlined from models.derivatives; at the end of the chunk it
hands every registered sink the chunk's iterates, covariates and the
scalar derivatives ℓ′ and ℓ″ (the latter from models.derivatives), from
which gradients ℓ′·a and Hessians ℓ″·aaᵀ follow.

A chunk is split into Gram sub-blocks of _BLOCK rows. Since x_k =
x_lo − Σ_{j≤k} c_j·a_j with c_j = γ_j·ℓ′_j, the pre-step value aᵀx of row k
is a_kᵀx_lo minus row k of the sub-block's Gram matrix dotted with the c
found so far: one dot product per iteration. The iterates themselves are
rebuilt once per sub-block by a cumulative sum of −c_j·a_j, the same
subtractions in the same order as the step-by-step recursion, and then
checked for divergence, so a diverging run stops within one sub-block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .estimates import CovarianceEstimate


class DivergenceError(RuntimeError):
    """The iterate left the finite range; carries the failing iteration."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate at iteration {iteration}")
        self.iteration = iteration


class SinkFinalizeError(RuntimeError):
    """One or more sinks failed to finalize; .errors maps sink -> exception."""

    def __init__(self, errors: dict):
        super().__init__("sink finalize failed: " +
                         "; ".join(f"{k}: {v}" for k, v in errors.items()))
        self.errors = errors


@dataclass(frozen=True)
class StepSchedule:
    """Polynomially decaying steps η·i^(−α), α restricted to [1/2, 1)."""

    eta: float
    alpha: float

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not 0.5 <= self.alpha < 1.0:
            raise ValueError(f"alpha must lie in [0.5, 1), got {self.alpha}")

    def step(self, i):
        """η·i^(−α), for an iteration number or an array of them."""
        return self.eta * i ** (-self.alpha)


@dataclass
class SgdState:
    """Final iterate, running average and iteration count of a run."""

    n: int
    x: np.ndarray
    x_bar: np.ndarray


class EstimatorSink:
    """Streaming consumer interface for the SGD loop.

    observe(start, xs, a, r, w) is called once per block of consecutive
    iterations; the blocks tile 1..n in order. Row j of a block belongs to
    iteration i = start + j: xs[j] is the iterate x_i, a[j] the covariate
    a_i, r[j] = ℓ′(a_iᵀx_{i−1}, b_i) and w[j] = ℓ″(a_iᵀx_{i−1}, b_i), so
    the stochastic gradient is r[j]·a[j] and the per-sample Hessian
    w[j]·a[j]a[j]ᵀ, both at the pre-step iterate. The arrays are only valid
    during the call.
    """

    def observe(self, start: int, xs: np.ndarray, a: np.ndarray,
                r: np.ndarray, w: np.ndarray) -> None:
        raise NotImplementedError

    def finalize(self) -> CovarianceEstimate:
        raise NotImplementedError


class TraceSink(EstimatorSink):
    """Diagnostics sink recording every k-th iterate for offline inspection."""

    def __init__(self, every: int = 1):
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.indices: list[int] = []
        self._rows: list[np.ndarray] = []

    def observe(self, start, xs, a=None, r=None, w=None):
        first = -start % self.every
        self.indices.extend(range(start + first, start + len(xs), self.every))
        self._rows.extend(xs[first::self.every].copy())

    @property
    def trace(self) -> np.ndarray:
        return np.array(self._rows)

    def finalize(self):
        return None


# Iterations per block handed to the sinks. The buffers are O(_CHUNK·d).
_CHUNK = 4096
# Rows per Gram sub-block inside a chunk: the sequential work of an
# iteration is one dot product of length _BLOCK, and the sub-block's Gram
# matrix adds O(_BLOCK²) memory. 64 keeps both small next to the
# per-sub-block numpy calls it amortises.
_BLOCK = 64


def run(model: models.ModelSpec, n: int, schedule: StepSchedule,
        x0=None, sinks=(), rng: np.random.Generator | None = None,
        data=None):
    """Run n SGD steps on a model, streaming into the sinks.

    Samples are drawn from `rng` unless an explicit `data = (A, b)` pair of
    arrays is supplied. Returns (final SgdState, list of finalized
    estimates aligned with `sinks`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = model.d
    sinks = list(sinks)

    if data is not None:
        a_all, b_all = data
        a_all = np.asarray(a_all, dtype=float)
        b_all = np.asarray(b_all, dtype=float)
        if a_all.shape != (n, d) or b_all.shape != (n,):
            raise ValueError("data arrays do not match (n, d)")
    else:
        if rng is None:
            raise ValueError("either rng or data must be provided")
        a_all, b_all = models.sample_dataset(model, n, rng)

    logistic = model.kind is models.ModelKind.LOGISTIC
    size = min(_CHUNK, n)
    # row 0 carries the iterate the chunk starts from, rows 1..m its iterates
    xs_buf = np.empty((size + 1, d))
    xs_buf[0] = 0.0 if x0 is None else x0
    r_buf = np.empty(size)
    t_buf = np.empty(size)
    x_sum = np.zeros(d)
    exp = math.exp
    # overflow inside the loop is the divergence we detect and raise on
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, n + 1, size):
            m = min(size, n + 1 - start)
            a_blk = a_all[start - 1:start - 1 + m]
            b_blk = b_all[start - 1:start - 1 + m]
            steps = schedule.step(np.arange(start, start + m, dtype=float))
            for lo in range(0, m, _BLOCK):
                hi = min(lo + _BLOCK, m)
                a_sub = a_blk[lo:hi]
                # t_k = a_kᵀx_lo − Σ_{j<k} (a_kᵀa_j)·c_j; c is zero from row k on
                gram = a_sub @ a_sub.T
                c = np.zeros(hi - lo)
                r_sub, t_sub = [], []
                for k, (g, base, b, gamma) in enumerate(zip(
                        gram, (a_sub @ xs_buf[lo]).tolist(),
                        b_blk[lo:hi].tolist(), steps[lo:hi].tolist())):
                    t = base - float(g.dot(c))
                    if logistic:
                        # models.derivatives' ℓ′ = −b·σ(−bt), in the form
                        # whose exp cannot overflow
                        u = b * t
                        if u > 0:
                            e = exp(-u)
                            r = -b * e / (1.0 + e)
                        else:
                            r = -b / (1.0 + exp(u))
                    else:
                        r = t - b
                    c[k] = gamma * r
                    r_sub.append(r)
                    t_sub.append(t)
                r_buf[lo:hi] = r_sub
                t_buf[lo:hi] = t_sub
                # x_k = x_{k−1} − c_k·a_k, summed in the same order as the
                # step-by-step recursion
                rows = xs_buf[lo:hi + 1]
                np.multiply(a_sub, -c[:, None], out=rows[1:])
                np.cumsum(rows, axis=0, out=rows)
                # an iterate has diverged once its squared norm is not finite;
                # such a row makes the total non-finite, so search only then
                rows = rows[1:]
                if not math.isfinite(np.vdot(rows, rows)):
                    bad = np.flatnonzero(
                        ~np.isfinite(np.einsum("ij,ij->i", rows, rows)))
                    if bad.size:
                        raise DivergenceError(start + lo + int(bad[0]))
            xs, rs, ts = xs_buf[1:m + 1], r_buf[:m], t_buf[:m]
            x_sum += xs.sum(axis=0)
            _, ws = models.derivatives(model.kind, ts, b_blk)
            for s in sinks:
                s.observe(start, xs, a_blk, rs, ws)
            xs_buf[0] = xs_buf[m]
    x_bar = x_sum / n

    estimates = []
    errors = {}
    for s in sinks:
        try:
            estimates.append(s.finalize())
        except Exception as exc:  # collected per sink, reported together
            errors[type(s).__name__] = exc
            estimates.append(None)
    state = SgdState(n=n, x=xs_buf[0].copy(), x_bar=x_bar.copy())
    if errors:
        raise SinkFinalizeError(errors)
    return state, estimates
