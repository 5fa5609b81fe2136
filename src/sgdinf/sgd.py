"""Averaged SGD driver with pluggable streaming estimator sinks.

run() makes one pass over fresh samples and keeps the (Polyak-Ruppert)
average of the iterates. It walks the stream in chunks: inside a chunk
only the sequential recursion runs, one scalar GLM derivative ℓ′(aᵀx, b)
per iteration; at the end of the chunk it checks the iterates for
divergence and hands every registered sink the chunk's iterates,
covariates and the scalar derivatives ℓ′ and ℓ″, from which gradients
ℓ′·a and Hessians ℓ″·aaᵀ follow.
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
    x0: np.ndarray


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
    if x0 is None:
        x0 = np.zeros(d)
    x = np.asarray(x0, dtype=float).copy()
    x0 = x.copy()
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
    xs_buf = np.empty((size, d))
    r_buf = np.empty(size)
    t_buf = np.empty(size)
    x_sum = np.zeros(d)
    exp = math.exp
    # overflow inside the loop is the divergence we detect and raise on
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, n + 1, size):
            m = min(size, n + 1 - start)
            a_blk = a_all[start - 1:start - 1 + m]
            steps = schedule.step(np.arange(start, start + m, dtype=float))
            # The sequential part: only t = aᵀx, the scalar ℓ′(t, b) and
            # the step are computed per iteration.
            for k, (a, b, gamma) in enumerate(zip(
                    a_blk, b_all[start - 1:start - 1 + m].tolist(), steps.tolist())):
                t = float(a.dot(x))
                if logistic:
                    # ℓ′ = −b·σ(−bt), in the form whose exp cannot overflow
                    u = b * t
                    if u > 0:
                        e = exp(-u)
                        r = -b * e / (1.0 + e)
                    else:
                        r = -b / (1.0 + exp(u))
                else:
                    r = t - b
                x -= a * (gamma * r)
                xs_buf[k] = x
                r_buf[k] = r
                t_buf[k] = t
            xs, rs, ts = xs_buf[:m], r_buf[:m], t_buf[:m]
            # an iterate has diverged once its squared norm is not finite
            bad = np.flatnonzero(~np.isfinite(np.einsum("ij,ij->i", xs, xs)))
            if bad.size:
                raise DivergenceError(start + int(bad[0]))
            x_sum += xs.sum(axis=0)
            if logistic:
                ws = models.sigmoid(ts) * models.sigmoid(-ts)
            else:
                ws = np.ones(m)
            for s in sinks:
                s.observe(start, xs, a_blk, rs, ws)
    x_bar = x_sum / n

    estimates = []
    errors = {}
    for s in sinks:
        try:
            estimates.append(s.finalize())
        except Exception as exc:  # collected per sink, reported together
            errors[type(s).__name__] = exc
            estimates.append(None)
    state = SgdState(n=n, x=x.copy(), x_bar=x_bar.copy(), x0=x0)
    if errors:
        raise SinkFinalizeError(errors)
    return state, estimates
