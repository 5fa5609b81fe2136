"""Averaged SGD driver with pluggable streaming estimator sinks.

run() makes one pass over fresh samples and keeps the (Polyak-Ruppert)
average of the iterates. It walks the stream in chunks: inside a chunk
only the sequential recursion runs; at the end of the chunk it hands every
registered sink the chunk's iterates, covariates and the scalar
derivatives ℓ′ and ℓ″, from which gradients ℓ′·a and Hessians ℓ″·aaᵀ
follow.

A chunk is split into Gram sub-blocks. Since x_k = x_lo − Σ_{j≤k} c_j·a_j
with c_j = γ_j·ℓ′(a_jᵀx_{j−1}, b_j), the pre-step value aᵀx of row k is
a_kᵀx_lo minus row k of the sub-block's Gram matrix G dotted with the c
before it. How c is found depends on the model:

- Logistic: a CPython loop over the iterations of sub-blocks of _BLOCK
  rows, one dot product and one scalar ℓ′ (inlined from
  models.derivatives) per iteration.
- Linear: ℓ′ = t − b, so c solves the unit-lower-triangular system
  (I + Γ·tril(G, −1))·c = Γ·(A·x_lo − b), Γ = diag(γ). For each piece of
  about _LINEAR_PIECE rows, one forward substitution, batched over its
  sub-blocks of _LINEAR_BLOCK rows, gives each c as W·x_lo − w, and with it
  the affine map from a sub-block's x_lo to the next one's. A loop over
  sub-blocks, not iterations, applies the maps, and one product gives every
  c. The pre-step values t, and so ℓ′, come from the rebuilt iterates.

Either way the iterates are rebuilt by a cumulative sum of −c_j·a_j, the
same subtractions in the same order as the step-by-step recursion, and
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
# Rows per Gram sub-block of the logistic loop: the sequential work of an
# iteration is one dot product of length _BLOCK, and the sub-block's Gram
# matrix adds O(_BLOCK²) memory. 64 keeps both small next to the
# per-sub-block numpy calls it amortises.
_BLOCK = 64
# Rows per sub-block of the linear model's triangular solve, and rows per
# piece of a chunk solved in one batch. A piece loops in CPython over the
# _LINEAR_BLOCK rows of its sub-blocks and then over its sub-blocks; at
# d = 5, 16 and 2048 measured fastest. The batch's arrays take
# O(_LINEAR_PIECE·_LINEAR_BLOCK) memory; whole 4096-row chunks were faster
# still but raised the peak memory of a run by about 1%.
_LINEAR_BLOCK = 16
_LINEAR_PIECE = 2048


def _first_diverged(rows):
    """Index of the first row whose squared norm is not finite, or None."""
    # such a row makes the total non-finite, so search the rows only then
    if math.isfinite(np.vdot(rows, rows)):
        return None
    bad = np.flatnonzero(~np.isfinite(np.einsum("ij,ij->i", rows, rows)))
    return int(bad[0]) if bad.size else None


def _rebuild(rows, a, c, first: int) -> None:
    """Overwrite rows[1:] with the iterates x_k = x_{k−1} − c_k·a_k that
    follow rows[0], summed in the same order as the step-by-step recursion.
    Raises DivergenceError naming iteration `first` + k when rebuilt row k
    is the first whose squared norm is not finite."""
    np.multiply(a, -c[:, None], out=rows[1:])
    np.cumsum(rows, axis=0, out=rows)
    bad = _first_diverged(rows[1:])
    if bad is not None:
        raise DivergenceError(first + bad)


def _logistic_chunk(xs_buf, a_blk, b_blk, steps, start: int):
    """The logistic model's iterates of one chunk, xs_buf[1:m+1] from
    xs_buf[0], by a loop over the iterations; returns ℓ′ and the pre-step
    values t."""
    m = len(b_blk)
    r_buf, t_buf = np.empty(m), np.empty(m)
    exp = math.exp
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
            # models.derivatives' ℓ′ = −b·σ(−bt), in the form whose exp
            # cannot overflow
            u = b * t
            if u > 0:
                e = exp(-u)
                r = -b * e / (1.0 + e)
            else:
                r = -b / (1.0 + exp(u))
            c[k] = gamma * r
            r_sub.append(r)
            t_sub.append(t)
        r_buf[lo:hi] = r_sub
        t_buf[lo:hi] = t_sub
        _rebuild(xs_buf[lo:hi + 1], a_sub, c, start + lo)
    return r_buf, t_buf


def _linear_chunk(xs_buf, a_blk, b_blk, steps, start: int):
    """The linear model's iterates of one chunk, xs_buf[1:m+1] from
    xs_buf[0], with no per-iteration loop (see the module docstring);
    returns the pre-step values t, from the rebuilt iterates."""
    m, d = a_blk.shape
    size = _LINEAR_BLOCK
    piece = max(_LINEAR_PIECE // size, 1) * size
    eye = np.arange(d)
    lo = 0
    while lo < m:
        k = min(piece, m - lo)
        count = -(-k // size)
        # [A | b] and γ, zero-padded to whole sub-blocks: a padded row has
        # c = 0 and leaves the iterate as it is
        ab = np.zeros((count * size, d + 1))
        ab[:k, :d] = a_blk[lo:lo + k]
        ab[:k, d] = b_blk[lo:lo + k]
        gamma = np.zeros(count * size)
        gamma[:k] = steps[lo:lo + k]
        ab = ab.reshape(count, size, d + 1)
        gamma = gamma.reshape(count, size, 1)
        a_t = ab[..., :d].transpose(0, 2, 1)
        # (I + Γ·tril(G, −1))·[W | w] = Γ·[A | b], so c = [W | w]·[x_lo; −1]:
        # forward substitution, one row of every sub-block at a time, reads
        # only the strictly lower triangle of ΓG
        gram = ab[..., :d] @ a_t
        gram *= gamma
        coef = gamma * ab
        for j in range(1, size):
            coef[:, j] -= (gram[:, j:j + 1, :j] @ coef[:, :j])[:, 0]
        # x_hi = x_lo − Aᵀc = T·[x_lo; −1] with T = [I | 0] − Aᵀ[W | w]
        maps = -(a_t @ coef)
        maps[:, eye, eye] += 1.0
        lows = np.empty((count + 1, d + 1))
        lows[:, d] = -1.0
        lows[0, :d] = xs_buf[lo]
        for s in range(count):
            np.dot(maps[s], lows[s], out=lows[s + 1, :d])
        # rebuild no further than the first sub-block whose end state has
        # diverged; the next piece starts from the iterate the rebuild reached
        bad = _first_diverged(lows[1:, :d])
        if bad is not None:
            count = bad + 1
            k = min(k, count * size)
        c = np.einsum("sbj,sj->sb", coef[:count], lows[:count]).ravel()[:k]
        _rebuild(xs_buf[lo:lo + k + 1], a_blk[lo:lo + k], c, start + lo)
        lo += k
    return np.einsum("ij,ij->i", a_blk, xs_buf[:m])


def run(model: models.ModelSpec, n: int, schedule: StepSchedule,
        x0=None, sinks=(), rng: np.random.Generator | None = None,
        data=None):
    """Run n SGD steps on a model, streaming into the sinks.

    Samples are drawn from `rng` unless an explicit `data = (A, b)` pair of
    arrays is supplied. The run starts from `x0`, of shape (d,), or from
    zero. Returns (final SgdState, list of finalized estimates aligned with
    `sinks`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = model.d
    sinks = list(sinks)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (d,):
            raise ValueError(f"x0 has shape {x0.shape}, the model needs ({d},)")

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
    x_sum = np.zeros(d)
    # overflow inside the loop is the divergence we detect and raise on
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, n + 1, size):
            m = min(size, n + 1 - start)
            a_blk = a_all[start - 1:start - 1 + m]
            b_blk = b_all[start - 1:start - 1 + m]
            steps = schedule.step(np.arange(start, start + m, dtype=float))
            if logistic:
                rs, ts = _logistic_chunk(xs_buf, a_blk, b_blk, steps, start)
                _, ws = models.derivatives(model.kind, ts, b_blk)
            else:
                ts = _linear_chunk(xs_buf, a_blk, b_blk, steps, start)
                rs, ws = models.derivatives(model.kind, ts, b_blk)
            xs = xs_buf[1:m + 1]
            x_sum += xs.sum(axis=0)
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
