"""Averaged SGD driver with pluggable streaming estimator sinks.

run() makes one pass over fresh samples and keeps the (Polyak-Ruppert)
average of the iterates. It walks the stream in pieces of up to _PIECE
rows: it solves a piece's iterates with no loop over the iterations, and
then hands every registered sink the piece's iterates, covariates and the
scalar derivatives ℓ′ and ℓ″, from which gradients ℓ′·a and Hessians
ℓ″·aaᵀ follow.

With c_k = γ_k·ℓ′(a_kᵀx_{k−1}, b_k), the iterates are x_k = x_lo − Σ_{j≤k} c_j·a_j,
and the one engine solves the affine recursion c_k = γ̃_k·a_kᵀx_{k−1} + h_k.
A piece is cut into sub-blocks of _SUB_BLOCK rows. In a sub-block with Gram
matrix G, c solves the unit-lower-triangular system
(I + Γ̃·tril(G, −1))·c = Γ̃·A·x_lo + h. One forward substitution, batched
over the piece's sub-blocks, gives each c as W·x_lo + w, and with it the
affine map from a sub-block's x_lo to the next one's. A scan of
log₂(sub-blocks) batched products composes the maps, and one product gives
every c.

- Linear: ℓ′ = t − b is affine, so one solve with γ̃ = γ, h = −γ·b is exact.
- Logistic: Newton's method on the whole trajectory of a piece. From the
  pre-step values t = A·x_lo, each iteration linearises ℓ′ at the current t,
  γ̃ = γ·ℓ″(t) and h = γ·(ℓ′(t) − ℓ″(t)·t), solves, and recomputes t from
  the rebuilt iterates. It stops when the linearisation residual
  |ℓ′(t_new) − ℓ′(t) − ℓ″(t)·(t_new − t)| is rounding next to its terms in
  every row. The system is lower triangular, so the rows before the first
  unsettled one are final. A piece still unsettled after _NEWTON_ITERS
  iterations keeps those rows, and the first unsettled row stepped with its
  exact ℓ′. The next piece is then half its size, and each piece that
  settles doubles the next one, back up to _PIECE.

Either way the iterates are rebuilt by a cumulative sum of −c_j·a_j, the
same subtractions in the same order as the step-by-step recursion, and
checked for divergence. A run reports the iteration at which the
step-by-step recursion first leaves the finite range, and stops within the
piece that holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models


class DivergenceError(RuntimeError):
    """The iterate left the finite range; carries the failing iteration."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite iterate at iteration {iteration}")
        self.iteration = iteration


class SinkFinalizeError(RuntimeError):
    """One or more sinks failed to finalize; .errors maps each failing
    sink, as "position:class", to its exception."""

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
    """Final iterate and running average of a run."""

    x: np.ndarray
    x_bar: np.ndarray


@dataclass
class CovarianceEstimate:
    """A d×d estimate of the asymptotic covariance of the averaged iterate."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("covariance estimate must be a square matrix")


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


# Rows per sub-block of the triangular solve, and the most rows per piece:
# the solver takes a piece in one batch and the sinks get it as one block.
# A piece loops in CPython over the _SUB_BLOCK rows of its sub-blocks and
# then over log₂ of its sub-block count; at d = 5, 16 measured fastest,
# and pieces of 4096 ran faster than pieces of 2048, which cost the sinks
# twice the calls. The batch's arrays take O(_PIECE·_SUB_BLOCK) memory.
_SUB_BLOCK = 16
_PIECE = 4096
# Newton iterations a logistic piece may take before it is halved. Above
# _SUB_BLOCK + 1, so that a piece of one sub-block always settles.
_NEWTON_ITERS = 24
# A linearisation residual within this many units of its terms, or below
# the smallest normal float, is rounding.
_NEWTON_TOL = 32 * np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _first_diverged(rows):
    """Index of the first row whose squared norm is not finite, or None."""
    # such a row makes the total non-finite, so search the rows only then.
    # einsum, not a BLAS dot: on long inputs OpenBLAS wakes its threads,
    # which compete with the pool's other worker processes for the CPUs
    if math.isfinite(np.einsum("ij,ij->", rows, rows)):
        return None
    bad = np.flatnonzero(~np.isfinite(np.einsum("ij,ij->i", rows, rows)))
    return int(bad[0]) if bad.size else None


def _check(rows, first: int) -> None:
    """Raise DivergenceError naming iteration `first` + k when rows[1 + k]
    is the first of rows[1:] whose squared norm is not finite."""
    bad = _first_diverged(rows[1:])
    if bad is not None:
        raise DivergenceError(first + bad)


def _rebuild(rows, a, c) -> None:
    """Overwrite rows[1:] with the iterates x_k = x_{k−1} − c_k·a_k that
    follow rows[0], summed in the same order as the step-by-step recursion."""
    np.multiply(a, -c[:, None], out=rows[1:])
    np.cumsum(rows, axis=0, out=rows)


def _pad(rows, count: int, size: int):
    """rows, zero-padded to count·size rows and split into count sub-blocks
    of size rows. A padded row has c = 0 and leaves the iterate as it is."""
    out = np.zeros((count * size,) + rows.shape[1:])
    out[:len(rows)] = rows
    return out.reshape((count, size) + rows.shape[1:])


def _solve(gram, coef, a_t, x_lo):
    """Solve the affine recursion c_k = γ̃_k·a_kᵀx_{k−1} + h_k over the
    sub-blocks of a piece that starts from the iterate x_lo.

    Per sub-block, gram holds Γ̃·G with G = A·Aᵀ and Γ̃ = diag(γ̃), coef
    holds [Γ̃A | −h] and a_t holds Aᵀ. Overwrites coef so that c = coef·lows[s]
    in sub-block s, and returns lows: lows[s] = [x_s; −1] for the iterate x_s
    that sub-block s starts from.
    """
    count, size, width = coef.shape
    # (I + Γ̃·tril(G, −1))·coef = [Γ̃A | −h]: forward substitution, one row
    # of every sub-block at a time, reads only the strictly lower triangle
    for j in range(1, size):
        coef[:, j] -= (gram[:, j:j + 1, :j] @ coef[:, :j])[:, 0]
    # [x_hi; −1] = T·[x_lo; −1] with T = [[I | 0] − Aᵀ·coef; 0 … 0 1]
    maps = np.zeros((count, width, width))
    np.matmul(a_t, coef, out=maps[:, :-1])
    np.negative(maps, out=maps)
    eye = np.arange(width)
    maps[:, eye, eye] += 1.0
    # prefix products T_s·…·T_0 in log₂(count) steps (Hillis–Steele)
    step = 1
    while step < count:
        maps[step:] = maps[step:] @ maps[:-step]
        step *= 2
    lows = np.empty((count + 1, width))
    lows[0, :-1], lows[0, -1] = x_lo, -1.0
    np.matmul(maps, lows[0], out=lows[1:])
    return lows


def _linear_piece(rows, a, b, gamma, first: int):
    """The linear model's iterates rows[1:] of a piece, from rows[0]: the
    one-step case γ̃ = γ, h = −γ·b, since ℓ′ = t − b. Returns the rows done,
    fewer than len(b) only if a sub-block's end state diverged and its
    rebuilt rows did not, and ℓ′ and ℓ″ at their pre-step values."""
    k, d = a.shape
    size = _SUB_BLOCK
    count = -(-k // size)
    ab = _pad(np.column_stack([a, b]), count, size)
    gamma = _pad(gamma[:, None], count, size)
    a_t = ab[..., :d].transpose(0, 2, 1)
    gram = ab[..., :d] @ a_t
    gram *= gamma
    coef = gamma * ab
    lows = _solve(gram, coef, a_t, rows[0])
    # rebuild no further than the first sub-block whose end state has
    # diverged; the next piece starts from the iterate the rebuild reached
    bad = _first_diverged(lows[1:, :d])
    if bad is not None:
        count = bad + 1
        k = min(k, count * size)
    c = np.einsum("sbj,sj->sb", coef[:count], lows[:count]).ravel()[:k]
    _rebuild(rows[:k + 1], a[:k], c)
    _check(rows[:k + 1], first)
    t = np.einsum("ij,ij->i", a[:k], rows[:k])
    return (k, *models.derivatives(models.ModelKind.LINEAR, t, b[:k]))


def _newton_piece(rows, a, b, gamma, first: int):
    """The logistic model's iterates rows[1:] of a piece, from rows[0], by
    Newton's method on the whole trajectory (see the module docstring).
    Returns the rows settled, all of them or fewer if _NEWTON_ITERS
    iterations left some unsettled, and their ℓ′ and ℓ″ at the pre-step
    values."""
    k, d = a.shape
    size = _SUB_BLOCK
    count = -(-k // size)
    a_pad = _pad(a, count, size)
    a_t = a_pad.transpose(0, 2, 1)
    gram = a_pad @ a_t
    # buffers reused by every iteration; γ̃ and −h stay zero on padded rows
    weight = np.zeros((count, size, 1))
    scaled = np.empty_like(gram)
    coef = np.zeros((count, size, d + 1))
    logistic = models.ModelKind.LOGISTIC
    t = np.einsum("ij,j->i", a, rows[0])   # no BLAS: see _first_diverged
    r, w = models.derivatives(logistic, t, b)
    for _ in range(_NEWTON_ITERS):
        # ℓ′(t_new) ≈ ℓ′(t) + ℓ″(t)·(t_new − t): γ̃ = γ·ℓ″, h = γ·(ℓ′ − ℓ″·t)
        np.multiply(gamma, w, out=weight.reshape(-1)[:k])
        np.multiply(gram, weight, out=scaled)
        np.multiply(a_pad, weight, out=coef[..., :d])
        coef.reshape(-1, d + 1)[:k, d] = gamma * (w * t - r)
        lows = _solve(scaled, coef, a_t, rows[0])
        c = np.einsum("sbj,sj->sb", coef, lows[:-1]).ravel()[:k]
        _rebuild(rows, a, c)
        t_new = np.einsum("ij,ij->i", a, rows[:-1])
        r_new, w_new = models.derivatives(logistic, t_new, b)
        # the linearisation's error at the new pre-step values, against
        # its terms (γ > 0 cancels); NaN fails
        lin = w * (t_new - t)
        err = np.abs(r_new - r - lin)
        scale = np.abs(r_new) + np.abs(r) + np.abs(lin)
        settled = err <= _NEWTON_TOL * scale + _TINY
        t, r, w = t_new, r_new, w_new
        if settled.all():
            _check(rows, first)
            return k, r, w
        # rows before the first unsettled row j follow the straight loop,
        # and so does row j stepped with its exact ℓ′; a non-finite iterate
        # among them is the straight loop's divergence
        j = int(np.argmin(settled))
        rows[j + 1] = rows[j] - (gamma[j] * r[j]) * a[j]
        _check(rows[:j + 2], first)
    return j + 1, r[:j + 1], w[:j + 1]


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

    solve = (_newton_piece if model.kind is models.ModelKind.LOGISTIC
             else _linear_piece)
    # row 0 carries the iterate the piece starts from, rows 1.. its iterates
    xs_buf = np.empty((min(_PIECE, n) + 1, d))
    xs_buf[0] = 0.0 if x0 is None else x0
    x_sum = np.zeros(d)
    size, lo = _PIECE, 0
    # overflow inside the loop is the divergence we detect and raise on
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < n:
            m = min(size, n - lo)
            steps = schedule.step(np.arange(lo + 1, lo + m + 1, dtype=float))
            done, rs, ws = solve(xs_buf[:m + 1], a_all[lo:lo + m],
                                 b_all[lo:lo + m], steps, lo + 1)
            xs = xs_buf[1:done + 1]
            x_sum += xs.sum(axis=0)
            for s in sinks:
                s.observe(lo + 1, xs, a_all[lo:lo + done], rs, ws)
            xs_buf[0] = xs_buf[done]
            lo += done
            # an unsettled piece halves the next, a settled one doubles it
            size = min(2 * m, _PIECE) if done == m else max(m // 2, 1)
    x_bar = x_sum / n

    estimates = []
    errors = {}
    for i, s in enumerate(sinks):
        try:
            estimates.append(s.finalize())
        except Exception as exc:  # collected per sink, reported together
            errors[f"{i}:{type(s).__name__}"] = exc
            estimates.append(None)
    state = SgdState(x=xs_buf[0].copy(), x_bar=x_bar.copy())
    if errors:
        raise SinkFinalizeError(errors)
    return state, estimates
