"""Averaged SGD driver with pluggable streaming estimator sinks.

run() makes one pass over its samples and keeps the (Polyak-Ruppert)
average of the iterates. It walks the stream in pieces of up to _PIECE
rows: it solves a piece's iterates with no loop over the iterations, and
then hands every registered sink the piece's iterates, covariates and the
scalar derivatives ℓ′ and ℓ″, from which gradients ℓ′·a and Hessians
ℓ″·aaᵀ follow.

With c_k = γ_k·ℓ′(a_kᵀx_{k−1}, b_k), the iterates are x_k = x_lo − Σ_{j≤k} c_j·a_j,
and the one engine solves the affine recursion c_k = γ̃_k·a_kᵀx_{k−1} + h_k.
A piece is cut into sub-blocks of _SUB_BLOCK rows. Each carries the affine
map X with [x; −1] = X·[x_lo; −1] from its start iterate x_lo, from X = I:
row j takes c_j = [γ̃_j·a_j; −h_j]ᵀ·X, a linear form in [x_lo; −1], and steps
X ← X − a_j ⊗ c_j on X's first d rows, one row of all sub-blocks at a time
(the sub-block index is the last, contiguous axis). A scan of
log₂(sub-blocks) batched products composes the end maps into every x_lo,
and with it every c.

Every model's pieces go through one solver, Newton's method on the whole
trajectory of a piece, which reads the loss only through
models.derivatives. From the pre-step values t = A·x_lo, each iteration
linearises ℓ′ at the current t, γ̃ = γ·ℓ″(t) and h = γ·(ℓ′(t) − ℓ″(t)·t),
solves, and rebuilds the iterates by a cumulative sum of −c_j·a_j, the same
subtractions in the same order as the step-by-step recursion. It then
recomputes t from them, and stops when the linearisation residual
|ℓ′(t_new) − ℓ′(t) − ℓ″(t)·(t_new − t)| is rounding next to its terms in
every row. The linear model's ℓ′ = t − b is affine, so its pieces settle
after the first solve. Row k depends only on the rows before it, so the
rows before the first unsettled one are final. A piece still unsettled
after _NEWTON_ITERS iterations keeps those rows, and the first unsettled
row stepped with its exact ℓ′. The next piece is then half its size, and
each piece that settles doubles the next one, back up to _PIECE.

A run reports the iteration at which the step-by-step recursion first
leaves the finite range. Each solve cuts its piece after the first
sub-block whose end state is not finite, so the rebuild stops within the
sub-block that holds that iteration. Only rows that follow the
step-by-step recursion are checked for divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .inference import CovarianceEstimate


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
        if not math.isfinite(self.eta):
            raise ValueError(f"eta must be finite, got {self.eta}")
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


# Rows per sub-block, and the most rows per piece: the solver takes a piece
# in one batch and the sinks get it as one block. A solve takes one CPython
# step per sub-block row, then log₂(sub-blocks) scan steps. At d = 5 and
# n = 1e5, run() took 26.1 / 23.8 / 24.8 ms (linear) and 86.6 / 76.4 / 81.5 ms
# (logistic) with sub-blocks of 8 / 16 / 32 rows; pieces of 4096 beat 2048.
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


def _layout(rows, count: int, size: int):
    """rows (k, m), zero-padded to count·size rows and laid out
    (size, m, count): row j of sub-block s at [j, :, s]."""
    out = np.zeros((count * size, rows.shape[1]))
    out[:len(rows)] = rows
    return out.reshape(count, size, -1).transpose(1, 2, 0).copy()


def _solve(weight, a, x_lo, coef):
    """Solve the affine recursion c_k = γ̃_k·a_kᵀx_{k−1} + h_k over the
    sub-blocks of a piece that starts from the iterate x_lo.

    weight holds [γ̃_j·a_j; −h_j] and a holds a_j, for row j of sub-block s
    at [j, :, s]; a padded row has zero weight and leaves the iterate as it
    is. coef is scratch of weight's shape. Returns (c, lows): c for every
    row, padded ones included, in row order, and lows[s] = [x_s; −1] for
    the iterate x_s that sub-block s starts from.
    """
    size, width, count = weight.shape
    # maps[..., s] takes [x_s; −1] to [x; −1] for sub-block s's iterate x
    # after the rows done so far; its last row stays [0 … 0 1]
    maps = np.eye(width)[..., None].repeat(count, axis=2)
    outer = np.empty((width - 1, width, count))
    for j in range(size):
        # c_j = [γ̃_j·a_j; −h_j]ᵀ·[x_{j−1}; −1], then x_j = x_{j−1} − c_j·a_j
        np.einsum("is,ijs->js", weight[j], maps, out=coef[j])
        np.einsum("is,js->ijs", a[j], coef[j], out=outer)
        np.subtract(maps[:-1], outer, out=maps[:-1])
    # prefix products T_s·…·T_0 in log₂(count) steps (Hillis–Steele)
    maps = np.ascontiguousarray(maps.transpose(2, 0, 1))
    step = 1
    while step < count:
        maps[step:] = maps[step:] @ maps[:-step]
        step *= 2
    lows = np.empty((count + 1, width))
    lows[0, :-1], lows[0, -1] = x_lo, -1.0
    np.matmul(maps, lows[0], out=lows[1:])
    # c_j = coef[j, :, s]·[x_s; −1] for row j of sub-block s
    return np.einsum("jis,si->sj", coef, lows[:-1]).ravel(), lows


def _newton_piece(rows, a, b, gamma, first: int, kind: models.ModelKind):
    """A piece's iterates rows[1:], from rows[0], by Newton's method on the
    whole trajectory (see the module docstring). Returns the rows done, and
    their ℓ′ and ℓ″ at the pre-step values: all rows, or fewer if a
    sub-block's end state diverged and the rebuilt rows did not, or if
    _NEWTON_ITERS iterations left some unsettled."""
    k, d = a.shape
    size = _SUB_BLOCK
    count = -(-k // size)
    a_lay = _layout(a, count, size)
    # buffers reused by every iteration; γ̃ and −h stay zero on padded rows
    flat = np.zeros((2, count * size))
    gain, neg_h = flat.reshape(2, count, size).transpose(0, 2, 1)
    weight = np.empty((size, d + 1, count))
    coef = np.empty_like(weight)
    t = np.einsum("ij,j->i", a, rows[0])   # no BLAS: see _first_diverged
    r, w = models.derivatives(kind, t, b)
    for _ in range(_NEWTON_ITERS):
        # ℓ′(t_new) ≈ ℓ′(t) + ℓ″(t)·(t_new − t): γ̃ = γ·ℓ″, h = γ·(ℓ′ − ℓ″·t)
        np.multiply(gamma, w, out=flat[0, :k])
        np.multiply(gamma, w * t - r, out=flat[1, :k])
        np.multiply(a_lay, gain[:, None], out=weight[:, :d])
        weight[:, d] = neg_h
        c, lows = _solve(weight, a_lay, rows[0], coef)
        # rebuild no further than the first sub-block whose end state has
        # diverged; the rows after it wait for the next piece, which starts
        # from the iterate the rebuild reached
        bad = _first_diverged(lows[1:, :d])
        if bad is not None and (bad + 1) * size < k:
            k = (bad + 1) * size
            rows = rows[:k + 1]
            a, b, gamma, t, r, w = (v[:k] for v in (a, b, gamma, t, r, w))
        _rebuild(rows, a, c[:k])
        t_new = np.einsum("ij,ij->i", a, rows[:-1])
        r_new, w_new = models.derivatives(kind, t_new, b)
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


def run(model: models.ModelSpec, n: int, schedule: StepSchedule, *, data,
        x0=None, sinks=()):
    """Run n SGD steps on a model over the samples `data = (A, b)`, of
    shapes (n, d) and (n,), streaming into the sinks. The run starts from
    `x0`, of shape (d,), or from zero. Returns (final SgdState, list of
    finalized estimates aligned with `sinks`).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = model.d
    sinks = list(sinks)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (d,):
            raise ValueError(f"x0 has shape {x0.shape}, the model needs ({d},)")

    a_all, b_all = (np.asarray(v, dtype=float) for v in data)
    if a_all.shape != (n, d) or b_all.shape != (n,):
        raise ValueError(f"data arrays have shapes {a_all.shape} and "
                         f"{b_all.shape}, need ({n}, {d}) and ({n},)")

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
            done, rs, ws = _newton_piece(xs_buf[:m + 1], a_all[lo:lo + m],
                                         b_all[lo:lo + m], steps, lo + 1,
                                         model.kind)
            xs = xs_buf[1:done + 1]
            x_sum += xs.sum(axis=0)
            for s in sinks:
                s.observe(lo + 1, xs, a_all[lo:lo + done], rs, ws)
            xs_buf[0] = xs_buf[done]
            lo += done
            # an unsettled piece halves the next, a settled one doubles it
            size = min(2 * m, _PIECE) if done == m else max(m // 2, 1)

    estimates, errors = [], {}
    for i, s in enumerate(sinks):
        try:
            estimates.append(s.finalize())
        except Exception as exc:  # collected per sink, reported together
            errors[f"{i}:{type(s).__name__}"] = exc
            estimates.append(None)
    state = SgdState(x=xs_buf[0].copy(), x_bar=x_sum / n)
    if errors:
        raise SinkFinalizeError(errors)
    return state, estimates
