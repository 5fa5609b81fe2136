"""Batch-means covariance estimator with increasing batch sizes.

The iterate sequence is partitioned into M+1 batches by boundaries
e_0 < e_1 < ... < e_M = n that grow like e_k = ((k+1)N)^(1/(1-α)); batch 0
(iterations 1..e_0) is burn-in and is discarded. The whole state is the
batch sums S_k of the iterates in batch k. With n_k = e_k − e_{k−1},
X̄_k = S_k/n_k and X̄_M = (S_1 + ... + S_M)/(n − e_0), the estimate is

    Σ̂ = (1/M)·Σ_{k=1..M} n_k (X̄_k − X̄_M)(X̄_k − X̄_M)ᵀ,

which needs no Hessians and only O(d·M) state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .inference import CovarianceEstimate
from .sgd import EstimatorSink


class ScheduleError(ValueError):
    """Batch schedule is infeasible for the requested (n, M, alpha)."""


class ProtocolError(RuntimeError):
    """observe() calls violated the one-pass streaming contract, or a
    quantity was read before the stream defined it."""


@dataclass(frozen=True)
class BatchSchedule:
    """Batch boundaries e_0 < e_1 < ... < e_M with e_M = n.

    Batch k covers iterations s_k..e_k where s_0 = 1 and s_k = e_{k-1}+1;
    batch 0 is burn-in.
    """

    boundaries: tuple

    def __post_init__(self):
        bounds = self.boundaries
        if (len(bounds) < 2
                or not all(isinstance(e, (int, np.integer))
                           and not isinstance(e, bool) for e in bounds)
                or bounds[0] < 1
                or any(lo >= hi for lo, hi in zip(bounds, bounds[1:]))):
            raise ScheduleError("boundaries must be integers 1 <= e_0 < e_1 "
                                f"< ... < e_M with M >= 1, got {bounds!r}")

    @property
    def m(self) -> int:
        return len(self.boundaries) - 1

    @property
    def n(self) -> int:
        return self.boundaries[-1]

    @property
    def burn_in(self) -> int:
        return self.boundaries[0]

    def to_json(self) -> str:
        return json.dumps([int(e) for e in self.boundaries])


def make_schedule(n: int, m: int, alpha: float) -> BatchSchedule:
    """Boundaries from Eqs. e_k = ((k+1)N)^(1/(1-α)), N = n^(1-α)/(M+1).

    Real-valued boundaries are rounded half-up, repaired to strict increase,
    and the last boundary is forced to n exactly.
    """
    if m < 1:
        raise ScheduleError(f"need at least one used batch, got M={m}")
    if not 0.5 <= alpha < 1.0:
        raise ScheduleError(f"alpha must lie in [0.5, 1), got {alpha}")
    if n < (m + 1) ** 2:
        raise ScheduleError(f"n={n} too small for M={m} (need n >= (M+1)^2)")
    big_n = n ** (1.0 - alpha) / (m + 1)   # the decorrelation factor N
    power = 1.0 / (1.0 - alpha)
    bounds = []
    prev = 0
    for k in range(m):
        e_k = int(math.floor(((k + 1) * big_n) ** power + 0.5))
        e_k = max(e_k, prev + 1)
        bounds.append(e_k)
        prev = e_k
    if prev >= n:
        raise ScheduleError(
            f"degenerate schedule: batch {m} would be empty (e_{m-1}={prev} >= n={n})")
    bounds.append(n)
    return BatchSchedule(tuple(bounds))


def batch_count(n: int, c: float = 0.25) -> int:
    """Harness rule M = round(n^c) for c in the studied range 0.2..0.3."""
    return max(1, int(math.floor(n ** c + 0.5)))


class BatchMeansAccumulator(EstimatorSink):
    """Streams iterates into the M+1 batch sums S_k and finalizes the
    weighted between-batch covariance. State is O(d·M), independent of n."""

    def __init__(self, schedule: BatchSchedule, d: int):
        self.schedule = schedule
        self.sums = np.zeros((schedule.m + 1, d))   # S_0 .. S_M
        self._seen = 0

    def observe(self, start, xs, a=None, r=None, w=None):
        d = self.sums.shape[1]
        if np.shape(xs)[1:] != (d,) or len(xs) < 1:
            raise ValueError(f"block of shape {np.shape(xs)} is not (k, {d}) "
                             "with k >= 1")
        if start != self._seen + 1:
            raise ProtocolError(f"expected iteration {self._seen + 1}, got {start}")
        stop = start + len(xs) - 1
        if stop > self.schedule.n:
            raise ProtocolError(f"observe past the final boundary e_M={self.schedule.n}")
        # iteration i lies in batch k when e_{k-1} < i <= e_k; the block
        # meets batches first..last and is cut one past each e_k inside it
        bounds = np.asarray(self.schedule.boundaries)
        first, last = np.searchsorted(bounds, (start, stop))
        cuts = np.concatenate(([0], bounds[first:last] - (start - 1)))
        self.sums[first:last + 1] += np.add.reduceat(xs, cuts, axis=0)
        self._seen = stop

    def finalize(self) -> CovarianceEstimate:
        n, burn_in = self.schedule.n, self.schedule.burn_in
        if self._seen != n:
            raise ProtocolError(
                f"stream ended at {self._seen}, schedule expects {n}")
        counts = np.diff(self.schedule.boundaries).astype(float)   # n_1 .. n_M
        used = self.sums[1:]
        dev = used / counts[:, None] - used.sum(axis=0) / (n - burn_in)
        est = (dev.T * counts) @ dev / self.schedule.m
        return CovarianceEstimate(0.5 * (est + est.T))
