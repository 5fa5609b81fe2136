"""Batch-means covariance estimator with increasing batch sizes.

The iterate sequence is partitioned into M+1 batches whose boundaries grow
like e_k = ((k+1)N)^(1/(1-α)); batch 0 is burn-in and is discarded. The
estimator is the weighted between-batch covariance of the batch means,
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
        return json.dumps(list(self.boundaries))


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
    """Streams iterates into per-batch means and finalizes the weighted
    between-batch covariance. Peak state is O(d·M), independent of n."""

    def __init__(self, schedule: BatchSchedule, d: int):
        self.schedule = schedule
        self.d = d
        self._batch = 0                    # index of the open batch
        self._seen = 0
        self._cur_sum = np.zeros(d)
        self._cur_count = 0
        self.batch_counts: list[int] = []  # n_k for closed batches, incl. batch 0
        self.batch_means: list[np.ndarray] = []
        self._post_burn_sum = np.zeros(d)

    def observe(self, start, xs, a=None, r=None, w=None):
        if start != self._seen + 1:
            raise ProtocolError(f"expected iteration {self._seen + 1}, got {start}")
        stop = start + len(xs) - 1
        if stop > self.schedule.n:
            raise ProtocolError(f"observe past the final boundary e_M={self.schedule.n}")
        # Block offsets at which a segment starts: 0, then one past every
        # boundary e_k that falls inside the block (except the block's end).
        bounds = self.schedule.boundaries
        closing = [e - start + 1 for e in bounds[self._batch:] if e <= stop]
        offsets = [0] + [c for c in closing if c < len(xs)]
        sums = np.add.reduceat(xs, offsets, axis=0)
        ends = offsets[1:] + [len(xs)]
        for j, seg_sum in enumerate(sums):
            self._cur_sum += seg_sum
            self._cur_count += ends[j] - offsets[j]
            if self._batch > 0:
                self._post_burn_sum += seg_sum
            if j < len(closing):
                self.batch_counts.append(self._cur_count)
                self.batch_means.append(self._cur_sum / self._cur_count)
                self._cur_sum = np.zeros(self.d)
                self._cur_count = 0
                self._batch += 1
        self._seen = stop

    def finalize(self) -> CovarianceEstimate:
        if self._seen != self.schedule.n:
            raise ProtocolError(
                f"stream ended at {self._seen}, schedule expects {self.schedule.n}")
        m = self.schedule.m
        counts = np.asarray(self.batch_counts[1:], dtype=float)
        dev = np.asarray(self.batch_means[1:]) - self.overall_mean
        est = (dev.T * counts) @ dev / m
        return CovarianceEstimate(0.5 * (est + est.T))

    @property
    def overall_mean(self) -> np.ndarray:
        """X̄_M: mean of all post-burn-in iterates seen so far."""
        total = self._seen - self.schedule.burn_in
        if total <= 0:
            raise ProtocolError(
                f"overall mean is undefined before burn-in ends: seen "
                f"{self._seen} of e_0={self.schedule.burn_in} iterations")
        return self._post_burn_sum / total
