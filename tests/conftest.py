"""Shared test helpers: an independent reference SGD used to cross-check
the streaming implementation, a sink that records every block, small
fixtures, and the end-of-run report of the acceptance verdicts."""

import numpy as np
import pytest

from sgdinf import models
from sgdinf.sgd import EstimatorSink


def sigmoid(t):
    """1/(1+exp(-t)) by two masked formulas, independent of
    models.derivatives; no overflow for any float input."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return float(out) if out.ndim == 0 else out


class RecordingSink(EstimatorSink):
    """Keeps a copy of every block the engine hands over."""

    def __init__(self):
        self.blocks = []

    def observe(self, start, xs, a, r, w):
        self.blocks.append((start, xs.copy(), a.copy(), r.copy(), w.copy()))

    @property
    def calls(self):
        """Iteration numbers covered by the blocks, in the order received."""
        return [start + j for start, xs, *_ in self.blocks
                for j in range(len(xs))]

    def stacked(self, field):
        return np.concatenate([blk[field] for blk in self.blocks])

    def finalize(self):
        return None


def reference_sgd_trace(model, a_all, b_all, eta, alpha, x0=None):
    """Straight-line re-implementation of the recursion, kept independent of
    the package's run loop. Returns the full iterate trace (n, d)."""
    n, d = a_all.shape
    x = np.zeros(d) if x0 is None else np.array(x0, dtype=float)
    xs = model.xs
    rows = np.empty((n, d))
    for i in range(1, n + 1):
        a = a_all[i - 1]
        b = b_all[i - 1]
        if model.kind is models.ModelKind.LINEAR:
            g = (a @ x - b) * a
        else:
            t = -b * (a @ x)
            phi = 1.0 / (1.0 + np.exp(-t)) if t < 0 else 1.0 - 1.0 / (1.0 + np.exp(t))
            g = -phi * b * a
        x = x - eta * i ** (-alpha) * g
        rows[i - 1] = x
    return rows


def reference_sgd_many(model, n, eta, alpha, n_reps, seed, checkpoints=()):
    """Vectorized-over-replications reference SGD (identity-design models).

    Returns dict checkpoint -> array (n_reps, d) of iterates x_n, plus the
    final averages. Used for Monte-Carlo property oracles where looping the
    streaming implementation would be slow.
    """
    d = model.d
    rng = np.random.default_rng(seed)
    x = np.zeros((n_reps, d))
    xbar = np.zeros((n_reps, d))
    xs = model.xs
    out = {}
    checkpoints = set(checkpoints)
    factor = np.linalg.cholesky(models.make_covariance(model.design))
    for i in range(1, n + 1):
        a = rng.standard_normal((n_reps, d))
        if model.design.kind is not models.DesignKind.IDENTITY:
            a = a @ factor.T
        mean = a @ xs
        if model.kind is models.ModelKind.LINEAR:
            b = mean + model.sigma * rng.standard_normal(n_reps)
            r = np.einsum("ij,ij->i", a, x) - b
        else:
            b = np.where(rng.random(n_reps) < 1 / (1 + np.exp(-mean)), 1.0, -1.0)
            t = np.clip(-b * np.einsum("ij,ij->i", a, x), -700, 700)
            r = -b / (1.0 + np.exp(-t))
        x = x - (eta * i ** (-alpha)) * r[:, None] * a
        xbar += (x - xbar) / i
        if i in checkpoints:
            out[i] = x.copy()
    return out, xbar


def batch_means_floor(schedule, cov, draws=20_000, seed=0):
    """Sampling floor of the batch-means estimator for a given schedule.

    Draws the post-burn-in batch means as independent X̄_k ~ N(0, cov/n_k),
    with the schedule's own sizes n_1..n_M, and forms
    Σ̂ = Σ_k n_k (X̄_k − X̄)(X̄_k − X̄)ᵀ / M with X̄ the n_k-weighted mean,
    straight from the formula (no BatchMeansAccumulator). Perfectly
    decorrelated, exactly Gaussian batches are the best case for the
    estimator, so these draws give the sampling error that M batches carry
    even with ideal data. Whatever the n_k, each draw is exactly
    Wishart(M−1, cov)/M, so E[Σ̂] = (M−1)/M · cov.
    Returns an array of shape (draws, d, d).
    """
    cov = np.asarray(cov, dtype=float)
    counts = np.diff(schedule.boundaries).astype(float)
    m = counts.size
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((draws, m, cov.shape[0]))
    means = (z @ np.linalg.cholesky(cov).T) / np.sqrt(counts)[:, None]
    overall = np.einsum("k,rkj->rj", counts, means) / counts.sum()
    dev = means - overall[:, None, :]
    return np.einsum("k,rki,rkj->rij", counts, dev, dev) / m


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


# Verdict lines of the acceptance tests, printed after the run by
# pytest_terminal_summary: pytest captures a test's output at the
# file-descriptor level, so a line printed inside a passing test never
# reaches the terminal under a plain `pytest -q`.
ACCEPTANCE_VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
