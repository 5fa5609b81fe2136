"""Independent correctness checks for the benchmark workloads.

Every expected value here is computed from first principles with numpy and
the standard library (statistics.NormalDist, math.lgamma); nothing calls
the sgdinf function whose output is being checked. Each check returns a
list of problems: an empty list means the output passed.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

# Tail probability at which a statistical check calls an output wrong. Each
# run makes a few dozen such tests, so false alarms stay far below one in
# the benchmark's lifetime while real faults (a covariance off by 1.5x, a
# mean off by 10 SE) sit many SE outside.
ALARM_P = 1e-6
ALARM_Z = NormalDist().inv_cdf(1.0 - ALARM_P / 2.0)   # about 4.9


def z_two_sided(q: float) -> float:
    return NormalDist().inv_cdf(1.0 - q / 2.0)


def chi2_cdf(x: float, k: int) -> float:
    """P(chi2_k <= x), the regularized lower incomplete gamma P(k/2, x/2) by
    its power series."""
    if x <= 0.0:
        return 0.0
    a, y = k / 2.0, x / 2.0
    term = math.exp(a * math.log(y) - y - math.lgamma(a + 1.0))
    total = term
    j = 1
    while term > 1e-17 * total:
        term *= y / (a + j)
        total += term
        j += 1
    return min(total, 1.0)


def chi2_quantile(p: float, k: int) -> float:
    lo, hi = 0.0, 10.0 * k + 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, k) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def t_central_prob(c: float, nu: int, steps: int = 4000) -> float:
    """P(|T_nu| <= c) by Simpson's rule on the Student-t density."""
    log_norm = (math.lgamma((nu + 1) / 2.0) - math.lgamma(nu / 2.0)
                - 0.5 * math.log(nu * math.pi))
    h = c / steps
    total = 0.0
    for i in range(steps + 1):
        t = i * h
        f = math.exp(log_norm - (nu + 1) / 2.0 * math.log1p(t * t / nu))
        total += f * (1 if i in (0, steps) else 4 if i % 2 else 2)
    return 2.0 * total * h / 3.0


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Binomial(n, p), 0 < p < 1."""
    def pmf(i):
        return math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                        + i * math.log(p) + (n - i) * math.log1p(-p))
    lower = sum(pmf(i) for i in range(0, k + 1))
    upper = sum(pmf(i) for i in range(k, n + 1))
    return lower, upper


def bm_length_moments(m: int) -> tuple[float, float]:
    """Mean and s.d. of a batch-means interval length, as multiples of the
    oracle length, at the M-batch floor: the variance estimate is
    V_jj * chi2_{M-1} / M, so E[len] / len_oracle = sqrt(2/M) G(M/2) / G((M-1)/2)."""
    mean = math.sqrt(2.0 / m) * math.exp(math.lgamma(m / 2.0) - math.lgamma((m - 1) / 2.0))
    var = (m - 1) / m - mean * mean
    return mean, math.sqrt(max(var, 0.0))


def bm_coverage(m: int, q: float) -> float:
    """Expected coverage of a batch-means interval at the M-batch floor:
    P(|T_{M-1}| <= z * sqrt((M-1)/M))."""
    return t_central_prob(z_two_sided(q) * math.sqrt((m - 1) / m), m - 1)


# --- table1-linear ----------------------------------------------------------

# Batch-means at n = 1e5 sits a few per cent below its M-batch floor, more so
# for more batches (about -4% at c = 0.3, from 200 intervals at eta = 0.5):
# early batches are short and correlated, which the floor ignores. The
# allowance covers that bias; a covariance off by 1.5x moves lengths by +22%.
BM_LENGTH_ALLOWANCE = 0.06
# Plug-in is consistent at n = 1e5: measured +0.6% over 200 intervals.
PLUGIN_LENGTH_TOL = 0.05


def check_table1_call(rows: dict, failures: int, n_sim: int, n: int,
                      q: float, sigma: float) -> list[str]:
    """Checks on one results.csv: `rows` maps estimator label to
    (cov_rate_pct, avg_len, oracle_len, n_sim)."""
    problems = []
    oracle_len = 2.0 * z_two_sided(q) * sigma / math.sqrt(n)
    for label, (_, avg_len, row_oracle, row_nsim) in rows.items():
        if abs(row_oracle / oracle_len - 1.0) > 1e-5:
            problems.append(f"{label}: oracle_len {row_oracle} != 2 z sigma/sqrt(n) = {oracle_len:.6g}")
        if row_nsim + failures != n_sim:
            problems.append(f"{label}: n_sim {row_nsim} + {failures} failed != {n_sim} asked")
    if "oracle" in rows and abs(rows["oracle"][1] / oracle_len - 1.0) > 1e-5:
        problems.append(f"oracle avg_len {rows['oracle'][1]} != {oracle_len:.6g}")
    return problems


def check_table1_pooled(pooled: dict, d: int, n: int, q: float, sigma: float,
                        m_for: dict) -> list[str]:
    """Statistical checks pooled over every call of a run. `pooled` maps
    label to (hits, intervals, sum of lengths); `m_for` maps each bm label
    to its batch count M = round(n^c). Coverage SEs are over intervals
    (replications x d), not replications."""
    problems = []
    oracle_len = 2.0 * z_two_sided(q) * sigma / math.sqrt(n)
    for label, (hits, count, len_sum) in pooled.items():
        mean_len = len_sum / count
        if label in m_for:
            m = m_for[label]
            p_cover = bm_coverage(m, q)
            f_mean, f_sd = bm_length_moments(m)
            expect = oracle_len * f_mean
            band = (ALARM_Z * f_sd / math.sqrt(count) + BM_LENGTH_ALLOWANCE) * oracle_len
            if abs(mean_len - expect) > band:
                problems.append(f"{label}: mean length {mean_len:.6g} outside "
                                f"{expect:.6g} +- {band:.3g} (M={m} floor, {count} intervals)")
        else:
            p_cover = 1.0 - q
            if label == "plugin" and abs(mean_len / oracle_len - 1.0) > PLUGIN_LENGTH_TOL:
                problems.append(f"plugin: mean length {mean_len:.6g} not within "
                                f"{PLUGIN_LENGTH_TOL:.0%} of oracle {oracle_len:.6g}")
        lower, upper = binomial_tails(hits, count, p_cover)
        if min(lower, upper) < ALARM_P / 2.0:
            problems.append(f"{label}: coverage {hits}/{count} is off its expected "
                            f"{p_cover:.4f} (binomial tail {min(lower, upper):.2e})")
    return problems


# --- stream-logistic-bm -----------------------------------------------------

def wishart_floor_errors(v: np.ndarray, m: int, draws: int, seed: int) -> np.ndarray:
    """Operator-norm errors ||W - V||_2 of the batch-means floor: with M
    perfectly decorrelated Gaussian batches the estimate is W ~
    Wishart(M-1, V)/M, drawn here by Bartlett's decomposition
    W = L A A' L' / M."""
    rng = np.random.default_rng(seed)
    d = v.shape[0]
    a = np.zeros((draws, d, d))
    rows, cols = np.tril_indices(d, -1)
    a[:, rows, cols] = rng.standard_normal((draws, rows.size))
    for i in range(d):
        a[:, i, i] = np.sqrt(rng.chisquare(m - 1 - i, draws))
    la = np.linalg.cholesky(v) @ a
    w = la @ la.transpose(0, 2, 1) / m
    return np.linalg.norm(w - v, 2, axis=(1, 2))


def check_stream(x_bar, x_star, cov, center, half_width, v: np.ndarray,
                 n: int, q: float, err_limit: float) -> list[str]:
    """Checks on one logistic stream: the average against the exact oracle
    V, the batch-means estimate against its floor, and the interval
    arithmetic."""
    problems = []
    x_bar = np.asarray(x_bar, float)
    cov = np.asarray(cov, float)
    d = x_bar.size
    dev = x_bar - np.asarray(x_star, float)
    stat = float(n * dev @ np.linalg.solve(v, dev))
    limit = chi2_quantile(1.0 - ALARM_P, d)
    if not stat <= limit:
        problems.append(f"n (x_bar - x*)' V^-1 (x_bar - x*) = {stat:.4g} > chi2_{d} "
                        f"quantile {limit:.4g}")
    err = float(np.linalg.norm(cov - v, 2))
    if not err <= err_limit:
        problems.append(f"batch-means error ||S - V||_2 = {err:.4g} above the floor "
                        f"limit {err_limit:.4g}")
    half = z_two_sided(q) * np.sqrt(np.maximum(np.diag(cov), 0.0) / n)
    if not np.allclose(center, x_bar, rtol=1e-12, atol=1e-14):
        problems.append("interval centre differs from x_bar")
    if not np.allclose(half_width, half, rtol=1e-12, atol=1e-14):
        problems.append(f"half-widths {np.asarray(half_width)} != z sqrt(diag S / n) {half}")
    return problems


# --- highdim-debias ---------------------------------------------------------

def check_highdim(D, b, x_hat, x_debiased, gamma, tau, omega, center,
                  half_width, sigma: float, q: float, tol: float = 1e-10) -> list[str]:
    """Recompute the debiasing pipeline from the fit's x_hat and node-wise
    coefficients and compare every stage."""
    problems = []
    n, d = D.shape

    def close(name, got, want):
        got, want = np.asarray(got, float), np.asarray(want, float)
        scale = max(1.0, float(np.abs(want).max()))
        err = float(np.abs(got - want).max())
        if not err <= tol * scale:
            problems.append(f"{name}: max abs difference {err:.3e} (scale {scale:.3g})")

    tau_want = np.empty(d)
    c = np.eye(d)
    for j in range(d):
        others = np.arange(d) != j
        resid = D[:, j] - D[:, others] @ gamma[j]
        tau_want[j] = resid @ D[:, j] / n
        c[j, others] = -gamma[j]
    close("tau_hat", tau, tau_want)
    omega_want = c / tau_want[:, None]
    close("omega = T C", omega, omega_want)
    x_d_want = x_hat + omega_want @ (D.T @ (b - D @ x_hat)) / n
    close("x_debiased", x_debiased, x_d_want)
    close("interval centre", center, x_d_want)
    quad = omega_want @ (D.T @ D / n) @ omega_want.T
    half_want = z_two_sided(q) * sigma * np.sqrt(np.diag(quad) / n)
    close("half-widths", half_width, half_want)
    half_width = np.asarray(half_width, float)
    if not (np.isfinite(half_width).all() and (half_width > 0).all()
            and np.isfinite(center).all()):
        problems.append("an interval is not finite with a positive half-width")
    return problems
