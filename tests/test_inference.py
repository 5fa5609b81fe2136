import math

import mpmath
import numpy as np
import pytest

import sgdinf
from sgdinf import inference
from sgdinf.inference import (
    CiReport,
    EstimatorCorruptionError,
    confidence_interval,
    z_quantile,
    z_test,
)
from sgdinf.sgd import CovarianceEstimate

mpmath.mp.dps = 40


def mp_normal_cdf(x):
    return 0.5 * (1 + mpmath.erf(mpmath.mpf(x) / mpmath.sqrt(2)))


def quantile_by_bisection(p, lo=-10.0, hi=10.0, iters=200):
    """Independent oracle: bisection on the high-precision erf series."""
    p = mpmath.mpf(p)
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if mp_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


class TestZQuantile:
    def test_median(self):
        assert z_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_standard_constants(self):
        assert z_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert z_quantile(0.995) == pytest.approx(2.575829, abs=1e-6)

    @pytest.mark.parametrize("p", [1e-8, 1e-4, 0.01, 0.024, 0.3, 0.5, 0.7,
                                   0.976, 0.99, 0.9999, 1 - 1e-8])
    def test_against_bisection_oracle(self, p):
        assert z_quantile(p) == pytest.approx(quantile_by_bisection(p), abs=1e-9)

    @pytest.mark.parametrize("q", [0.2, 0.1, 0.05, 0.01])
    def test_cdf_duality(self, q):
        assert float(mp_normal_cdf(z_quantile(1 - q / 2))) == pytest.approx(1 - q / 2,
                                                                  abs=1e-8)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            z_quantile(p)


class TestConfidenceInterval:
    def test_identity_width(self):
        rep = confidence_interval(np.zeros(3), np.eye(3), 10000, 0.05)
        np.testing.assert_allclose(rep.half_width, 0.0195996, atol=1e-6)

    def test_zero_variance_degenerate(self):
        rep = confidence_interval(np.array([2.0]), np.zeros((1, 1)), 100, 0.05)
        assert rep.half_width[0] == 0.0
        assert rep.lower[0] == rep.upper[0] == 2.0

    def test_tiny_negative_diagonal_clipped(self):
        cov = np.diag([1.0, -5e-9])
        rep = confidence_interval(np.zeros(2), cov, 100, 0.05)
        assert rep.half_width[1] == 0.0

    def test_corrupt_diagonal_raises(self):
        with pytest.raises(EstimatorCorruptionError):
            confidence_interval(np.zeros(2), np.diag([1.0, -1e-6]), 100, 0.05)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            confidence_interval(np.zeros(3), np.eye(2), 100, 0.05)
        with pytest.raises(ValueError, match=r"shape \(2, 2\), need \(3, 3\)"):
            confidence_interval(np.zeros(3), np.eye(2), 100, 0.05)

    def test_monotone_in_q(self):
        widths = [confidence_interval(np.zeros(2), np.eye(2), 100, q).half_width[0]
                  for q in (0.2, 0.1, 0.05, 0.01)]
        assert widths == sorted(widths)

    def test_accepts_covariance_estimate(self):
        est = CovarianceEstimate(np.eye(2))
        rep = confidence_interval(np.zeros(2), est, 10000, 0.05)
        np.testing.assert_allclose(rep.half_width, 0.0195996, atol=1e-6)

    def test_one_covariance_type(self):
        # the sinks and the oracle share the type defined in inference
        assert sgdinf.CovarianceEstimate is inference.CovarianceEstimate
        assert CovarianceEstimate is inference.CovarianceEstimate
        assert "OracleCovariance" not in sgdinf.__all__

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5, -0.05, math.nan])
    def test_rejects_level_outside_open_unit_interval(self, q):
        # q = 1 gave zero-length intervals and q = 1.5 a "negative half-width"
        with pytest.raises(ValueError, match=r"q must lie in \(0, 1\), got"):
            confidence_interval(np.zeros(2), np.eye(2), 100, q)

    def test_hit_flags(self):
        rep = confidence_interval(np.array([0.0, 0.0]), np.eye(2), 100, 0.05,
                                  truth=np.array([0.1, 5.0]))
        assert rep.hits.tolist() == [True, False]


class TestZTest:
    def test_null_value(self):
        z, p = z_test(0.7, 1.0, 100, null_value=0.7)
        assert z == 0.0
        assert p == 1.0

    def test_quantile_duality(self):
        z, p = z_test(1.959964 / 10, 1.0, 100, 0.0)
        assert p == pytest.approx(0.05, abs=1e-6)

    def test_against_high_precision_cdf(self, rng):
        for _ in range(50):
            xbar = rng.normal()
            var = rng.uniform(0.1, 3.0)
            n = int(rng.integers(10, 1000))
            z, p = z_test(xbar, var, n, 0.0)
            p_mp = float(2 * (1 - mp_normal_cdf(abs(z))))
            assert p == pytest.approx(p_mp, abs=1e-7)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            z_test(0.1, 0.0, 100)
        with pytest.raises(ValueError):
            z_test(0.1, -1.0, 100)

    @pytest.mark.parametrize("cov_jj,n,message", [
        # a NaN variance returned (nan, nan); an infinite one and n = 0
        # returned (0.0, 1.0), which never rejects
        (math.nan, 100, "variance must be positive and finite, got nan"),
        (math.inf, 100, "variance must be positive and finite, got inf"),
        (1.0, 0, "n must be >= 1, got 0"),
        (1.0, -5, "n must be >= 1, got -5"),
    ])
    def test_rejects_non_finite_variance_and_empty_sample(self, cov_jj, n,
                                                           message):
        with pytest.raises(ValueError, match=message):
            z_test(0.1, cov_jj, n)


class TestOracleIntervalCoverage:
    def test_simulated_coverage_with_true_covariance(self):
        # averaged-SGD draws from an independent reference implementation;
        # intervals built from the true covariance must cover ~95%
        from conftest import reference_sgd_many
        from sgdinf import models as m

        model = m.ModelSpec(m.ModelKind.LINEAR, m.DesignSpec("identity", 5),
                            tuple(m.default_x_star(5)), sigma=1.0)
        _, xbar = reference_sgd_many(model, 100_000, eta=0.5, alpha=0.5,
                                     n_reps=500, seed=314159)
        hits = []
        for r in range(500):
            rep = confidence_interval(xbar[r], np.eye(5), 100_000, 0.05,
                                      truth=model.xs)
            hits.append(rep.hits)
        coverage = float(np.mean(hits)) * 100
        assert 92.5 <= coverage <= 97.5, coverage
