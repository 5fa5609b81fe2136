import mpmath
import numpy as np
import pytest

from sgdinf import models
from sgdinf.inference import CovarianceEstimate, confidence_interval
from sgdinf.models import (
    DesignKind,
    DesignSpec,
    InvalidDesignError,
    ModelKind,
    ModelSpec,
    OracleError,
    default_x_star,
    derivatives,
    make_covariance,
    oracle_covariance,
    population_hessian,
    sample_covariates,
    sample_dataset,
)

from conftest import sigmoid


def linear_model(d=5, design=DesignKind.IDENTITY, rho=0.0, sigma=1.0, x_star=None):
    spec = DesignSpec(design, d, rho)
    xs = default_x_star(d) if x_star is None else x_star
    return ModelSpec(ModelKind.LINEAR, spec, tuple(xs), sigma=sigma)


def logistic_model(d=5, design=DesignKind.IDENTITY, rho=0.0, x_star=None):
    spec = DesignSpec(design, d, rho)
    xs = default_x_star(d) if x_star is None else x_star
    return ModelSpec(ModelKind.LOGISTIC, spec, tuple(xs))


def oracle_lengths(oracle, n, q):
    """Every coordinate's oracle interval length, 2·z_{q/2}·sqrt(V_jj/n)."""
    return confidence_interval(np.zeros(len(oracle.matrix)), oracle.matrix,
                               n, q).lengths


class TestMakeCovariance:
    def test_identity_exact(self):
        assert np.array_equal(make_covariance(DesignSpec("identity", 3)), np.eye(3))

    def test_toeplitz_d2(self):
        got = make_covariance(DesignSpec("toeplitz", 2, 0.5))
        np.testing.assert_array_equal(got, [[1.0, 0.5], [0.5, 1.0]])

    def test_equicorr_d3(self):
        got = make_covariance(DesignSpec("equicorr", 3, 0.2))
        expected = np.full((3, 3), 0.2)
        np.fill_diagonal(expected, 1.0)
        np.testing.assert_allclose(got, expected)

    @pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
    @pytest.mark.parametrize("kind", ["toeplitz", "equicorr"])
    def test_invalid_rho_rejected(self, kind, rho):
        with pytest.raises(InvalidDesignError):
            DesignSpec(kind, 4, rho)

    @pytest.mark.parametrize("kind,rho", [("identity", 0.0), ("toeplitz", 0.5),
                                          ("toeplitz", 0.9), ("equicorr", 0.2),
                                          ("equicorr", 0.8)])
    @pytest.mark.parametrize("d", [1, 5, 20, 100])
    def test_positive_definite(self, kind, rho, d):
        sigma = make_covariance(DesignSpec(kind, d, rho))
        assert np.linalg.eigvalsh(sigma).min() > 0


class TestSampling:
    def test_linear_zero_noise_response_exact(self, rng):
        # zero-noise degenerate case: b must equal a.x* exactly
        model = linear_model(d=3, sigma=0.0)
        a, b = sample_dataset(model, 10, rng)
        np.testing.assert_array_equal(b, a @ model.xs)

    def test_logistic_labels_are_plus_minus_one(self, rng):
        _, b = sample_dataset(logistic_model(d=4), 200, rng)
        assert set(b) <= {-1.0, 1.0}

    def test_logistic_symmetric_at_zero_truth(self, rng):
        _, b = sample_dataset(logistic_model(d=3, x_star=np.zeros(3)), 20000, rng)
        assert abs((b == 1).mean() - 0.5) < 0.02

    def test_identity_design_empirical_covariance(self, rng):
        model = linear_model(d=4)
        a, _ = sample_dataset(model, 100000, rng)
        emp = a.T @ a / a.shape[0]
        assert np.abs(emp - np.eye(4)).max() < 0.05

    def test_toeplitz_design_empirical_covariance(self, rng):
        model = linear_model(d=4, design=DesignKind.TOEPLITZ, rho=0.5)
        a, _ = sample_dataset(model, 100000, rng)
        emp = a.T @ a / a.shape[0]
        assert np.abs(emp - make_covariance(model.design)).max() < 0.05

    def test_logistic_conditional_probability_at_fixed_a(self, rng):
        # empirical P(b=+1|a) over 1e5 draws at one fixed covariate
        model = logistic_model(d=3, x_star=(0.4, -0.3, 0.8))
        a = np.array([1.2, 0.5, -0.7])
        fixed = np.tile(a, (100000, 1))
        _, b = sample_dataset(model, 100000, rng, covariates=fixed)
        want = sigmoid(a @ model.xs)
        assert abs((b == 1).mean() - want) < 0.01

    def test_fixed_covariates_reused(self, rng):
        model = linear_model(d=3)
        cov = rng.standard_normal((50, 3))
        a, _ = sample_dataset(model, 50, rng, covariates=cov)
        assert a is cov

    @pytest.mark.parametrize("design,rho", [("identity", 0.0),
                                            ("toeplitz", 0.5),
                                            ("equicorr", 0.3)])
    def test_dataset_draws_its_covariates_first(self, design, rho):
        # a fixed design drawn with sample_covariates is the covariate half
        # of sample_dataset's draw from the same seed
        model = logistic_model(d=4, design=design, rho=rho)
        a, _ = sample_dataset(model, 300, np.random.default_rng(5))
        fixed = sample_covariates(model.design, 300, np.random.default_rng(5))
        np.testing.assert_array_equal(a, fixed)


def reference_loss(kind, t, b):
    """The loss the kernel differentiates, written independently of it."""
    if kind is ModelKind.LINEAR:
        return 0.5 * (t - b) ** 2
    return np.logaddexp(0.0, -b * t)


class TestDerivatives:
    def test_linear_zero_residual(self):
        t = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(derivatives(ModelKind.LINEAR, t, t)[0],
                                      np.zeros(3))

    def test_logistic_at_zero(self):
        # σ(0) = 1/2, so ℓ′ = −b/2
        r, _ = derivatives(ModelKind.LOGISTIC, np.zeros(2), np.array([1.0, -1.0]))
        np.testing.assert_array_equal(r, [-0.5, 0.5])

    def test_linear_second_derivative_is_one(self, rng):
        _, w = derivatives(ModelKind.LINEAR, rng.standard_normal(5),
                           rng.standard_normal(5))
        np.testing.assert_array_equal(w, np.ones(5))

    def test_logistic_second_derivative_at_zero(self):
        _, w = derivatives(ModelKind.LOGISTIC, np.zeros(2), np.array([1.0, -1.0]))
        np.testing.assert_array_equal(w, [0.25, 0.25])

    @pytest.mark.parametrize("kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_first_derivative_matches_finite_difference(self, kind, rng):
        t = 3.0 * rng.standard_normal(200)
        b = (rng.standard_normal(200) if kind is ModelKind.LINEAR
             else rng.choice([-1.0, 1.0], 200))
        h = 1e-6
        fd = (reference_loss(kind, t + h, b) - reference_loss(kind, t - h, b)) / (2 * h)
        np.testing.assert_allclose(derivatives(kind, t, b)[0], fd,
                                   rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_second_derivative_matches_first_finite_difference(self, kind, rng):
        t = 3.0 * rng.standard_normal(200)
        b = (rng.standard_normal(200) if kind is ModelKind.LINEAR
             else rng.choice([-1.0, 1.0], 200))
        h = 1e-5
        fd = (derivatives(kind, t + h, b)[0] - derivatives(kind, t - h, b)[0]) / (2 * h)
        np.testing.assert_allclose(derivatives(kind, t, b)[1], fd,
                                   rtol=1e-5, atol=1e-6)

    def test_second_derivative_is_convex_weight(self, rng):
        # ℓ″·aaᵀ is positive semidefinite: 0 <= ℓ″, and ℓ″ <= 1/4 for logistic
        t = 10.0 * rng.standard_normal(500)
        _, w = derivatives(ModelKind.LOGISTIC, t, np.sign(t))
        assert (w >= 0).all() and (w <= 0.25).all()

    @pytest.mark.parametrize("b", [1.0, -1.0])
    def test_logistic_bits_match_two_sigmoids(self, b, rng):
        # The kernel takes both sigmoids from one exp(−|t|); they are bit for
        # bit those of the two masked `sigmoid` calls it replaced, including
        # signed zeros, subnormal-scale t and t past exp's range
        t = np.concatenate([
            10.0 * rng.standard_normal(4000), rng.uniform(-800.0, 800.0, 4000),
            [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0]])
        s_pos, s_neg = sigmoid(t), sigmoid(-t)
        want_r = -b * np.where(b > 0, s_neg, s_pos)
        r, w = derivatives(ModelKind.LOGISTIC, t, np.full(t.size, b))
        np.testing.assert_array_equal(r.view(np.int64), want_r.view(np.int64))
        np.testing.assert_array_equal(w.view(np.int64),
                                      (s_pos * s_neg).view(np.int64))

    def test_extreme_arguments(self):
        t = np.array([-1e4, 1e4])
        # σ(t) = ℓ′(t, −1), the response probability sample_dataset draws
        assert list(derivatives(ModelKind.LOGISTIC, t, -1.0)[0]) == [0.0, 1.0]
        for b in (-1.0, 1.0):
            r, w = derivatives(ModelKind.LOGISTIC, t, b)
            assert np.isfinite(r).all() and np.isfinite(w).all()
            assert set(np.abs(r)) == {0.0, 1.0}


class TestOracle:
    def test_linear_identity(self):
        got = oracle_covariance(linear_model(d=4))
        np.testing.assert_allclose(got.matrix, np.eye(4), atol=1e-12)

    def test_is_a_covariance_estimate(self):
        # the same type the plug-in and batch-means sinks return
        assert isinstance(oracle_covariance(linear_model(d=2)), CovarianceEstimate)

    def test_singular_hessian_raises(self, monkeypatch):
        monkeypatch.setattr(models, "population_hessian",
                            lambda *a, **k: np.diag([1.0, 0.0]))
        with pytest.raises(OracleError, match="numerically singular"):
            oracle_covariance(logistic_model(d=2))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_logistic_truth_raises(self):
        # x*ᵀΣx* overflows to inf: every ℓ″(aᵀx*) is 0, so A is the zero
        # matrix; numpy warns of the overflow on the way
        with pytest.raises(OracleError, match="numerically singular"):
            oracle_covariance(logistic_model(d=2, x_star=(1e160, 0.0)))

    def test_negative_diagonal_raises(self, monkeypatch):
        monkeypatch.setattr(models, "population_hessian",
                            lambda *a, **k: -np.eye(2))
        with pytest.raises(OracleError, match="negative diagonal"):
            oracle_covariance(linear_model(d=2))

    def test_linear_toeplitz_tridiagonal_diag(self):
        got = oracle_covariance(linear_model(d=5, design=DesignKind.TOEPLITZ, rho=0.5))
        np.testing.assert_allclose(np.diag(got.matrix),
                                   [4 / 3, 5 / 3, 5 / 3, 5 / 3, 4 / 3], rtol=1e-12)
        # independent route: solve against the identity
        sigma = make_covariance(DesignSpec("toeplitz", 5, 0.5))
        np.testing.assert_allclose(got.matrix, np.linalg.solve(sigma, np.eye(5)),
                                   atol=1e-12)

    def test_linear_equicorr_sherman_morrison(self):
        d, rho = 5, 0.2
        got = oracle_covariance(linear_model(d=d, design=DesignKind.EQUICORR, rho=rho))
        ones = np.ones((d, d))
        sm = (np.eye(d) - rho * ones / (1 - rho + d * rho)) / (1 - rho)
        np.testing.assert_allclose(got.matrix, sm, rtol=1e-12)

    def test_logistic_zero_truth_closed_form(self):
        # at x*=0 the Hessian weight is exactly 1/4, so A = Sigma/4
        model = logistic_model(d=3, x_star=np.zeros(3))
        np.testing.assert_array_equal(oracle_covariance(model).matrix,
                                      4.0 * np.eye(3))

    def test_logistic_zero_truth_hessian_is_quarter_sigma(self):
        model = logistic_model(d=5, design=DesignKind.TOEPLITZ, rho=0.5,
                               x_star=np.zeros(5))
        want = make_covariance(model.design) / 4.0
        assert population_hessian(model).tobytes() == want.tobytes()

    @pytest.mark.parametrize("s", [1e-6, 1.0, 10.0, 1e3, 1e6])
    def test_logistic_moments_match_adaptive_quadrature(self, s):
        # c_p = E[l''(sZ) Z^p] with l''(t) = 1/(4 cosh^2(t/2)); the breaks
        # at multiples of 1/s let quad resolve the peak of width 1/s
        def c(p):
            return mpmath.quad(
                lambda z: z ** p * mpmath.exp(-z * z / 2)
                / (4 * mpmath.cosh(s * z / 2) ** 2 * mpmath.sqrt(2 * mpmath.pi)),
                [-mpmath.inf, -10 / s, -1 / s, 0, 1 / s, 10 / s, mpmath.inf])
        with mpmath.workdps(30):
            want = (float(c(0)), float(c(2)))
        got = models._logistic_moments(s)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_logistic_hessian_matches_monte_carlo_mean(self):
        # E[l''(a'x*) aa'] from 4e6 draws, with a sigmoid independent of
        # models.derivatives; every entry within 4 standard errors
        model = logistic_model(d=5, design=DesignKind.TOEPLITZ, rho=0.5,
                               x_star=3.0 * np.linspace(0.0, 1.0, 5))
        rng = np.random.default_rng(20161027)
        draws, chunk = 4_000_000, 250_000
        total, total_sq = np.zeros((5, 5)), np.zeros((5, 5))
        for _ in range(draws // chunk):
            a = sample_covariates(model.design, chunk, rng)
            p = sigmoid(a @ model.xs)
            terms = (p * (1.0 - p))[:, None, None] * a[:, :, None] * a[:, None, :]
            total += terms.sum(axis=0)
            total_sq += (terms * terms).sum(axis=0)
        mean = total / draws
        se = np.sqrt((total_sq / draws - mean ** 2) / draws)
        assert np.max(np.abs(population_hessian(model) - mean) / se) < 4.0

    def test_noiseless_linear_oracle_is_zero(self):
        # sigma = 0 is a valid linear model; its sigma^2 Sigma^-1 vanishes
        got = oracle_covariance(linear_model(d=3, sigma=0.0))
        np.testing.assert_array_equal(got.matrix, np.zeros((3, 3)))
        assert oracle_lengths(got, 100, 0.05)[0] == 0.0

    def test_oracle_interval_length_identity(self):
        oc = oracle_covariance(linear_model(d=5))
        lens = oracle_lengths(oc, 100000, 0.05)
        np.testing.assert_allclose(lens, 1.2396e-2, atol=5e-5)

    def test_oracle_interval_length_quarter_sample_scaling(self):
        oc = oracle_covariance(linear_model(d=2))
        assert oracle_lengths(oc, 4000, 0.05)[0] == pytest.approx(
            0.5 * oracle_lengths(oc, 1000, 0.05)[0])

    def test_oracle_interval_length_toeplitz_average(self):
        oc = oracle_covariance(linear_model(d=5, design=DesignKind.TOEPLITZ, rho=0.5))
        avg = np.mean(oracle_lengths(oc, 100000, 0.05))
        assert abs(avg - 1.533e-2) < 5e-5


class TestSpecValidation:
    def test_sigma_required_for_linear(self):
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.LINEAR, DesignSpec("identity", 2), (0.0, 1.0),
                      sigma=None)

    def test_sigma_rejected_for_logistic(self):
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.LOGISTIC, DesignSpec("identity", 2), (0.0, 1.0),
                      sigma=1.0)

    def test_x_star_length_mismatch(self):
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.LINEAR, DesignSpec("identity", 3), (0.0, 1.0),
                      sigma=1.0)

    def test_from_config_literal(self):
        got = ModelSpec.from_config({"kind": "linear", "design": "toeplitz",
                                     "d": 4, "rho": 0.5, "sigma": 1.0})
        assert got == linear_model(d=4, design=DesignKind.TOEPLITZ, rho=0.5)
        got = ModelSpec.from_config({"kind": "logistic", "design": "identity",
                                     "d": 2, "x_star": [0.5, -1.0]})
        assert got == logistic_model(d=2, x_star=(0.5, -1.0))

    def test_default_x_star_endpoints(self):
        xs = default_x_star(5)
        np.testing.assert_allclose(xs, [0.0, 0.25, 0.5, 0.75, 1.0])
