import numpy as np
import pytest

from sgdinf import models
from sgdinf.models import (
    DataPoint,
    DesignKind,
    DesignSpec,
    InvalidDesignError,
    ModelKind,
    ModelSpec,
    default_x_star,
    grad,
    hessian,
    loss,
    make_covariance,
    oracle_ci_length,
    oracle_covariance,
    sample_point,
    sigmoid,
)


def linear_model(d=5, design=DesignKind.IDENTITY, rho=0.0, sigma=1.0, x_star=None):
    spec = DesignSpec(design, d, rho)
    xs = default_x_star(d) if x_star is None else x_star
    return ModelSpec(ModelKind.LINEAR, spec, tuple(xs), sigma=sigma)


def logistic_model(d=5, design=DesignKind.IDENTITY, rho=0.0, x_star=None):
    spec = DesignSpec(design, d, rho)
    xs = default_x_star(d) if x_star is None else x_star
    return ModelSpec(ModelKind.LOGISTIC, spec, tuple(xs))


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
    def test_linear_zero_noise_response_exact(self):
        # zero-noise degenerate case: b must equal a.x* exactly
        model = linear_model(d=3, sigma=0.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = sample_point(model, rng)
            assert p.b == p.a @ model.xs

    def test_logistic_labels_are_plus_minus_one(self, rng):
        model = logistic_model(d=4)
        labels = {sample_point(model, rng).b for _ in range(200)}
        assert labels <= {-1.0, 1.0}

    def test_logistic_symmetric_at_zero_truth(self, rng):
        model = logistic_model(d=3, x_star=np.zeros(3))
        b = np.array([sample_point(model, rng).b for _ in range(20000)])
        assert abs((b == 1).mean() - 0.5) < 0.02

    def test_identity_design_empirical_covariance(self, rng):
        model = linear_model(d=4)
        a, _ = models.sample_dataset(model, 100000, rng)
        emp = a.T @ a / a.shape[0]
        assert np.abs(emp - np.eye(4)).max() < 0.05

    def test_toeplitz_design_empirical_covariance(self, rng):
        model = linear_model(d=4, design=DesignKind.TOEPLITZ, rho=0.5)
        a, _ = models.sample_dataset(model, 100000, rng)
        emp = a.T @ a / a.shape[0]
        assert np.abs(emp - make_covariance(model.design)).max() < 0.05

    def test_logistic_conditional_probability_at_fixed_a(self, rng):
        # empirical P(b=+1|a) over 1e5 draws at one fixed covariate
        model = logistic_model(d=3, x_star=(0.4, -0.3, 0.8))
        a = np.array([1.2, 0.5, -0.7])
        fixed = np.tile(a, (100000, 1))
        _, b = models.sample_dataset(model, 100000, rng, covariates=fixed)
        want = sigmoid(a @ model.xs)
        assert abs((b == 1).mean() - want) < 0.01

    def test_fixed_covariates_reused(self, rng):
        model = linear_model(d=3)
        cov = rng.standard_normal((50, 3))
        a, _ = models.sample_dataset(model, 50, rng, covariates=cov)
        assert a is cov


class TestGradHessian:
    def test_linear_zero_residual(self):
        model = linear_model(d=3, sigma=0.0)
        a = np.array([1.0, -2.0, 0.5])
        p = DataPoint(a=a, b=float(a @ model.xs))
        np.testing.assert_array_equal(grad(model, model.xs, p), np.zeros(3))

    def test_logistic_at_zero(self):
        model = logistic_model(d=2, x_star=(1.0, 0.0))
        p = DataPoint(a=np.array([1.0, 0.0]), b=1.0)
        np.testing.assert_allclose(grad(model, np.zeros(2), p), [-0.5, 0.0])

    def test_linear_hessian_outer_product(self):
        model = linear_model(d=2)
        p = DataPoint(a=np.array([1.0, 2.0]), b=0.3)
        np.testing.assert_array_equal(hessian(model, np.zeros(2), p),
                                      [[1.0, 2.0], [2.0, 4.0]])

    def test_logistic_hessian_at_zero(self):
        model = logistic_model(d=2, x_star=(1.0, 1.0))
        a = np.array([0.7, -1.1])
        p = DataPoint(a=a, b=-1.0)
        np.testing.assert_allclose(hessian(model, np.zeros(2), p),
                                   np.outer(a, a) / 4.0)

    @pytest.mark.parametrize("kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_grad_matches_finite_difference(self, kind, rng):
        d = 4
        model = linear_model(d) if kind is ModelKind.LINEAR else logistic_model(d)
        for _ in range(20):
            x = rng.standard_normal(d)
            p = sample_point(model, rng)
            g = grad(model, x, p)
            fd = np.empty(d)
            h = 1e-6
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd[j] = (loss(model, x + e, p) - loss(model, x - e, p)) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_hessian_matches_grad_finite_difference(self, kind, rng):
        d = 3
        model = linear_model(d) if kind is ModelKind.LINEAR else logistic_model(d)
        for _ in range(10):
            x = rng.standard_normal(d)
            p = sample_point(model, rng)
            hess = hessian(model, x, p)
            fd = np.empty((d, d))
            h = 1e-5
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd[:, j] = (grad(model, x + e, p) - grad(model, x - e, p)) / (2 * h)
            np.testing.assert_allclose(hess, fd, rtol=1e-5, atol=1e-6)

    def test_hessian_symmetric_psd(self, rng):
        for kind in (ModelKind.LINEAR, ModelKind.LOGISTIC):
            model = linear_model(5) if kind is ModelKind.LINEAR else logistic_model(5)
            for _ in range(10):
                p = sample_point(model, rng)
                hess = hessian(model, rng.standard_normal(5), p)
                assert np.array_equal(hess, hess.T)
                assert np.linalg.eigvalsh(hess).min() >= -1e-10

    def test_sigmoid_extreme_arguments(self):
        assert sigmoid(10_000.0) == 1.0
        assert sigmoid(-10_000.0) == 0.0
        assert np.isfinite(grad(logistic_model(1, x_star=(1e4,)),
                                np.array([1e4]),
                                DataPoint(np.array([1.0]), -1.0))).all()


class TestOracle:
    def test_linear_identity(self):
        got = oracle_covariance(linear_model(d=4))
        np.testing.assert_allclose(got.matrix, np.eye(4), atol=1e-12)
        assert got.method is models.OracleMethod.CLOSED_FORM

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
        got = oracle_covariance(model, mc_samples=400_000,
                                rng=np.random.default_rng(7))
        np.testing.assert_allclose(got.matrix, 4.0 * np.eye(3), atol=0.06)
        assert got.method is models.OracleMethod.MONTE_CARLO_HESSIAN

    def test_noiseless_linear_oracle_is_zero(self):
        # sigma = 0 is a valid linear model; its sigma^2 Sigma^-1 vanishes
        got = oracle_covariance(linear_model(d=3, sigma=0.0))
        np.testing.assert_array_equal(got.matrix, np.zeros((3, 3)))
        assert oracle_ci_length(got, 0, 100, 0.05) == 0.0

    def test_oracle_ci_length_identity(self):
        oc = oracle_covariance(linear_model(d=5))
        lens = [oracle_ci_length(oc, j, 100000, 0.05) for j in range(5)]
        np.testing.assert_allclose(lens, 1.2396e-2, atol=5e-5)

    def test_oracle_ci_length_quarter_sample_scaling(self):
        oc = oracle_covariance(linear_model(d=2))
        assert oracle_ci_length(oc, 0, 4000, 0.05) == pytest.approx(
            0.5 * oracle_ci_length(oc, 0, 1000, 0.05))

    def test_oracle_ci_length_toeplitz_average(self):
        oc = oracle_covariance(linear_model(d=5, design=DesignKind.TOEPLITZ, rho=0.5))
        avg = np.mean([oracle_ci_length(oc, j, 100000, 0.05) for j in range(5)])
        assert abs(avg - 1.533e-2) < 5e-5


class TestSpecValidation:
    def test_kappa(self):
        assert linear_model(3).kappa == 2
        assert logistic_model(3).kappa == 1

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

    def test_config_round_trip(self):
        model = linear_model(d=4, design=DesignKind.TOEPLITZ, rho=0.5)
        again = ModelSpec.from_config(model.to_config())
        assert again == model

    def test_default_x_star_endpoints(self):
        xs = default_x_star(5)
        np.testing.assert_allclose(xs, [0.0, 0.25, 0.5, 0.75, 1.0])
