import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdinf.plugin import PluginAccumulator


def observe_rows(acc, start, a, r, w):
    """One block: covariates a (m, d), ℓ′ values r and ℓ″ values w, so the
    gradients are r·a and the Hessians w·aaᵀ."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    acc.observe(start, np.zeros_like(a), a, np.asarray(r, dtype=float),
                np.asarray(w, dtype=float))


class TestClamp:
    """finalize() clamps the spectrum of A_n below at λ_A/2 before inverting."""

    @staticmethod
    def clamped(a_n, lam):
        """Ã for a plug-in whose S_n = I and Hessian mean is a_n: rows
        a_i = √d·q_i along the eigenvectors q_i of a_n, with weights w_i equal
        to its eigenvalues and r_i = 1. Then finalize() returns Ã⁻², whose
        inverse square root is Ã."""
        d = len(a_n)
        vals, vecs = np.linalg.eigh(a_n)
        acc = PluginAccumulator(d, lambda_a=lam)
        observe_rows(acc, 1, np.sqrt(d) * vecs.T, np.ones(d), vals)
        est, basis = np.linalg.eigh(acc.finalize().matrix)
        return (basis / np.sqrt(est)) @ basis.T

    def test_clamps_one_eigenvalue(self):
        # A_n = diag(0.1, 2), S_n = I, λ_A = 1: Ã = diag(0.5, 2) -> diag(4, 1/4)
        acc = PluginAccumulator(2, lambda_a=1.0)
        observe_rows(acc, 1, np.eye(2), [np.sqrt(2)] * 2, [0.2, 4.0])
        np.testing.assert_allclose(acc.finalize().matrix, np.diag([4.0, 0.25]),
                                   atol=1e-12)

    def test_clamp_input_is_symmetric(self, rng):
        # the spectrum is clamped on the symmetrized Hessian mean
        acc = PluginAccumulator(4, lambda_a=1.0)
        observe_rows(acc, 1, rng.standard_normal((37, 4)),
                     rng.standard_normal(37), rng.uniform(-1.0, 2.0, 37))
        assert np.array_equal(acc.a_n, acc.a_n.T)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            PluginAccumulator(2, lambda_a=0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.1, 4.0))
    def test_output_dominates_input_and_respects_floor(self, seed, lam):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((5, 5))
        a = 0.5 * (m + m.T)
        out = self.clamped(a, lam)
        # thresholding only raises the spectrum
        assert np.linalg.eigvalsh(out - a).min() >= -1e-9
        assert np.linalg.eigvalsh(out).min() >= lam / 2 - 1e-9


class TestPluginAccumulator:
    def test_single_scalar_observation(self):
        # g = 2, h = 3
        acc = PluginAccumulator(1, lambda_a=1.0)
        observe_rows(acc, 1, [[1.0]], [2.0], [3.0])
        assert acc.a_n[0, 0] == 3.0
        assert acc.s_n[0, 0] == 4.0

    def test_two_observations_hand_arithmetic(self):
        # g = e1, e2 and h = 2·e1e1ᵀ, 2·e2e2ᵀ: A_n = I, S_n = I/2
        acc = PluginAccumulator(2, lambda_a=1.0)
        observe_rows(acc, 1, np.eye(2), [1.0, 1.0], [2.0, 2.0])
        np.testing.assert_allclose(acc.a_n, np.eye(2))
        np.testing.assert_allclose(acc.s_n, np.eye(2) / 2)

    def test_identity_sandwich(self):
        # the same pair twice, in two blocks: A_n = I, S_n = I/2
        acc = PluginAccumulator(2, lambda_a=1.0)
        observe_rows(acc, 1, [[1.0, 0.0]], [1.0], [2.0])
        observe_rows(acc, 2, [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
                     [1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        est = acc.finalize()
        np.testing.assert_allclose(est.matrix, np.eye(2) / 2, atol=1e-12)

    def test_scalar_sandwich_a_twice_identity(self):
        # A_n = 2I, S_n = I  ->  estimate = I/4
        # g = √2·e1, √2·e2 and h = 4·e1e1ᵀ, 4·e2e2ᵀ
        acc = PluginAccumulator(2, lambda_a=1.0)
        observe_rows(acc, 1, np.eye(2), [np.sqrt(2)] * 2, [4.0, 4.0])
        est = acc.finalize()
        np.testing.assert_allclose(est.matrix, np.eye(2) / 4, atol=1e-12)

    def test_dimension_mismatch(self):
        acc = PluginAccumulator(3, lambda_a=1.0)
        with pytest.raises(ValueError):
            observe_rows(acc, 1, np.zeros((2, 2)), [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            observe_rows(acc, 1, np.zeros((2, 3)), [1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            observe_rows(acc, 1, np.zeros((2, 3)), [1.0, 1.0], [1.0])

    def test_requires_hessian(self):
        acc = PluginAccumulator(2, lambda_a=1.0)
        with pytest.raises(ValueError):
            acc.observe(1, np.zeros((1, 2)), np.ones((1, 2)), np.ones(1), None)

    def test_finalize_empty_rejected(self):
        with pytest.raises(ValueError):
            PluginAccumulator(2, lambda_a=1.0).finalize()

    def test_streaming_equals_trace_replay(self, rng):
        # dense recomputation from a stored trace is the oracle
        d, n = 5, 1000
        acc = PluginAccumulator(d, lambda_a=0.5)
        a = rng.standard_normal((n, d))
        r = rng.standard_normal(n)
        w = rng.uniform(-1.0, 2.0, n)      # ℓ″ of a non-convex loss can be < 0
        for start, stop in ((0, 1), (1, 337), (337, 338), (338, n)):
            observe_rows(acc, start + 1, a[start:stop], r[start:stop], w[start:stop])
        est = acc.finalize()
        grads = [r[i] * a[i] for i in range(n)]
        hessians = [w[i] * np.outer(a[i], a[i]) for i in range(n)]

        a_n = np.mean(hessians, axis=0)
        a_n = 0.5 * (a_n + a_n.T)
        s_n = np.mean([np.outer(g, g) for g in grads], axis=0)
        w, psi = np.linalg.eigh(a_n)
        w = np.maximum(w, 0.25)
        inv = (psi / w) @ psi.T
        expected = inv @ s_n @ inv
        assert np.abs(est.matrix - expected).max() < 1e-10

    def test_inverse_operator_norm_bound(self, rng):
        # ||A~^-1|| <= 2/lambda_A even when the raw mean is near-singular
        d = 4
        lam = 0.8
        acc = PluginAccumulator(d, lambda_a=lam)
        # w = 1e-6: a nearly singular Hessian mean
        observe_rows(acc, 1, rng.standard_normal((99, d)),
                     rng.standard_normal(99), np.full(99, 1e-6))
        est = acc.finalize()
        s_n = acc.s_n
        bound = (2 / lam) ** 2 * np.linalg.eigvalsh(s_n).max()
        assert np.linalg.eigvalsh(est.matrix).max() <= bound + 1e-10

    def test_output_symmetric_psd(self, rng):
        d = 5
        acc = PluginAccumulator(d, lambda_a=1.0)
        observe_rows(acc, 1, rng.standard_normal((299, d)),
                     rng.standard_normal(299), np.ones(299))
        est = acc.finalize()
        assert np.abs(est.matrix - est.matrix.T).max() < 1e-14
        assert np.linalg.eigvalsh(est.matrix).min() >= -1e-12


class TestMatrixPerturbationBound:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_inverse_perturbation_inequality(self, seed):
        # ||B^-1 - A^-1|| <= 2 ||E|| ||A^-1||^2 whenever ||A^-1 E|| < 1/2
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 8))
        m = rng.standard_normal((d, d))
        a = m @ m.T + d * np.eye(d)
        a_inv = np.linalg.inv(a)
        e = rng.standard_normal((d, d))
        e *= 0.4 / (np.linalg.norm(a_inv, 2) * np.linalg.norm(e, 2))
        assert np.linalg.norm(a_inv @ e, 2) < 0.5
        b_inv = np.linalg.inv(a + e)
        lhs = np.linalg.norm(b_inv - a_inv, 2)
        rhs = 2 * np.linalg.norm(e, 2) * np.linalg.norm(a_inv, 2) ** 2
        assert lhs <= rhs + 1e-10
