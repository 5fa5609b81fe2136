import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sgdinf.plugin import PluginAccumulator


def observe_rows(acc, start, a, r, w):
    """One block: covariates a (m, d), ℓ′ values r and ℓ″ values w, so the
    gradients are r·a and the Hessians w·aaᵀ."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    acc.observe(start, np.zeros_like(a), a, np.asarray(r, dtype=float),
                np.asarray(w, dtype=float))


def rank_tolerance(a_n):
    """δ = d·ε·λ_max(A_n), the floor finalize() puts under A_n's spectrum."""
    return len(a_n) * np.finfo(float).eps * np.linalg.eigvalsh(a_n).max()


class TestClamp:
    """finalize() clamps the spectrum of A_n below at its numerical-rank
    tolerance δ before inverting, and rejects an A_n with no positive
    eigenvalue."""

    def test_well_conditioned_is_unthresholded(self, rng):
        # every eigenvalue lies above δ, so Ã = A_n and the output is the
        # plain sandwich A_n⁻¹ S_n A_n⁻¹, bit for bit
        acc = PluginAccumulator(4)
        observe_rows(acc, 1, rng.standard_normal((50, 4)),
                     rng.standard_normal(50), rng.uniform(0.5, 2.0, 50))
        w, psi = np.linalg.eigh(acc.a_n)
        assert w[0] > 1e3 * rank_tolerance(acc.a_n)
        inv = (psi / w) @ psi.T
        est = inv @ acc.s_n @ inv
        assert np.array_equal(acc.finalize().matrix, 0.5 * (est + est.T))

    def test_clamps_one_eigenvalue(self):
        # A_n = diag(0, 2), S_n = I: δ = 2·ε·2, so Ã = diag(δ, 2) and the
        # estimate is diag(1/δ², 1/4)
        acc = PluginAccumulator(2)
        observe_rows(acc, 1, np.eye(2), [np.sqrt(2)] * 2, [0.0, 4.0])
        delta = 4 * np.finfo(float).eps
        np.testing.assert_allclose(acc.finalize().matrix,
                                   np.diag([delta ** -2, 0.25]), rtol=1e-12)

    def test_clamp_input_is_symmetric(self, rng):
        # the spectrum is clamped on the symmetrized Hessian mean
        acc = PluginAccumulator(4)
        observe_rows(acc, 1, rng.standard_normal((37, 4)),
                     rng.standard_normal(37), rng.uniform(-1.0, 2.0, 37))
        assert np.array_equal(acc.a_n, acc.a_n.T)

    @pytest.mark.parametrize("w", [[0.0, 0.0], [-1.0, 0.0], [-2.0, -0.5]])
    def test_rejects_nonpositive_spectrum(self, w):
        acc = PluginAccumulator(2)
        observe_rows(acc, 1, np.eye(2), [1.0, 1.0], w)
        with pytest.raises(ValueError, match="no positive eigenvalue"):
            acc.finalize()

    # 5e-324 is the smallest subnormal, and δ underflows to 0; at 1e-170,
    # δ ≈ 4e-186 is normal but 1/δ² overflows. Either estimate would be
    # infinite, so the replication fails instead.
    @pytest.mark.parametrize("d,value", [(1, 5e-324), (2, 1e-170)])
    def test_rejects_spectrum_too_small_to_invert(self, d, value):
        acc = PluginAccumulator(d)
        observe_rows(acc, 1, np.eye(d), np.ones(d), np.full(d, d * value))
        assert np.array_equal(acc.a_n, value * np.eye(d))
        with pytest.raises(ValueError, match="too small to invert"):
            acc.finalize()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.floats(-4.0, 4.0), st.just(0.0),
                              st.floats(-1e-14, 1e-14)),
                    min_size=1, max_size=6))
    def test_output_dominates_input_and_respects_floor(self, vals):
        # A diagonal A_n keeps its eigenvectors exact, so with S_n = I the
        # output diag(Ã⁻²) gives Ã's eigenvalues back to rounding, even
        # those at δ, whose inverse squares are near 1e30.
        vals = np.asarray(vals)
        assume(vals.max() > 1e-100)        # 1/δ² stays finite
        d = len(vals)
        acc = PluginAccumulator(d)
        observe_rows(acc, 1, np.eye(d), np.sqrt(d) * np.ones(d), vals)
        a_n = acc.a_n
        est = acc.finalize().matrix
        assert np.count_nonzero(est - np.diag(np.diag(est))) == 0
        out = np.diag(est) ** -0.5
        w = np.diag(a_n)
        delta = rank_tolerance(a_n)
        # thresholding only raises the spectrum, to no less than δ, and
        # leaves every eigenvalue at or above δ as it was
        assert np.all(out >= w * (1 - 1e-12))
        assert np.all(out >= delta * (1 - 1e-12))
        np.testing.assert_allclose(out, np.maximum(w, delta), rtol=1e-12)


class TestPluginAccumulator:
    def test_single_scalar_observation(self):
        # g = 2, h = 3
        acc = PluginAccumulator(1)
        observe_rows(acc, 1, [[1.0]], [2.0], [3.0])
        assert acc.a_n[0, 0] == 3.0
        assert acc.s_n[0, 0] == 4.0

    def test_two_observations_hand_arithmetic(self):
        # g = e1, e2 and h = 2·e1e1ᵀ, 2·e2e2ᵀ: A_n = I, S_n = I/2
        acc = PluginAccumulator(2)
        observe_rows(acc, 1, np.eye(2), [1.0, 1.0], [2.0, 2.0])
        np.testing.assert_allclose(acc.a_n, np.eye(2))
        np.testing.assert_allclose(acc.s_n, np.eye(2) / 2)

    def test_identity_sandwich(self):
        # the same pair twice, in two blocks: A_n = I, S_n = I/2
        acc = PluginAccumulator(2)
        observe_rows(acc, 1, [[1.0, 0.0]], [1.0], [2.0])
        observe_rows(acc, 2, [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
                     [1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        est = acc.finalize()
        np.testing.assert_allclose(est.matrix, np.eye(2) / 2, atol=1e-12)

    def test_scalar_sandwich_a_twice_identity(self):
        # A_n = 2I, S_n = I  ->  estimate = I/4
        # g = √2·e1, √2·e2 and h = 4·e1e1ᵀ, 4·e2e2ᵀ
        acc = PluginAccumulator(2)
        observe_rows(acc, 1, np.eye(2), [np.sqrt(2)] * 2, [4.0, 4.0])
        est = acc.finalize()
        np.testing.assert_allclose(est.matrix, np.eye(2) / 4, atol=1e-12)

    def test_dimension_mismatch(self):
        acc = PluginAccumulator(3)
        with pytest.raises(ValueError, match=r"a \(2, 2\), r \(2,\), w \(2,\); "
                                             r"need \(2, 3\), \(2,\), \(2,\)"):
            observe_rows(acc, 1, np.zeros((2, 2)), [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            observe_rows(acc, 1, np.zeros((2, 3)), [1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            observe_rows(acc, 1, np.zeros((2, 3)), [1.0, 1.0], [1.0])

    def test_requires_hessian(self):
        acc = PluginAccumulator(2)
        with pytest.raises(ValueError):
            acc.observe(1, np.zeros((1, 2)), np.ones((1, 2)), np.ones(1), None)

    def test_finalize_empty_rejected(self):
        with pytest.raises(ValueError):
            PluginAccumulator(2).finalize()

    def test_streaming_equals_trace_replay(self, rng):
        # dense recomputation from a stored trace is the oracle
        d, n = 5, 1000
        acc = PluginAccumulator(d)
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
        w = np.maximum(w, d * np.finfo(float).eps * w[-1])
        inv = (psi / w) @ psi.T
        expected = inv @ s_n @ inv
        assert np.abs(est.matrix - expected).max() < 1e-10

    def test_inverse_operator_norm_bound(self, rng):
        # ||Ã⁻¹|| <= 1/δ even when A_n is singular: 3 rows span 3 of 5
        # dimensions, so two eigenvalues of A_n are rounding noise
        d = 5
        acc = PluginAccumulator(d)
        observe_rows(acc, 1, rng.standard_normal((3, d)),
                     rng.standard_normal(3), np.ones(3))
        assert np.linalg.matrix_rank(acc.a_n) == 3
        est = acc.finalize()
        bound = np.linalg.eigvalsh(acc.s_n).max() / rank_tolerance(acc.a_n) ** 2
        assert np.linalg.eigvalsh(est.matrix).max() <= bound * (1 + 1e-9)

    def test_output_symmetric_psd(self, rng):
        d = 5
        acc = PluginAccumulator(d)
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
