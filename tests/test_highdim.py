import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdinf import highdim
from sgdinf.highdim import (
    DegenerateResidualError,
    RadarConfig,
    RadarConfigError,
    build_omega,
    debias,
    epoch_plan,
    fit_debiased_lasso,
    highdim_ci,
    lp_geometry,
    nodewise_fit_all,
    pball_norm,
    radar_lasso,
    radar_solve,
    scale_into_ball,
    tau_hat,
)


def sparse_problem(rng, n, d, coefs, sigma=1.0):
    x_star = np.zeros(d)
    x_star[:len(coefs)] = coefs
    design = rng.standard_normal((n, d))
    b = design @ x_star + sigma * rng.standard_normal(n)
    return design, b, x_star


class TestEpochPlan:
    def test_radius_decay_exact(self):
        cfg = RadarConfig(r1=10.0, s_bound=2, total_n=500)
        plan = epoch_plan(cfg, 50)
        for prev, cur in zip(plan, plan[1:]):
            assert cur.radius / prev.radius == pytest.approx(2 ** -0.5, rel=1e-15)

    def test_budget_fully_consumed(self):
        cfg = RadarConfig(r1=5.0, s_bound=2, total_n=777)
        assert sum(e.length for e in epoch_plan(cfg, 30)) == 777

    def test_budget_too_small(self):
        with pytest.raises(RadarConfigError):
            epoch_plan(RadarConfig(r1=1.0, s_bound=1, total_n=3, t_min=8), 10)

    def test_radius_whose_square_overflows_gets_t_min(self):
        # (1e200)^2 raised OverflowError; s^2*log(d)/R^2 underflows to 0
        plan = epoch_plan(RadarConfig(r1=1e200, s_bound=1, total_n=100), 10)
        assert [e.length for e in plan] == [8] * 11 + [12]

    @pytest.mark.parametrize("r1", [1e-200, 1e-160])
    def test_radius_whose_square_underflows_needs_too_much(self, r1):
        # R^2 = 0 raised ZeroDivisionError, a subnormal R^2 gave ceil(inf)
        with pytest.raises(RadarConfigError, match="length inf"):
            epoch_plan(RadarConfig(r1=r1, s_bound=1, total_n=100), 10)

    @pytest.mark.parametrize("r1,length,shown", [
        (1.0, 8, "8"), (1e-7, 230258509299405, "230258509299405"),
        (3e-8, 2558427881104496, "2.56e+15"), (1e-200, math.inf, "inf")])
    def test_uncovered_epoch_carries_its_length(self, r1, length, shown):
        # the harness reads .length to name the key that set it; a length
        # over 15 digits printed as all its digits, up to 309 of them
        with pytest.raises(RadarConfigError) as err:
            epoch_plan(RadarConfig(r1=r1, s_bound=1, total_n=3), 10)
        assert err.value.length == length
        assert str(err.value) == f"budget 3 cannot cover one epoch of length {shown}"

    @pytest.mark.parametrize("r1", [math.nan, math.inf, -1.0])
    def test_radius_must_be_finite_and_nonnegative(self, r1):
        with pytest.raises(RadarConfigError):
            RadarConfig(r1=r1, s_bound=1, total_n=100)

    def test_length_grows_as_radius_shrinks(self):
        cfg = RadarConfig(r1=4.0, s_bound=3, total_n=100_000, t_min=8)
        plan = epoch_plan(cfg, 100)
        lengths = [e.length for e in plan]
        assert lengths == sorted(lengths)

    def test_geometry_exponents(self):
        p, q = lp_geometry(100)
        assert q == pytest.approx(2 * np.log(100))
        assert p == pytest.approx(q / (q - 1))
        # tiny dimensions clamp at the Euclidean case
        p2, q2 = lp_geometry(2)
        assert (p2, q2) == (2.0, 2.0)


def ball_row(kind, radius, d, p, rng):
    """A row of length d placed against the l1 and p balls of `radius`."""
    v = rng.standard_normal(d)
    if kind == "sparse":
        v *= rng.random(d) < 0.1
    if kind == "zero" or not v.any():
        return np.zeros(d)
    if kind == "one_sparse_at_r":
        row = np.zeros(d)
        row[rng.integers(d)] = radius * rng.choice([-1.0, 1.0])
        return row
    if kind == "nearly_one_sparse":
        # all but a sliver of the l1 mass on one entry
        i, j = rng.choice(d, 2, replace=False)
        row = np.zeros(d)
        row[j] = radius * 10.0 ** -rng.uniform(0.0, 17.0)
        row[i] = radius - row[j]
        return row
    if kind == "l1_at_r":
        return v * (radius / np.abs(v).sum())
    if kind == "p_at_r":
        return v * (radius / pball_norm(v, p))
    if kind == "far_outside":
        return v * (1e3 * radius / np.abs(v).sum())
    return v * 10.0 ** rng.uniform(-3.0, 2.0)


class TestBallScaling:
    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(2, 500), seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.sampled_from(
               ["dense", "sparse", "zero", "one_sparse_at_r", "nearly_one_sparse",
                "l1_at_r", "p_at_r", "far_outside"]), min_size=1, max_size=8))
    def test_certified_scaling_equals_the_ungated_formula(self, d, seed, kinds):
        # rows with |u|_1 <= R skip the p-norm; every row must come out
        # bit for bit as the unconditional projection leaves it
        p, _ = lp_geometry(d)
        rng = np.random.default_rng(seed)
        radii = 10.0 ** rng.uniform(-3.0, 2.0, len(kinds))
        u = np.array([ball_row(kind, r, d, p, rng) for kind, r in zip(kinds, radii)])
        with np.errstate(divide="ignore"):
            want = u * np.minimum(1.0, radii / pball_norm(u, p))[:, None]
        got = u.copy()
        scale_into_ball(got, radii, p)
        assert got.tobytes() == want.tobytes()


class TestRadarSolve:
    def test_noiseless_two_dimensional_recovery(self, rng):
        design, b, x_star = sparse_problem(rng, 2000, 2, [1.0], sigma=0.0)
        cfg = RadarConfig(r1=1.1, s_bound=1, total_n=2000)
        x_hat = radar_lasso(design, b, cfg)
        assert np.abs(x_hat - x_star).sum() < 0.2

    @pytest.mark.parametrize("kwargs", [
        {"r1_rows": [8.0]}, {"s_rows": np.ones(5)}, {"fixed": [0, 1, 2]},
        {"r1_rows": np.ones((4, 1))}], ids=["r1_rows", "s_rows", "fixed", "r1_rows-2d"])
    def test_row_arguments_need_one_entry_per_target(self, rng, kwargs):
        # r1_rows=[8.0] broadcast against 4 targets and left rows 1-3 zero
        design = rng.standard_normal((200, 6))
        cfg = RadarConfig(r1=1.5, s_bound=2, total_n=200)
        name, rows = next(iter(kwargs.items()))
        with pytest.raises(ValueError, match=re.escape(
                f"{name} has shape {np.shape(rows)}, targets need (4,)")):
            radar_solve(design, design[:, :4], cfg, **kwargs)

    def test_degenerate_radius_pins_origin(self, rng):
        design, b, _ = sparse_problem(rng, 200, 3, [0.0], sigma=1.0)
        cfg = RadarConfig(r1=0.0, s_bound=1, total_n=200)
        x_hat = radar_lasso(design, b, cfg)
        np.testing.assert_array_equal(x_hat, np.zeros(3))

    def test_feasibility_of_every_iterate(self, rng, monkeypatch):
        # r1 = 2 is below |x*|_1 = 5, so the ball binds: some ISTA offsets
        # leave it and are scaled back onto its sphere
        design, b, _ = sparse_problem(rng, 400, 20, [3.0, -2.0], sigma=1.0)
        cfg = RadarConfig(r1=2.0, s_bound=2, total_n=400)
        p, _ = lp_geometry(20)
        outside = []

        def recording_scale(u, radii, p):
            outside.append(bool((np.abs(u).sum(axis=1) > radii).any()))
            scale_into_ball(u, radii, p)

        monkeypatch.setattr(highdim, "scale_into_ball", recording_scale)
        gaps = []

        def on_step(epoch, x, y):
            gaps.append(pball_norm(x - y, p) - epoch.radius)

        radar_lasso(design, b, cfg, on_step=on_step)
        assert any(outside)
        gaps = np.array(gaps)
        assert gaps.max() <= 1e-9
        assert (np.abs(gaps) <= 1e-9).any()

    def test_epoch_error_decays(self, rng):
        design, b, x_star = sparse_problem(rng, 10_000, 500,
                                           [5.0, -3.0, 2.0], sigma=1.0)
        # epoch floor sized for the dimension: early epochs need enough
        # samples for the coordinate-detection signal to clear the noise
        cfg = RadarConfig(r1=1.1 * np.abs(x_star).sum(), s_bound=3,
                          total_n=10_000, t_min=16)
        # an epoch's last step lands on its new center
        last = {}

        def on_step(epoch, x, y):
            last[epoch.index] = np.abs(x - x_star).sum()

        radar_lasso(design, b, cfg, on_step=on_step)
        errs = [last[i] for i in sorted(last)]
        assert len(errs) >= 3
        # decay across epochs, allowing small stochastic wobble per step
        assert all(b <= a * 1.05 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.25 * errs[0]

    def test_budget_exceeding_stream_rejected(self, rng):
        design, b, _ = sparse_problem(rng, 50, 4, [1.0])
        with pytest.raises(RadarConfigError):
            radar_solve(design, b[:, None],
                        RadarConfig(r1=1.0, s_bound=1, total_n=60))

    def test_convergence_rate_trend(self, rng):
        # l1 error at n=4000 improves on n=1000 by a sqrt(n)-compatible factor
        ratios = []
        for seed in range(30):
            local = np.random.default_rng(seed + 1000)
            errs = {}
            for n in (1000, 4000):
                design, b, x_star = sparse_problem(local, n, 100,
                                                   [8.0, -5.0, 3.0], sigma=1.0)
                cfg = RadarConfig(r1=1.1 * np.abs(x_star).sum(), s_bound=3,
                                  total_n=n)
                x_hat = radar_lasso(design, b, cfg)
                errs[n] = np.abs(x_hat - x_star).sum()
            ratios.append(errs[1000] / errs[4000])
        assert 1.4 <= np.median(ratios) <= 3.5


class TestNodewise:
    def test_identity_design_near_zero(self, rng):
        design = rng.standard_normal((100, 20))
        cfg = RadarConfig(r1=1.0, s_bound=1, total_n=100)
        gamma = nodewise_fit_all(design, cfg)[0]
        assert gamma.shape == (19,)
        assert np.abs(gamma).sum() < 0.15

    @pytest.mark.parametrize("j,target", [(1, [0.4, 0.4]), (0, [0.5, 0.0])])
    def test_toeplitz_targets(self, j, target, rng):
        sigma = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        # independent oracle for the target: invert the 3x3 covariance
        omega = np.linalg.inv(sigma)
        expect = -np.delete(omega[j], j) / omega[j, j]
        np.testing.assert_allclose(expect, target, atol=1e-12)

        factor = np.linalg.cholesky(sigma)
        design = rng.standard_normal((4000, 3)) @ factor.T
        cfg = RadarConfig(r1=1.0, s_bound=2, total_n=4000)
        gamma = nodewise_fit_all(design, cfg)[j]
        np.testing.assert_allclose(gamma, target, atol=0.1)

    def test_all_rows_match_single_fits(self, rng):
        design = rng.standard_normal((300, 6))
        cfg = RadarConfig(r1=1.5, s_bound=2, total_n=300)
        gammas = nodewise_fit_all(design, cfg)
        for j in range(6):
            # column j regressed on the others, solved alone
            single = np.delete(radar_solve(design, design[:, [j]], cfg, fixed=[j])[0], j)
            np.testing.assert_allclose(gammas[j], single, atol=1e-6)

    def test_pinned_rows_stay_zero(self, rng):
        design = rng.standard_normal((100, 5))
        cfg = RadarConfig(r1=0.0, s_bound=1, total_n=100)
        gammas = nodewise_fit_all(design, cfg, r1_rows=np.zeros(5))
        assert np.array_equal(gammas, np.zeros((5, 4)))

    def test_every_live_row_takes_every_sweep(self, rng):
        # Toeplitz rows converge within an epoch's sweeps; each live row
        # still takes all of them, and a row of radius 0 takes none
        d = 10
        idx = np.arange(d)
        factor = np.linalg.cholesky(0.5 ** np.abs(idx[:, None] - idx[None, :]))
        design = rng.standard_normal((400, d)) @ factor.T
        cfg = RadarConfig(r1=1.0, s_bound=2, total_n=400)
        r1_rows = np.full(d, 1.0)
        r1_rows[[2, 7]] = 0.0
        seen = []

        def on_step(epoch, x, y):
            seen.append((epoch.index, x.shape, y.shape))

        rows = radar_solve(design, design, cfg, r1_rows, fixed=idx, on_step=on_step)
        assert [i for i, _, _ in seen] == [
            ep.index for ep in epoch_plan(cfg, d - 1)
            for _ in range(highdim.INNER_ITERS)]
        assert all(xs == cs == (d - 2, d) for _, xs, cs in seen)
        assert not rows[[2, 7]].any()

    def test_identity_rows_never_iterate(self, rng, monkeypatch):
        # zero radii (the identity design's true gammas) skip the epoch solves
        def no_eigen(*args):
            raise AssertionError("a pinned row was iterated")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigen)
        design = rng.standard_normal((100, 8))
        cfg = RadarConfig(r1=0.0, s_bound=1, total_n=100)
        assert not nodewise_fit_all(design, cfg, r1_rows=np.zeros(8)).any()


class TestBatchedSolver:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           subset=st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True),
           hold_zero=st.booleans())
    def test_rows_do_not_depend_on_the_batch(self, seed, subset, hold_zero):
        # any subset of rows solved together equals each row solved alone
        rng = np.random.default_rng(seed)
        n, d, k = 240, 7, 6
        design = rng.standard_normal((n, d)) @ rng.uniform(-0.5, 1.0, (d, d))
        coefs = rng.standard_normal((d, k)) * (rng.random((d, k)) < 0.4)
        targets = design @ coefs + rng.standard_normal((n, k))
        r1 = rng.uniform(0.0, 4.0, k) * (rng.random(k) < 0.85)
        s = rng.integers(0, 4, k)
        fixed = rng.integers(0, d, k) if hold_zero else None
        cfg = RadarConfig(r1=4.0, s_bound=3, total_n=n)

        def solve(rows):
            return radar_solve(design, targets[:, rows], cfg, r1[rows], s[rows],
                               None if fixed is None else fixed[rows])

        rows = sorted(subset)
        together = solve(rows)
        for i, j in enumerate(rows):
            np.testing.assert_allclose(together[i], solve([j])[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(together, solve(list(range(k)))[rows],
                                   rtol=0, atol=1e-12)
        if fixed is not None:
            assert not together[np.arange(len(rows)), fixed[rows]].any()


def textbook_sweeps(design, targets, cfg, r1_rows, s_rows, fixed):
    """(epoch index, x, center) after every sweep of plain ISTA on each
    epoch's G and c: a gradient step of size 1/lambda_max(G), a soft
    threshold, the held coordinate zeroed, then the radial p-ball scaling.
    Also returns how many sweeps scaled some row back into its ball."""
    k, d = len(r1_rows), design.shape[1]
    dim = d if fixed is None else d - 1
    p, q = lp_geometry(dim)
    radii = np.asarray(r1_rows, dtype=float)
    s = np.maximum(np.asarray(s_rows, dtype=float), 1.0)
    x, seen, steps, scaled = np.zeros((k, d)), 0, [], 0
    for ep in epoch_plan(cfg, dim):
        seen += ep.length
        head = design[:seen]
        gram, cross = head.T @ head / seen, head.T @ targets[:seen] / seen
        lip = np.linalg.eigvalsh(gram).max()
        lam = np.sqrt(radii * np.sqrt(q / 2) / (s * np.sqrt(seen)))
        center = x
        for _ in range(highdim.INNER_ITERS):
            z = x - (x @ gram - cross.T) / lip
            u = np.sign(z) * np.maximum(np.abs(z) - lam[:, None] / lip, 0.0)
            if fixed is not None:
                u[np.arange(k), fixed] = 0.0
            u -= center
            with np.errstate(divide="ignore"):
                factor = np.minimum(1.0, radii / pball_norm(u, p))
            scaled += bool((factor < 1.0).any())
            x = center + u * factor[:, None]
            steps.append((ep.index, x, center))
        radii = radii / np.sqrt(2)
    return steps, scaled


class TestReferenceSweep:
    @pytest.mark.parametrize("hold_zero", [False, True], ids=["free", "fixed"])
    @pytest.mark.parametrize("d", [10, 100])
    def test_every_sweep_matches_textbook_ista(self, d, hold_zero, rng):
        # the solver folds the gradient step into one affine map per epoch,
        # holds a coordinate at zero through an infinite threshold and takes
        # lambda_max from DD' while fewer than d samples are seen
        n, k = d + 40, 4
        idx = np.arange(d)
        factor = np.linalg.cholesky(0.5 ** np.abs(idx[:, None] - idx[None, :]))
        design = rng.standard_normal((n, d)) @ factor.T
        coefs = np.zeros((d, k))
        coefs[:3] = rng.uniform(-4.0, 4.0, (3, k))
        targets = design @ coefs + rng.standard_normal((n, k))
        r1_rows = np.array([1.0, 4.0, 8.0, 16.0])
        s_rows = np.array([1, 2, 3, 0])
        fixed = rng.integers(0, d, k) if hold_zero else None
        cfg = RadarConfig(r1=16.0, s_bound=3, total_n=n)
        seen = np.cumsum([ep.length for ep in epoch_plan(cfg, d - hold_zero)])
        assert seen.min() < d <= seen.max()

        got = []
        radar_solve(design, targets, cfg, r1_rows, s_rows, fixed,
                    on_step=lambda ep, x, y: got.append((ep.index, x, y)))
        want, scaled = textbook_sweeps(design, targets, cfg, r1_rows, s_rows,
                                       fixed)
        assert len(got) == len(want) == len(seen) * highdim.INNER_ITERS
        for (i, x, y), (j, x_ref, y_ref) in zip(got, want):
            # x is kept, not copied: each sweep must hand on_step a new array
            assert i == j
            assert np.abs(x - x_ref).max() <= 1e-12 * max(1.0, np.abs(x_ref).max())
            assert np.abs(y - y_ref).max() <= 1e-12 * max(1.0, np.abs(y_ref).max())
        # the l1 term and the ball both bind somewhere along the path
        assert any((x_ref == 0.0).sum() > hold_zero * k for _, x_ref, _ in want)
        assert scaled


def gram_of(design):
    return design.T @ design / design.shape[0]


class TestTauHat:
    def test_zero_gamma_second_moment(self, rng):
        design = rng.standard_normal((10_000, 4))
        taus = tau_hat(gram_of(design), np.zeros((4, 3)))
        for j in range(4):
            assert taus[j] == pytest.approx((design[:, j] ** 2).mean())
            assert 0.95 <= taus[j] <= 1.05

    def test_single_row_hand_arithmetic(self):
        # G = [[4, 2], [2, 1]]: tau_0 = 4 - 2 * 0.5 and tau_1 = 1 - 2 * 0
        taus = tau_hat(gram_of(np.array([[2.0, 1.0]])), np.array([[0.5], [0.0]]))
        assert taus[0] == pytest.approx(3.0)
        assert taus[1] == pytest.approx(1.0)

    def test_nonpositive_rejected(self):
        design = np.array([[1.0, 2.0], [1.0, 2.2]])
        with pytest.raises(DegenerateResidualError,
                           match=r"^tau_hat_0 = -3\.200e\+00 <= 0$"):
            tau_hat(gram_of(design), np.array([[2.0], [0.0]]))

    def test_names_first_nonpositive_coordinate(self):
        # tau_1 = 1 - 2 and tau_2 = 1 - 3 are both negative; j = 1 is named
        gammas = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
        with pytest.raises(DegenerateResidualError,
                           match=r"^tau_hat_1 = -1\.000e\+00 <= 0$"):
            tau_hat(np.ones((3, 3)), gammas)


class TestOmegaAssembly:
    def test_identity_case(self):
        est = build_omega(np.zeros((3, 2)), np.ones(3))
        np.testing.assert_array_equal(est.omega, np.eye(3))

    def test_two_dimensional_hand_case(self):
        est = build_omega(np.array([[0.5], [0.5]]), np.array([0.75, 0.75]))
        np.testing.assert_allclose(est.omega,
                                   [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]])
        # equals the true inverse of [[1, .5], [.5, 1]]
        np.testing.assert_allclose(est.omega,
                                   np.linalg.inv([[1.0, 0.5], [0.5, 1.0]]))

    def test_rows_scaled_by_tau_exactly(self, rng):
        gammas = rng.standard_normal((4, 3))
        taus = rng.uniform(0.5, 2.0, 4)
        est = build_omega(gammas, taus)
        for j in range(4):
            assert est.omega[j, j] == 1.0 / taus[j]
        assert est.omega.shape == (4, 4)

    def test_rejects_bad_tau(self):
        with pytest.raises(DegenerateResidualError):
            build_omega(np.zeros((2, 1)), np.array([1.0, 0.0]))

    def test_asymmetry_shrinks_with_sample_size(self, rng):
        sigma = 0.5 ** np.abs(np.subtract.outer(np.arange(10), np.arange(10)))
        factor = np.linalg.cholesky(sigma)
        omega_true = np.linalg.inv(sigma)
        r1 = np.array([np.abs(-np.delete(omega_true[j], j) / omega_true[j, j]).sum()
                       for j in range(10)])
        asym = {}
        for n in (400, 6400):
            vals = []
            for seed in range(5):
                local = np.random.default_rng((seed, n))
                design = local.standard_normal((n, 10)) @ factor.T
                cfg = RadarConfig(r1=float(r1.max()), s_bound=2, total_n=n)
                gammas = nodewise_fit_all(design, cfg, r1_rows=1.1 * r1)
                est = build_omega(gammas, tau_hat(gram_of(design), gammas))
                vals.append(np.abs(est.omega - est.omega.T).max())
            asym[n] = np.median(vals)
        assert asym[6400] < asym[400]


class TestDebias:
    def test_zero_residual_no_correction(self, rng):
        design = rng.standard_normal((50, 4))
        x_hat = rng.standard_normal(4)
        b = design @ x_hat
        out = debias(x_hat, np.eye(4), gram_of(design), design.T @ b / 50)
        np.testing.assert_allclose(out, x_hat, atol=1e-12)

    def test_exact_inverse_recovers_ols(self, rng):
        # with Omega = (D'D/n)^-1 the correction lands on OLS, whatever x_hat
        n, d = 60, 5
        design = rng.standard_normal((n, d))
        b = rng.standard_normal(n)
        omega = np.linalg.inv(design.T @ design / n)
        ols = np.linalg.lstsq(design, b, rcond=None)[0]
        for _ in range(3):
            x_hat = rng.standard_normal(d)
            out = debias(x_hat, omega, gram_of(design), design.T @ b / n)
            np.testing.assert_allclose(out, ols, rtol=1e-8, atol=1e-8)


class TestHighdimCi:
    def test_identity_quadratic_form(self):
        rng = np.random.default_rng(0)
        n, d = 100, 4
        design = rng.standard_normal((n, d))
        # force A_hat = I exactly by whitening
        a_hat = design.T @ design / n
        design = design @ np.linalg.inv(np.linalg.cholesky(a_hat)).T
        report = highdim_ci(np.zeros(d), np.eye(d), gram_of(design), n,
                            sigma=1.0, q=0.05)
        np.testing.assert_allclose(report.half_width, 0.195996, atol=1e-5)

    def test_sigma_scaling(self, rng):
        design = rng.standard_normal((80, 3))
        r1 = highdim_ci(np.zeros(3), np.eye(3), gram_of(design), 80, sigma=1.0,
                        q=0.05)
        r2 = highdim_ci(np.zeros(3), np.eye(3), gram_of(design), 80, sigma=2.0,
                        q=0.05)
        np.testing.assert_allclose(r2.half_width, 2 * r1.half_width)

    def test_uses_transposed_quadratic_form(self, rng):
        # asymmetric Omega: variance must be (Omega A Omega^T)_jj
        design = rng.standard_normal((200, 2))
        omega = np.array([[1.0, 3.0], [0.0, 1.0]])
        a_hat = design.T @ design / 200
        want = np.diag(omega @ a_hat @ omega.T)
        report = highdim_ci(np.zeros(2), omega, a_hat, 200, sigma=1.0, q=0.05)
        z = 1.959964
        np.testing.assert_allclose(report.half_width,
                                   z * np.sqrt(want / 200), rtol=1e-6)


class TestPipeline:
    def test_end_to_end_identity(self, rng):
        n, d, s0 = 100, 40, 2
        design, b, x_star = sparse_problem(rng, n, d, [12.0, 6.0])
        main = RadarConfig(r1=1.1 * np.abs(x_star).sum(), s_bound=s0, total_n=n)
        node = RadarConfig(r1=0.0, s_bound=1, total_n=n)
        fit = fit_debiased_lasso(design, b, main, node, sigma=1.0, q=0.05,
                                 truth=x_star, node_r1_rows=np.zeros(d),
                                 node_s_rows=np.ones(d))
        assert np.abs(fit.x_hat - x_star).sum() < 3.0
        assert fit.report.hits.shape == (d,)
        assert fit.precision.omega.shape == (d, d)
        # debiased estimate improves the raw fit on the active set
        raw = np.abs(fit.x_hat - x_star)[:s0].max()
        deb = np.abs(fit.x_debiased - x_star)[:s0].max()
        assert deb < raw + 0.5

    def test_tail_equals_stored_data_formulas(self, rng):
        # The tail reads only G and c; recompute every stage from D with
        # the per-coordinate formulas, on a design whose gamma-hat is not 0.
        n, d, rho = 200, 40, 0.5
        sigma = rho ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
        design = rng.standard_normal((n, d)) @ np.linalg.cholesky(sigma).T
        x_star = np.zeros(d)
        x_star[:3] = [8.0, -5.0, 3.0]
        b = design @ x_star + rng.standard_normal(n)
        prec = np.linalg.inv(sigma)
        gamma_true = -prec / np.diag(prec)[:, None]
        np.fill_diagonal(gamma_true, 0.0)
        node_r1 = 1.1 * np.abs(gamma_true).sum(axis=1)
        node_s = (np.abs(gamma_true) > 1e-12).sum(axis=1)
        main = RadarConfig(r1=1.1 * np.abs(x_star).sum(), s_bound=3, total_n=n)
        node = RadarConfig(r1=float(node_r1.max()), s_bound=int(node_s.max()),
                           total_n=n)
        fit = fit_debiased_lasso(design, b, main, node, sigma=1.0, q=0.05,
                                 node_r1_rows=node_r1, node_s_rows=node_s)
        gammas = fit.precision.gamma
        assert (np.abs(gammas).max(axis=1) > 0).all()

        taus = np.empty(d)
        c = np.eye(d)
        for j in range(d):
            resid = design[:, j] - np.delete(design, j, axis=1) @ gammas[j]
            taus[j] = resid @ design[:, j] / n
            c[j, np.arange(d) != j] = -gammas[j]
        omega = c / taus[:, None]
        x_d = fit.x_hat + omega @ design.T @ (b - design @ fit.x_hat) / n
        var = np.diag(omega @ design.T @ design @ omega.T / n)
        half = 1.959963984540054 * np.sqrt(var / n)

        for got, want in ((fit.precision.tau, taus), (fit.precision.omega, omega),
                          (fit.x_debiased, x_d), (fit.report.center, x_d),
                          (fit.report.half_width, half)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
