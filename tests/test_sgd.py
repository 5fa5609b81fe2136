import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdinf import models, sgd
from sgdinf.batchmeans import BatchMeansAccumulator, make_schedule
from sgdinf.plugin import PluginAccumulator
from sgdinf.sgd import (
    DivergenceError,
    SinkFinalizeError,
    StepSchedule,
    run,
)

from conftest import RecordingSink, reference_sgd_trace


def linear_model(d=5, sigma=1.0):
    return models.ModelSpec(models.ModelKind.LINEAR,
                            models.DesignSpec("identity", d),
                            tuple(models.default_x_star(d)), sigma=sigma)


def logistic_model(design="toeplitz", d=3):
    return models.ModelSpec(models.ModelKind.LOGISTIC,
                            models.DesignSpec(design, d, 0.5),
                            (0.5, -0.2, 1.0, 0.3, -0.7)[:d])


# Piece sizes of the engine, which are also the sinks' block sizes.
PIECES = (1, 7, sgd._PIECE)
# Sub-block sizes of the solver's map propagation.
BLOCKS = (1, 7, sgd._SUB_BLOCK)


def each_piece(monkeypatch):
    """Set the engine's piece size to each of PIECES in turn."""
    for size in PIECES:
        monkeypatch.setattr(sgd, "_PIECE", size)
        yield size


def each_engine(monkeypatch):
    """Set the engine's piece and sub-block sizes to each pair of
    PIECES × BLOCKS in turn; yields the piece size and the sub-block size."""
    for size in each_piece(monkeypatch):
        for block in BLOCKS:
            monkeypatch.setattr(sgd, "_SUB_BLOCK", block)
            yield size, block


class TestStepSchedule:
    def test_monotone_decreasing(self):
        sch = StepSchedule(eta=0.7, alpha=0.5)
        steps = [sch.step(i) for i in range(1, 2000)]
        assert all(b < a for a, b in zip(steps, steps[1:]))

    @pytest.mark.parametrize("alpha", [0.49, 1.0, 1.2, 0.0])
    def test_alpha_range_enforced(self, alpha):
        with pytest.raises(ValueError):
            StepSchedule(eta=1.0, alpha=alpha)

    def test_eta_positive(self):
        with pytest.raises(ValueError):
            StepSchedule(eta=0.0, alpha=0.5)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_eta_finite(self, eta):
        # a bad argument, not a DivergenceError at iteration 1
        with pytest.raises(ValueError, match="eta must be finite"):
            StepSchedule(eta=eta, alpha=0.5)


class TestSolve:
    """sgd._solve against the plain per-row loop c_k = γ̃_k·a_kᵀx_{k−1} + h_k,
    x_k = x_{k−1} − c_k·a_k."""

    @staticmethod
    def reference(a, gain, h, x_lo):
        x = np.array(x_lo, dtype=float)
        cs, xs = [], []
        for a_k, g_k, h_k in zip(a, gain, h):
            c = g_k * (a_k @ x) + h_k
            x = x - c * a_k
            cs.append(c)
            xs.append(x)
        return np.array(cs), np.array(xs)

    # 6·size − 5 rows: six sub-blocks, no power of two, the last of them
    # ragged for size > 1
    @pytest.mark.parametrize("size", [1, 7, 16])
    def test_matches_per_row_loop(self, size):
        d, count = 5, 6
        k = count * size - (5 if size > 1 else 0)
        rng = np.random.default_rng(size)
        a = rng.standard_normal((k, d))
        gain = 0.5 / np.sqrt(np.arange(1.0, k + 1.0))
        h = rng.standard_normal(k)
        gain[::4] = h[::4] = 0.0    # rows that leave the iterate as it is
        x_lo = rng.standard_normal(d)
        want_c, want_x = self.reference(a, gain, h, x_lo)
        weight = sgd._layout(np.column_stack([gain[:, None] * a, -h]),
                             count, size)
        c, lows = sgd._solve(weight, sgd._layout(a, count, size), x_lo,
                             np.empty_like(weight))
        assert c.shape == (count * size,)
        assert lows.shape == (count + 1, d + 1)
        tol = 1e-12 * max(1.0, np.abs(want_c).max())
        assert np.abs(c[:k] - want_c).max() <= tol
        # padded rows take no step, and each sub-block starts where the
        # loop's previous row ended: the last one's end is the last iterate
        assert np.all(c[k:] == 0.0)
        starts = np.vstack([x_lo, want_x[size - 1::size], want_x[-1]])
        tol = 1e-12 * max(1.0, np.abs(want_x).max())
        assert np.abs(lows[:, :d] - starts[:count + 1]).max() <= tol
        assert np.all(lows[:, d] == -1.0)

    def test_padded_rows_leave_the_map_unchanged(self):
        # a sub-block of one real row and fifteen padded ones: the padded
        # rows have c = 0 exactly, and the sub-block ends at the iterate
        # after its one real row
        d, size = 3, 16
        rng = np.random.default_rng(4)
        a = rng.standard_normal((1, d))
        x_lo = rng.standard_normal(d)
        weight = sgd._layout(np.column_stack([0.3 * a, [[0.7]]]), 1, size)
        c, lows = sgd._solve(weight, sgd._layout(a, 1, size), x_lo,
                             np.empty_like(weight))
        want = 0.3 * (a[0] @ x_lo) - 0.7
        assert c[0] == pytest.approx(want, rel=1e-15)
        assert np.all(c[1:] == 0.0)
        np.testing.assert_allclose(lows[1, :d], x_lo - want * a[0],
                                   rtol=1e-15, atol=1e-15)


class TestRun:
    def test_single_step_observes_once(self, rng):
        sink = RecordingSink()
        model = linear_model()
        run(model, 1, StepSchedule(0.5, 0.5), sinks=[sink],
            data=models.sample_dataset(model, 1, rng))
        assert sink.calls == [1]

    def test_observe_order_and_count(self, rng, monkeypatch):
        # the blocks tile 1..n: contiguous, in order, each non-empty
        model = linear_model()
        for piece in each_piece(monkeypatch):
            sink = RecordingSink()
            run(model, 250, StepSchedule(0.5, 0.5), sinks=[sink],
                data=models.sample_dataset(model, 250, rng))
            assert sink.calls == list(range(1, 251))
            assert all(len(xs) > 0 for _, xs, *_ in sink.blocks)
            assert len(sink.blocks) == -(-250 // piece)

    def test_deterministic_given_seed(self):
        model = linear_model()
        sch = StepSchedule(0.5, 0.5)
        s1, _ = run(model, 2000, sch, data=models.sample_dataset(
            model, 2000, np.random.default_rng(42)))
        s2, _ = run(model, 2000, sch, data=models.sample_dataset(
            model, 2000, np.random.default_rng(42)))
        assert np.array_equal(s1.x_bar, s2.x_bar)
        assert np.array_equal(s1.x, s2.x)

    def test_running_average_matches_trace_mean(self, rng):
        trace = RecordingSink()
        model = linear_model()
        state, _ = run(model, 1000, StepSchedule(0.5, 0.5), sinks=[trace],
                       data=models.sample_dataset(model, 1000, rng))
        assert np.abs(state.x_bar - trace.stacked(1).mean(axis=0)).max() < 1e-10

    def test_matches_reference_implementation(self, rng):
        model = linear_model(d=4)
        a, b = models.sample_dataset(model, 500, rng)
        trace = RecordingSink()
        state, _ = run(model, 500, StepSchedule(0.8, 0.6), sinks=[trace],
                       data=(a, b))
        ref = reference_sgd_trace(model, a, b, eta=0.8, alpha=0.6)
        np.testing.assert_allclose(trace.stacked(1), ref, atol=1e-12)
        np.testing.assert_allclose(state.x_bar, ref.mean(axis=0), atol=1e-12)

    def test_logistic_matches_reference_implementation(self, rng):
        model = logistic_model()
        a, b = models.sample_dataset(model, 400, rng)
        trace = RecordingSink()
        run(model, 400, StepSchedule(1.0, 0.5), sinks=[trace], data=(a, b))
        ref = reference_sgd_trace(model, a, b, eta=1.0, alpha=0.5)
        np.testing.assert_allclose(trace.stacked(1), ref, atol=1e-12)

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    @pytest.mark.parametrize("design", ["identity", "toeplitz"])
    def test_chunked_trace_matches_reference(self, kind, design, rng,
                                             monkeypatch):
        # n = 1000 is no multiple of 7 or of the default piece, and the
        # batch boundaries (10, 40, 90, ...) straddle piece edges
        n = 1000
        if kind == "linear":
            model = models.ModelSpec(models.ModelKind.LINEAR,
                                     models.DesignSpec(design, 5, 0.5),
                                     tuple(models.default_x_star(5)), sigma=1.0)
        else:
            model = logistic_model(design, d=5)
        a, b = models.sample_dataset(model, n, rng)
        ref = reference_sgd_trace(model, a, b, eta=0.9, alpha=0.55)
        for _ in each_engine(monkeypatch):
            trace = RecordingSink()
            bm = BatchMeansAccumulator(make_schedule(n, 9, 0.5), 5)
            state, _ = run(model, n, StepSchedule(0.9, 0.55),
                           sinks=[trace, bm], data=(a, b))
            assert trace.calls == list(range(1, n + 1))
            assert np.abs(trace.stacked(1) - ref).max() <= 1e-12
            assert np.abs(state.x - ref[-1]).max() <= 1e-12
            assert np.abs(state.x_bar - ref.mean(axis=0)).max() <= 1e-12

    @pytest.mark.parametrize("eta", [0.5, 1.1])
    @pytest.mark.parametrize("design", ["identity", "toeplitz"])
    def test_linear_solve_matches_reference(self, eta, design, monkeypatch):
        # n = 5000 is no multiple of the linear sub-block or of its piece:
        # the second piece holds 904 rows, which end in a ragged sub-block.
        # Pieces of 50 rows make a hundred of them.
        n, d = 5000, 5
        model = models.ModelSpec(models.ModelKind.LINEAR,
                                 models.DesignSpec(design, d, 0.5),
                                 tuple(models.default_x_star(d)), sigma=1.0)
        a, b = models.sample_dataset(model, n, np.random.default_rng(11))
        x0 = np.array([3.0, -2.0, 0.5, 1.0, -1.5])
        ref = reference_sgd_trace(model, a, b, eta=eta, alpha=0.5, x0=x0)
        tol = 1e-12 * max(1.0, np.abs(ref).max())
        for block in BLOCKS:
            for piece in (50, sgd._PIECE):
                monkeypatch.setattr(sgd, "_SUB_BLOCK", block)
                monkeypatch.setattr(sgd, "_PIECE", piece)
                trace = RecordingSink()
                state, _ = run(model, n, StepSchedule(eta, 0.5), x0=x0,
                               sinks=[trace], data=(a, b))
                assert np.abs(trace.stacked(1) - ref).max() <= tol
                assert np.abs(state.x_bar - ref.mean(axis=0)).max() <= tol

    @pytest.mark.parametrize("eta", [0.5, 1.0, 5.0, 20.0])
    @pytest.mark.parametrize("design", ["identity", "toeplitz"])
    def test_logistic_newton_matches_reference(self, eta, design,
                                               monkeypatch):
        # n = 5000 is no multiple of the sub-block or of the piece. Steps
        # of 20/sqrt(i) make Newton on a whole piece stall, so the engine
        # must halve the piece.
        n, d = 5000, 5
        model = logistic_model(design, d=d)
        a, b = models.sample_dataset(model, n, np.random.default_rng(11))
        x0 = np.array([3.0, -2.0, 0.5, 1.0, -1.5])
        ref = reference_sgd_trace(model, a, b, eta=eta, alpha=0.5, x0=x0)
        tol = 1e-12 * max(1.0, np.abs(ref).max())
        newton_piece = sgd._newton_piece
        defaults = (sgd._SUB_BLOCK, sgd._PIECE)
        for block in BLOCKS:
            for piece in (50, sgd._PIECE):
                monkeypatch.setattr(sgd, "_SUB_BLOCK", block)
                monkeypatch.setattr(sgd, "_PIECE", piece)
                pieces = []

                def recording(rows, a, *args):
                    out = newton_piece(rows, a, *args)
                    pieces.append((len(a), out[0]))
                    return out

                monkeypatch.setattr(sgd, "_newton_piece", recording)
                trace = RecordingSink()
                state, _ = run(model, n, StepSchedule(eta, 0.5), x0=x0,
                               sinks=[trace], data=(a, b))
                assert np.abs(trace.stacked(1) - ref).max() <= tol
                assert np.abs(state.x_bar - ref.mean(axis=0)).max() <= tol
                if eta == 20.0 and (block, piece) == defaults:
                    # the first pieces stall: each unsettled piece halves
                    # the next, and once they settle each piece doubles
                    # the next, back up to _PIECE. ends[i] is the
                    # iteration piece i ends on, where piece i + 1 starts.
                    ends = np.cumsum([done for _, done in pieces])
                    assert ends[-1] == n
                    halved = grew = 0
                    for (k, done), (k_next, _), end in zip(pieces, pieces[1:],
                                                           ends):
                        if done < k:
                            assert k_next <= k // 2
                            halved += 1
                        elif k < piece:
                            assert k_next == min(2 * k, piece, n - end)
                            grew += 1
                    assert halved and grew

    @pytest.mark.parametrize("eta", [100.0, 1e4])
    def test_logistic_large_steps_raise_no_false_divergence(self, eta):
        # At such η the linearised trajectory of a piece overflows before
        # Newton settles; no divergence may be reported from its unsettled
        # rows, since the straight loop's iterates stay finite
        n = 5000
        model = logistic_model("identity", d=5)
        a, b = models.sample_dataset(model, n, np.random.default_rng(11))
        with np.errstate(over="ignore"):
            ref = reference_sgd_trace(model, a, b, eta=eta, alpha=0.5)
        assert np.isfinite(ref).all()
        trace = RecordingSink()
        run(model, n, StepSchedule(eta, 0.5), sinks=[trace], data=(a, b))
        assert np.isfinite(trace.stacked(1)).all()

    @pytest.mark.parametrize("x0", [[2.0], np.zeros(6), np.zeros((5, 1))])
    def test_x0_shape_checked(self, x0, rng):
        with pytest.raises(ValueError, match=r"\(5,\)") as err:
            run(linear_model(), 1, StepSchedule(0.5, 0.5), x0=x0,
                data=models.sample_dataset(linear_model(), 1, rng))
        assert str(np.shape(x0)) in str(err.value)

    def test_hessians_computed_only_when_needed(self, rng, monkeypatch):
        # The engine hands the sinks only the scalar weights w = ℓ″(aᵀx, b)
        # at the pre-step iterate; a d×d Hessian w·aaᵀ is formed only by a
        # sink that needs one. ℓ″ ≡ 1 for the linear model and σ(t)σ(−t)
        # for the logistic one; r is ℓ′.
        for model in (linear_model(), logistic_model()):
            for _ in each_engine(monkeypatch):
                sink = RecordingSink()
                a, b = models.sample_dataset(model, 50, rng)
                run(model, 50, StepSchedule(0.5, 0.5), sinks=[sink], data=(a, b))
                xs = sink.stacked(1)
                np.testing.assert_array_equal(sink.stacked(2), a)
                pre = np.vstack([np.zeros(model.d), xs[:-1]])
                t = np.einsum("ij,ij->i", a, pre)
                if model.kind is models.ModelKind.LINEAR:
                    want_r, want_w = t - b, np.ones(50)
                else:
                    p = 1.0 / (1.0 + np.exp(-t))
                    want_r, want_w = -b / (1.0 + np.exp(b * t)), p * (1.0 - p)
                np.testing.assert_allclose(sink.stacked(3), want_r, rtol=0, atol=1e-14)
                np.testing.assert_allclose(sink.stacked(4), want_w, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", [models.ModelKind.LINEAR,
                                      models.ModelKind.LOGISTIC])
    def test_sinks_get_kernel_derivatives(self, kind, rng):
        # The sinks get models.derivatives at the pre-step values, out to
        # |t| = 700. With d = 1, x0 = 1 and steps of order 1e-300 the
        # iterate stays at exactly 1, so the pre-step aᵀx is the covariate
        # itself.
        t = np.concatenate([
            np.linspace(-700.0, 700.0, 2801), rng.uniform(-700.0, 700.0, 2000),
            rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-10.0, 2.8, 1000)])
        a = np.concatenate([t, t])[:, None]
        b = np.repeat([-1.0, 1.0], t.size)
        model = models.ModelSpec(kind, models.DesignSpec("identity", 1), (1.0,),
                                 sigma=1.0 if kind is models.ModelKind.LINEAR else None)
        sink = RecordingSink()
        run(model, b.size, StepSchedule(1e-300, 0.5), x0=[1.0], sinks=[sink],
            data=(a, b))
        assert (sink.stacked(1) == 1.0).all()
        want_r, want_w = models.derivatives(kind, a[:, 0], b)
        np.testing.assert_array_equal(sink.stacked(3), want_r)
        np.testing.assert_array_equal(sink.stacked(4), want_w)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), block_size=st.integers(1, 40),
           piece=st.integers(1, 600), logistic=st.booleans())
    def test_estimates_do_not_depend_on_chunk_size(self, seed, block_size,
                                                   piece, logistic):
        n, d = 600, 3
        model = logistic_model(d=d) if logistic else linear_model(d=d)
        data = models.sample_dataset(model, n, np.random.default_rng(seed))
        out = []
        for block, rows in ((block_size, piece), (sgd._SUB_BLOCK, sgd._PIECE)):
            sinks = [PluginAccumulator(d),
                     BatchMeansAccumulator(make_schedule(n, 5, 0.5), d)]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sgd, "_SUB_BLOCK", block)
                mp.setattr(sgd, "_PIECE", rows)
                state, est = run(model, n, StepSchedule(0.7, 0.5), sinks=sinks,
                                 data=data)
            out.append((state.x_bar, est[0].matrix, est[1].matrix))
        for got, want in zip(*out):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_consistency_median_over_seeds(self):
        # ||x̄_n - x*|| < 0.05 at n=1e5 (median over 20 seeds), d=5, sigma=1
        model = linear_model()
        errs = []
        for seed in range(20):
            state, _ = run(model, 100000, StepSchedule(0.5, 0.5),
                           data=models.sample_dataset(
                               model, 100000, np.random.default_rng(seed)))
            errs.append(np.linalg.norm(state.x_bar - model.xs))
        assert np.median(errs) < 0.05

    @pytest.mark.parametrize("design", ["identity", "toeplitz"])
    def test_linear_piece_solves_once(self, design, monkeypatch):
        # ℓ′ = t − b is affine, so Newton's first linearisation is exact
        # and every linear piece settles after one solve, at η = 1.1 too,
        # where the early iterates grow before they settle
        n, d = 1000, 5
        model = models.ModelSpec(models.ModelKind.LINEAR,
                                 models.DesignSpec(design, d, 0.5),
                                 tuple(models.default_x_star(d)), sigma=1.0)
        a, b = models.sample_dataset(model, n, np.random.default_rng(5))
        x0 = np.array([3.0, -2.0, 0.5, 1.0, -1.5])
        solve = sgd._solve
        for size, _ in each_engine(monkeypatch):
            solves = []

            def counting(*args):
                solves.append(1)
                return solve(*args)

            monkeypatch.setattr(sgd, "_solve", counting)
            sink = RecordingSink()
            run(model, n, StepSchedule(1.1, 0.5), x0=x0, sinks=[sink],
                data=(a, b))
            assert len(solves) == len(sink.blocks) == -(-n // size)

    def test_divergence_raised_with_context(self, monkeypatch):
        model = linear_model()
        a, b = models.sample_dataset(model, 3000, np.random.default_rng(0))
        # the straight loop's first iterate with a non-finite squared norm
        with np.errstate(over="ignore", invalid="ignore"):
            ref = reference_sgd_trace(model, a, b, eta=50.0, alpha=0.5)
            want = 1 + int(np.flatnonzero(~np.isfinite((ref * ref).sum(axis=1)))[0])
        cumsum = np.cumsum
        for _, block in each_engine(monkeypatch):
            # each cumulative sum rebuilds one sub-block's iterates
            rebuilt = []

            def counting_cumsum(rows, *args, **kwargs):
                rebuilt.append(len(rows) - 1)
                return cumsum(rows, *args, **kwargs)

            monkeypatch.setattr(np, "cumsum", counting_cumsum)
            sink = RecordingSink()
            with pytest.raises(DivergenceError) as err:
                # eta far above the stability threshold blows up immediately
                run(model, 3000, StepSchedule(50.0, 0.5), sinks=[sink],
                    data=(a, b))
            assert err.value.iteration == want
            # the run stops at the end of the sub-block holding iteration want
            assert want <= sum(rebuilt) < want + block
            # no sink ever sees a non-finite iterate
            assert all(np.isfinite(xs).all() for _, xs, *_ in sink.blocks)

    # A finite value of 1e200 is a case for the linear model alone: a
    # logistic response is ±1 and its loss reads only the sign, and a
    # logistic covariate of 1e200 has its own test below.
    @pytest.mark.parametrize("kind,column,value", [
        (kind, column, value) for kind in ("linear", "logistic")
        for column in ("a", "b") for value in (np.nan, np.inf, 1e200)
        if kind == "linear" or value != 1e200])
    def test_unusable_data_raises_divergence(self, kind, column, value,
                                             monkeypatch):
        # a non-finite value, or a covariate whose Gram entries overflow,
        # stops the run at the straight loop's iteration: the first iterate
        # of the reference trace whose squared norm is not finite
        model = linear_model() if kind == "linear" else logistic_model(d=5)
        a, b = models.sample_dataset(model, 300, np.random.default_rng(2))
        if column == "a":
            a[150, 2] = value
        else:
            b[150] = value
        with np.errstate(over="ignore", invalid="ignore"):
            ref = reference_sgd_trace(model, a, b, eta=0.5, alpha=0.5)
            want = 1 + int(np.flatnonzero(~np.isfinite((ref * ref).sum(axis=1)))[0])
        newton_piece, cumsum = sgd._newton_piece, np.cumsum
        for _, block in each_engine(monkeypatch):
            # each cumulative sum rebuilds the rows after rows[0] of the
            # piece that starts at iteration firsts[-1]
            firsts, rebuilt = [], []

            def recording(rows, a, b, gamma, first, *args):
                firsts.append(first)
                return newton_piece(rows, a, b, gamma, first, *args)

            def counting_cumsum(rows, *args, **kwargs):
                rebuilt.append(len(rows) - 1)
                return cumsum(rows, *args, **kwargs)

            monkeypatch.setattr(sgd, "_newton_piece", recording)
            monkeypatch.setattr(np, "cumsum", counting_cumsum)
            sink = RecordingSink()
            with pytest.raises(DivergenceError) as err:
                run(model, 300, StepSchedule(0.5, 0.5), sinks=[sink],
                    data=(a, b))
            assert err.value.iteration == want == 151
            assert all(np.isfinite(xs).all() for _, xs, *_ in sink.blocks)
            # a logistic piece rebuilds once per Newton iteration: the last
            # rebuild before the raise ends within the sub-block of its
            # piece that holds iteration want
            first, last = firsts[-1], firsts[-1] - 1 + rebuilt[-1]
            assert want <= last
            assert (last - first) // block == (want - first) // block

    def test_logistic_steps_over_huge_covariate(self, monkeypatch):
        # With a covariate of 1e200, b·aᵀx is about 8e199 at iteration 151,
        # so ℓ′ is exactly 0 there: the straight loop leaves the iterate as
        # it is and goes on, and so must the engine, though the Gram entries
        # of that row overflow
        model = logistic_model(d=5)
        a, b = models.sample_dataset(model, 300, np.random.default_rng(2))
        a[150, 2] = 1e200
        with np.errstate(over="ignore"):
            ref = reference_sgd_trace(model, a, b, eta=0.5, alpha=0.5)
        assert np.isfinite(ref).all()
        for _ in each_engine(monkeypatch):
            trace = RecordingSink()
            run(model, 300, StepSchedule(0.5, 0.5), sinks=[trace], data=(a, b))
            assert np.abs(trace.stacked(1) - ref).max() <= 1e-12

    def test_finalize_errors_collected(self, rng):
        class Broken(RecordingSink):
            def finalize(self):
                raise RuntimeError("boom")

        with pytest.raises(SinkFinalizeError) as err:
            run(linear_model(), 10, StepSchedule(0.5, 0.5), sinks=[Broken()],
                data=models.sample_dataset(linear_model(), 10, rng))
        assert "Broken" in str(err.value)

    def test_finalize_errors_keep_every_sink(self, rng):
        # two sinks of one class, both scheduled past the run's end
        sinks = [BatchMeansAccumulator(make_schedule(n, 3, 0.5), 2)
                 for n in (4000, 5000)]
        with pytest.raises(SinkFinalizeError) as err:
            run(linear_model(d=2), 2000, StepSchedule(0.5, 0.5), sinks=sinks,
                data=models.sample_dataset(linear_model(d=2), 2000, rng))
        assert len(err.value.errors) == 2
        for n in (4000, 5000):
            assert f"schedule expects {n}" in str(err.value)

    def test_requires_data_of_the_right_shape(self):
        with pytest.raises(TypeError, match="data"):
            run(linear_model(), 10, StepSchedule(0.5, 0.5))
        with pytest.raises(ValueError, match=r"shapes \(10, 4\) and \(9,\), "
                                             r"need \(10, 5\) and \(10,\)"):
            run(linear_model(), 10, StepSchedule(0.5, 0.5),
                data=(np.zeros((10, 4)), np.zeros(9)))
