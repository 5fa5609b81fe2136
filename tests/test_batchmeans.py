import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdinf.batchmeans import (
    BatchMeansAccumulator,
    BatchSchedule,
    ProtocolError,
    ScheduleError,
    batch_count,
    make_schedule,
)

from conftest import batch_means_floor


class TestMakeSchedule:
    def test_square_boundaries(self):
        s = make_schedule(10000, 9, 0.5)
        assert s.boundaries == (100, 400, 900, 1600, 2500, 3600, 4900, 6400, 8100, 10000)

    def test_two_batches(self):
        s = make_schedule(100, 1, 0.5)
        assert s.boundaries == (25, 100)

    def test_preconditions(self):
        with pytest.raises(ScheduleError):
            make_schedule(100, 0, 0.5)
        with pytest.raises(ScheduleError):
            make_schedule(100, 1, 0.4)
        with pytest.raises(ScheduleError):
            make_schedule(100, 1, 1.0)
        with pytest.raises(ScheduleError):
            make_schedule(15, 3, 0.5)  # n < (M+1)^2

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40),
           st.floats(0.5, 0.99),
           st.integers(0, 10_000))
    def test_schedule_invariants(self, m, alpha, extra):
        n = (m + 1) ** 2 + extra
        s = make_schedule(n, m, alpha)
        bounds = s.boundaries
        assert len(bounds) == m + 1 and s.m == m
        assert bounds[-1] == n
        assert all(b > a for a, b in zip(bounds, bounds[1:]))
        assert bounds[0] >= 1
        assert np.diff(bounds).sum() == n - s.burn_in

    def test_batch_growth_matches_power_law(self):
        # n_k ~ k^(alpha/(1-alpha)) N^(1/(1-alpha)) with the (k+1) index
        # that appears in the boundary formula
        n, alpha = 100_000, 0.5
        m = batch_count(n, 0.25)
        assert m == 18
        s = make_schedule(n, m, alpha)
        sizes = np.diff(s.boundaries)     # n_k for k = 1..M
        scale = (n ** (1 - alpha) / (m + 1)) ** (1 / (1 - alpha))
        for k in range(2, m + 1):
            ratio = sizes[k - 1] / ((k + 1) ** (alpha / (1 - alpha)) * scale)
            assert 0.5 <= ratio <= 2.1

    def test_json_dump(self):
        s = make_schedule(100, 1, 0.5)
        assert json.loads(s.to_json()) == [25, 100]

    @pytest.mark.parametrize("bounds", [
        (5, 3, 8), (3, 3, 8), (0, 4), (-2, 4), (4,), (), (2.0, 4), (1.5, 4),
        (True, 4), (2, np.float64(4))])
    def test_malformed_boundaries_rejected(self, bounds):
        # (5, 3, 8) gave batch sizes 5, -2, 5 and a negative variance;
        # (3, 3, 8) an empty batch and NaN
        with pytest.raises(ScheduleError, match="1 <= e_0 < e_1"):
            BatchSchedule(bounds)

    def test_numpy_integer_boundaries(self):
        s = BatchSchedule(tuple(np.array([2, 5, 9])))
        assert (s.m, s.n, s.burn_in) == (2, 9, 2)
        assert json.loads(s.to_json()) == [2, 5, 9]

    def test_batch_count_rule(self):
        assert batch_count(100_000, 0.25) == 18
        assert batch_count(100_000, 0.2) == 10
        assert batch_count(100_000, 0.3) == 32


def feed(acc, xs, block=3, start=1):
    """Stream the iterates xs into acc in blocks of `block` rows."""
    xs = np.asarray(xs, dtype=float)
    xs = xs.reshape(len(xs), -1)
    for lo in range(0, len(xs), block):
        acc.observe(start + lo, xs[lo:lo + block])


class TestAccumulator:
    def test_burn_in_discarded_hand_case(self):
        sched = BatchSchedule(boundaries=(1, 4))
        acc = BatchMeansAccumulator(sched, 1)
        feed(acc, [1.0, 5.0, 5.0, 5.0])
        # batches of 1 and 3 rows, with means 1 and 5
        assert acc.sums[:, 0].tolist() == [1.0, 15.0]
        est = acc.finalize()
        np.testing.assert_allclose(est.matrix, [[0.0]])

    def test_constant_sequence_zero_matrix(self):
        sched = make_schedule(100, 3, 0.5)
        acc = BatchMeansAccumulator(sched, 2)
        feed(acc, [[3.0, -1.0]] * 100)
        est = acc.finalize()
        np.testing.assert_allclose(est.matrix, np.zeros((2, 2)), atol=1e-12)

    def test_two_batch_hand_arithmetic(self):
        # means (1, 3) with sizes (2, 2): overall 2, estimate (1/2)(2+2) = 2
        sched = BatchSchedule(boundaries=(1, 3, 5))
        acc = BatchMeansAccumulator(sched, 1)
        feed(acc, [9.0, 1.0, 1.0, 3.0, 3.0])
        est = acc.finalize()
        assert est.matrix[0, 0] == pytest.approx(2.0)

    def test_streaming_equals_trace_replay(self, rng):
        n, d = 1000, 3
        sched = make_schedule(n, 5, 0.5)
        acc = BatchMeansAccumulator(sched, d)
        xs = rng.standard_normal((n, d))
        feed(acc, xs, block=7)
        est = acc.finalize()

        bounds = (0,) + sched.boundaries
        means, counts = [], []
        for k in range(len(bounds) - 1):
            seg = xs[bounds[k]:bounds[k + 1]]
            means.append(seg.mean(axis=0))
            counts.append(len(seg))
        np.testing.assert_allclose(acc.sums / np.array(counts)[:, None], means,
                                   atol=1e-12)
        overall = xs[sched.burn_in:].mean(axis=0)
        dev = np.array(means[1:]) - overall
        expected = (dev.T * counts[1:]) @ dev / sched.m
        assert np.abs(est.matrix - expected).max() < 1e-10

    def test_weighted_mean_identity(self, rng):
        n = 500
        sched = make_schedule(n, 4, 0.6)
        acc = BatchMeansAccumulator(sched, 2)
        xs = rng.standard_normal((n, 2))
        feed(acc, xs, block=1)
        counts = np.diff(sched.boundaries).astype(float)
        means = acc.sums[1:] / counts[:, None]
        lhs = (counts[:, None] * means).sum(axis=0)
        rhs = xs[sched.burn_in:].sum(axis=0)
        assert np.abs(lhs - rhs).max() < 1e-10 * n
        # which implies the weighted deviations from the overall mean cancel
        overall = acc.sums[1:].sum(axis=0) / (n - sched.burn_in)
        dev = ((means - overall) * counts[:, None]).sum(axis=0)
        assert np.abs(dev).max() < 1e-10 * n

    def test_output_psd(self, rng):
        for trial in range(5):
            n = 400
            sched = make_schedule(n, 6, 0.5)
            acc = BatchMeansAccumulator(sched, 4)
            xs = rng.standard_normal((n, 4)).cumsum(axis=0) / 50.0
            feed(acc, xs, block=1 + 50 * trial)
            est = acc.finalize()
            assert np.linalg.eigvalsh(est.matrix).min() >= -1e-10

    def test_protocol_errors(self):
        sched = make_schedule(100, 2, 0.5)
        acc = BatchMeansAccumulator(sched, 1)
        with pytest.raises(ProtocolError):
            acc.observe(2, np.zeros((1, 1)))   # skipped i = 1
        acc2 = BatchMeansAccumulator(sched, 1)
        feed(acc2, np.zeros(50))
        with pytest.raises(ProtocolError):
            acc2.finalize()                    # stream not finished
        with pytest.raises(ProtocolError):
            feed(acc2, np.zeros(5), start=50)  # block overlaps the last one
        acc3 = BatchMeansAccumulator(sched, 1)
        feed(acc3, np.zeros(100))
        with pytest.raises(ProtocolError):
            acc3.observe(101, np.zeros((1, 1)))  # past e_M
        acc4 = BatchMeansAccumulator(sched, 1)
        feed(acc4, np.ones(98))
        with pytest.raises(ProtocolError):
            acc4.observe(99, np.ones((3, 1)))    # block runs past e_M
        # the bad block left no trace: batches of 11, 33 and 56 rows
        assert acc4.sums[:, 0].tolist() == [11.0, 33.0, 54.0]
        acc4.observe(99, np.ones((2, 1)))
        assert acc4.sums[:, 0].tolist() == [11.0, 33.0, 56.0]

    @pytest.mark.parametrize("shape", [(100, 1), (0, 5), (5,), (2, 5, 1)])
    def test_block_shape_checked(self, shape):
        # a (100, 1) block broadcast into every coordinate, and an empty
        # one reached np.add.reduceat
        acc = BatchMeansAccumulator(make_schedule(100, 3, 0.5), 5)
        with pytest.raises(ValueError, match=r"\(k, 5\)") as err:
            acc.observe(1, np.ones(shape))
        assert str(shape) in str(err.value)
        assert not acc.sums.any()                # and left no trace
        feed(acc, np.ones((100, 5)), block=40)
        np.testing.assert_allclose(acc.finalize().matrix, np.zeros((5, 5)),
                                   atol=1e-12)

    def test_memory_is_batch_bounded(self):
        # state must stay O(d*M), never O(n*d)
        n = 20000
        sched = make_schedule(n, 5, 0.5)
        d = 8
        acc = BatchMeansAccumulator(sched, d)
        feed(acc, np.repeat(np.arange(1.0, n + 1)[:, None], d, axis=1), block=4096)
        stored = 0
        for value in vars(acc).values():
            if isinstance(value, np.ndarray):
                stored += value.size
            elif isinstance(value, list):
                stored += sum(v.size for v in value if isinstance(v, np.ndarray))
        assert stored <= (sched.m + 4) * d + 2 * d


class TestBatchMeansFloor:
    """The test-side floor helper that the C2/C6 acceptance bounds rest on."""

    @staticmethod
    def _wishart_mean_check(schedule, cov, draws):
        # each draw is Wishart(M-1, cov)/M: mean (M-1)/M·cov and entrywise
        # variance (M-1)(c_ij² + c_ii·c_jj)/M²
        m = schedule.m
        sigma = batch_means_floor(schedule, cov, draws=draws, seed=11)
        assert sigma.shape == (draws,) + cov.shape
        se = np.sqrt((m - 1) * (cov ** 2 + np.outer(np.diag(cov), np.diag(cov)))
                     / m ** 2 / draws)
        dev = np.abs(sigma.mean(axis=0) - (m - 1) / m * cov)
        assert np.all(dev <= 5 * se), (dev / se).max()

    def test_equal_batches_identity_bias(self):
        sched = BatchSchedule(boundaries=(50, 100, 150, 200, 250))
        assert set(np.diff(sched.boundaries)) == {50}
        self._wishart_mean_check(sched, np.eye(3), draws=20_000)

    def test_growing_batches_general_covariance(self):
        cov = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        self._wishart_mean_check(make_schedule(10_000, 9, 0.5), cov,
                                 draws=20_000)

    def test_fixed_seed_reproducible(self):
        sched = make_schedule(100_000, batch_count(100_000, 0.25), 0.5)
        first = batch_means_floor(sched, np.eye(5), draws=500, seed=3)
        assert np.array_equal(first,
                              batch_means_floor(sched, np.eye(5), draws=500, seed=3))
        assert not np.array_equal(
            first, batch_means_floor(sched, np.eye(5), draws=500, seed=4))
