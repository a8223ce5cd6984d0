"""Delay embedding, Kronecker features, data-matrix assembly, lag heuristic."""

import itertools
import math

import numpy as np
import pytest

import rrckit as rk
from rrckit import embedding
from rrckit.embedding import autocorrelation
from rrckit.errors import DimensionMismatchError, FeatureBudgetError, OutOfRangeError


class TestTimeSeries:
    def test_scalar_promoted_to_column(self):
        ts = rk.TimeSeries(np.array([1.0, 2.0, 3.0]))
        assert ts.values.shape == (3, 1)
        assert ts.n == 1 and ts.T == 3

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            rk.TimeSeries(np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rk.TimeSeries(np.empty((0, 2)))

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            rk.TimeSeries(np.ones((3, 2)), labels=["a"])


class TestDelayEmbed:
    def test_scalar_first_window(self):
        ts = rk.TimeSeries(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(rk.delay_embed(ts, 2, 2), [1.0, 2.0])

    def test_scalar_shifted_window(self):
        ts = rk.TimeSeries(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(rk.delay_embed(ts, 2, 3), [2.0, 3.0])

    def test_two_channel_blockwise(self):
        ts = rk.TimeSeries(np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
        np.testing.assert_array_equal(rk.delay_embed(ts, 2, 3), [2.0, 3.0, 20.0, 30.0])

    def test_out_of_range(self):
        ts = rk.TimeSeries(np.arange(5.0))
        with pytest.raises(OutOfRangeError):
            rk.delay_embed(ts, 3, 2)
        with pytest.raises(OutOfRangeError):
            rk.delay_embed(ts, 3, 6)

    def test_sliding_window_consistency(self):
        rng = np.random.default_rng(5)
        ts = rk.TimeSeries(rng.standard_normal((30, 3)))
        L = 4
        for t in range(L, 30):
            prev = rk.delay_embed(ts, L, t)
            cur = rk.delay_embed(ts, L, t + 1) if t < 30 else None
            if cur is None:
                break
            for j in range(3):
                np.testing.assert_array_equal(
                    cur[j * L : j * L + L - 1], prev[j * L + 1 : (j + 1) * L]
                )
                assert cur[(j + 1) * L - 1] == ts.values[t, j]


def kron_block(x, p: int, q: int) -> np.ndarray:
    """The order-q Kronecker power inside eth_map(x, p), 1 <= q <= p."""
    m = len(x)
    start = sum(m**k for k in range(1, q))
    return rk.eth_map(x, p)[start : start + m**q]


class TestKronPower:
    """The Kronecker powers, read off as eth_map's order-q blocks."""

    def test_order_two(self):
        np.testing.assert_array_equal(kron_block([1.0, 2.0], 2, 2), [1, 2, 2, 4])

    def test_order_three(self):
        np.testing.assert_array_equal(
            kron_block([1.0, 2.0], 3, 3), [1, 2, 2, 4, 2, 4, 4, 8]
        )

    def test_order_one_is_identity(self):
        x = np.array([3.0, -1.0, 0.5])
        for p in (1, 2, 3):
            np.testing.assert_array_equal(kron_block(x, p, 1), x)

    def test_matches_recursive_kron(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(3)
        expected = x.copy()
        for q in range(2, 4):
            expected = np.kron(x, expected)
            np.testing.assert_allclose(kron_block(x, 3, q), expected, rtol=1e-15)

    def test_permutation_symmetry_bit_exact(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4)
        z = kron_block(x, 3, 3)
        m = 4
        for idx in itertools.product(range(m), repeat=3):
            flat = idx[0] * m * m + idx[1] * m + idx[2]
            for perm in itertools.permutations(idx):
                other = perm[0] * m * m + perm[1] * m + perm[2]
                assert z[flat] == z[other]  # exact equality, not approx

    def test_budget_guard(self):
        # The order-9 block alone holds 10**9 entries.
        with pytest.raises(FeatureBudgetError):
            rk.eth_map(np.ones(10), 9)


class TestEthMap:
    def test_scalar_order_two(self):
        np.testing.assert_array_equal(rk.eth_map([2.0], 2), [2.0, 4.0, 1.0])

    def test_pair_order_two(self):
        out = rk.eth_map([1.0, 2.0], 2)
        np.testing.assert_array_equal(out, [1, 2, 1, 2, 2, 4, 1])
        assert out.size == rk.feature_dim(2, 2) == 7

    def test_triple_length(self):
        assert rk.eth_map([1.0, 2.0, 3.0], 2).size == 13 == rk.feature_dim(3, 2)

    def test_length_law_closed_form(self):
        for m in range(1, 11):
            for p in range(1, 6):
                total = sum(m**k for k in range(1, p + 1)) + 1
                if m == 1:
                    closed = p + 1
                else:
                    closed = m * (m**p - 1) // (m - 1) + 1
                assert rk.feature_dim(m, p) == total == closed

    def test_trailing_entry_exactly_one(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.standard_normal(rng.integers(1, 5))
            assert rk.eth_map(x, int(rng.integers(1, 4)))[-1] == 1.0


class TestMonomialFeatures:
    def test_pair_order_two(self):
        # x1, x2, x1^2, x1 x2, x2^2, 1
        np.testing.assert_array_equal(
            rk.monomial_features([1.0, 2.0], 2), [1, 2, 1, 2, 4, 1]
        )

    def test_distinct_count(self):
        for m in range(1, 6):
            for p in range(1, 5):
                assert rk.monomial_features(np.ones(m), p).size == math.comb(m + p, p)

    def test_matrix_columns_match_vector_calls(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((4, 7))
        G = rk.monomial_features(X, 3)
        for k in range(7):
            np.testing.assert_array_equal(G[:, k], rk.monomial_features(X[:, k], 3))

    def test_budget_applies_to_compressed_size(self, monkeypatch):
        X = np.ones((6, 50))
        rho = math.comb(6 + 3, 3)
        monkeypatch.setattr(embedding, "DEFAULT_FEATURE_BUDGET", rho * 50)
        assert rk.monomial_features(X, 3).shape == (rho, 50)
        monkeypatch.setattr(embedding, "DEFAULT_FEATURE_BUDGET", rho * 50 - 1)
        with pytest.raises(FeatureBudgetError):
            rk.monomial_features(X, 3)
        monkeypatch.setattr(embedding, "DEFAULT_FEATURE_BUDGET", rho)
        assert rk.monomial_features(X[:, 0], 3).shape == (rho,)
        monkeypatch.setattr(embedding, "DEFAULT_FEATURE_BUDGET", rho - 1)
        with pytest.raises(FeatureBudgetError):
            rk.monomial_features(X[:, 0], 3)


class TestBuildDataMatrices:
    def test_lag_one_linear(self):
        x = rk.TimeSeries(np.array([1.0, 2.0, 3.0]))
        data = rk.build_data_matrices(x, x, rk.EmbeddingConfig(L=1, p=1))
        np.testing.assert_array_equal(data.H0, [[1, 2, 3], [1, 1, 1]])
        np.testing.assert_array_equal(data.H1, [[1, 2, 3]])

    def test_lag_two_columns(self):
        x = rk.TimeSeries(np.array([1.0, 2.0, 3.0]))
        data = rk.build_data_matrices(x, x, rk.EmbeddingConfig(L=2, p=1))
        assert data.H0.shape == (3, 2)
        np.testing.assert_array_equal(data.H0[:, 0], [1, 2, 1])
        np.testing.assert_array_equal(data.H0[:, 1], [2, 3, 1])

    def test_dimensions_large_window(self):
        rng = np.random.default_rng(9)
        x = rk.TimeSeries(rng.standard_normal((100, 3)))
        data = rk.build_data_matrices(x, x, rk.EmbeddingConfig(L=7, p=2))
        assert data.H0.shape == (463, 94)
        assert data.H1.shape == (21, 94)

    def test_columns_match_pointwise_maps(self):
        rng = np.random.default_rng(10)
        x = rk.TimeSeries(rng.standard_normal((20, 2)))
        y = rk.TimeSeries(rng.standard_normal((20, 2)))
        cfg = rk.EmbeddingConfig(L=3, p=2)
        data = rk.build_data_matrices(x, y, cfg)
        assert data.H0.shape[1] == 20 - 3 + 1
        for k in (0, 5, 17):
            np.testing.assert_array_equal(
                data.H0[:, k], rk.eth_map(rk.delay_embed(x, 3, 3 + k), 2)
            )
            np.testing.assert_array_equal(
                data.H1[:, k], rk.delay_embed(y, 3, 3 + k)
            )

    def test_length_mismatch(self):
        x = rk.TimeSeries(np.arange(5.0))
        y = rk.TimeSeries(np.arange(6.0))
        with pytest.raises(DimensionMismatchError):
            rk.build_data_matrices(x, y, rk.EmbeddingConfig(L=1, p=1))

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setattr(embedding, "DEFAULT_FEATURE_BUDGET", 1000)
        x = rk.TimeSeries(np.arange(50.0))
        with pytest.raises(FeatureBudgetError):
            rk.build_data_matrices(x, x, rk.EmbeddingConfig(L=10, p=3))


class TestLagSuggestion:
    def test_white_noise_lag_one(self):
        rng = np.random.default_rng(40)
        ts = rk.TimeSeries(rng.standard_normal(400))
        lags, suggestion = rk.suggest_lag(ts)
        assert lags == [1] and suggestion == 1

    def test_cosine_quarter_period(self):
        t = np.arange(400)
        ts = rk.TimeSeries(np.cos(2 * np.pi * t / 40.0))
        # oracle: first lag where the biased sample autocorrelation of this
        # exact series drops under 1/e
        acf = autocorrelation(ts.values[:, 0], 20)
        expected = int(np.nonzero(acf[1:] < 1.0 / np.e)[0][0]) + 1
        assert expected == 8
        lags, suggestion = rk.suggest_lag(ts)
        assert lags == [8] and suggestion == 8

    def test_constant_channel_reports_one(self):
        values = np.column_stack([np.full(50, 2.0), np.sin(np.arange(50.0))])
        lags, suggestion = rk.suggest_lag(rk.TimeSeries(values))
        assert lags[0] == 1
        assert suggestion == max(lags)

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            rk.suggest_lag(rk.TimeSeries(np.array([1.0, 2.0])))

    @pytest.mark.parametrize("scale", [1e200, 1.5e308, 1e-300])
    def test_channel_magnitude_does_not_move_its_lag(self, scale):
        # Unscaled, the sums of the centred channel overflow (a mean near the
        # float maximum, dot(c, c) at 1e200) or underflow to 0 (1e-300), and
        # the scaled channel was reported at lag 1.
        t = np.arange(400) * 0.1
        b = np.cos(2 * np.pi * t / 4)
        lags, suggestion = rk.suggest_lag(rk.TimeSeries(np.column_stack([scale * b, b])))
        assert lags == [8, 8] and suggestion == 8

    def test_autocorrelation_is_scale_free(self):
        # Unscaled, dot(c, c) of the 1e200 channel overflows and every lag
        # reads NaN.
        t = np.arange(400) * 0.1
        b = np.cos(2 * np.pi * t / 4)
        expected = autocorrelation(b, 3)
        for exponent in (664, -600):  # 2**664 is about 1e200
            assert np.array_equal(autocorrelation(np.ldexp(b, exponent), 3), expected)
        np.testing.assert_allclose(autocorrelation(b * 1e200, 3), expected, rtol=1e-12)

    def test_first_crossing_matches_full_range(self):
        # Oracle: the first 1/e crossing of the autocorrelation over every
        # lag up to T - 1, which suggest_lag computed before it stopped early.
        def full_range_lag(x):
            acf = autocorrelation(x, x.size - 1)
            if np.isnan(acf[0]):
                return 1
            below = np.nonzero(acf[1:] < 1.0 / np.e)[0]
            return int(below[0]) + 1 if below.size else x.size - 1

        orbit = rk.integrate(rk.CHAOTIC, rk.SimulationGrid(t_end=40.0, samples=4000))
        rng = np.random.default_rng(41)
        walks = [np.cumsum(rng.standard_normal(T)) for T in (3, 4, 5, 17, 64, 300)]
        # The means of these constant channels round, which left a residue of
        # about 1e-15 in each centred sample and a defined autocorrelation.
        rounding = [np.full(400, 7.77), np.full(12000, 0.1)]
        for x in rounding:
            assert np.isnan(autocorrelation(x, 5)).all()
        channels = [orbit.values[:, 0], np.full(60, 1.5)] + rounding + walks
        for x in channels:
            lags, _ = rk.suggest_lag(rk.TimeSeries(x))
            assert lags == [full_range_lag(x)]
        assert full_range_lag(orbit.values[:, 0]) > 64  # needs several doublings
