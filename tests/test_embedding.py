"""Delay embedding, Kronecker features, data-matrix assembly, lag heuristic."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rrckit as rk
from rrckit import embedding
from rrckit.errors import DimensionMismatchError, FeatureBudgetError, OutOfRangeError
from testutil import autocorrelation, kron_power, window_matrix_per_slot


class TestTimeSeries:
    def test_scalar_promoted_to_column(self):
        ts = rk.TimeSeries(np.array([1.0, 2.0, 3.0]))
        assert ts.values.shape == (3, 1)
        assert ts.n == 1 and ts.T == 3

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            rk.TimeSeries(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("field, kwargs", [
        ("times", {"times": [0.0, math.nan, 2.0]}),
        ("dt", {"dt": math.nan}),
        ("dt", {"dt": math.inf}),
    ])
    def test_rejects_nonfinite_times_and_dt(self, field, kwargs):
        # They were accepted, and the CSV written from them failed to read.
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            rk.TimeSeries(np.ones(3), **kwargs)

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


@st.composite
def windowed_series(draw):
    """(values, L): a (T, n) float array with T >= L, C- or Fortran-ordered."""
    L, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    T = draw(st.integers(L, L + 8))
    values = draw(hnp.arrays(float, (T, n), elements=st.floats(allow_nan=False,
                                                                 allow_infinity=False)))
    return (np.asfortranarray(values) if draw(st.booleans()) else values), L


class TestWindowMatrix:
    """Every window is one read of L consecutive sample rows."""

    @given(windowed_series())
    @example((np.arange(3.0)[:, None], 3))          # n = 1, T = L: one window
    @example((np.arange(7.0)[:, None], 2))          # n = 1
    @example((np.arange(12.0).reshape(4, 3), 4))    # T = L
    def test_one_strided_copy_of_the_per_slot_rows(self, case):
        values, L = case
        result = embedding._window_matrix(values, L)
        expected = window_matrix_per_slot(values, L)
        assert result.shape == expected.shape
        assert result.tobytes() == expected.tobytes()
        assert result.flags.c_contiguous
        assert not np.shares_memory(result, values)
        series = rk.TimeSeries(values)
        for k in range(result.shape[1]):
            assert result[:, k].tobytes() == rk.delay_embed(series, L, k + L).tobytes()


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

    def test_slot_table_of_a_pair(self):
        # x1, x2 | x1x1, x1x2, x2x1, x2x2 | 1  onto  x1, x2, x1^2, x1x2, x2^2, 1
        table = embedding._monomial_of_slot(2, 2)
        np.testing.assert_array_equal(table, [0, 1, 2, 3, 3, 4, 5])
        assert not table.flags.writeable

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

    @pytest.mark.parametrize("p", [0, -1])
    @pytest.mark.parametrize("features", [rk.monomial_features, rk.eth_map],
                             ids=["monomial_features", "eth_map"])
    def test_order_below_one_rejected(self, features, p):
        # Order 0 returned [x; 1], m + 1 rows where C(m, 0) = 1; order -1
        # failed inside math.comb.
        with pytest.raises(ValueError, match=f"p must be >= 1, got {p}"):
            features(np.ones(3), p)

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

    def test_zero_windows_are_held_to_the_budget(self):
        # Zero windows skipped the budget, and order 5000 built its index
        # tables order by order without end.
        start = time.perf_counter()
        with pytest.raises(FeatureBudgetError) as err:
            rk.monomial_features(np.ones((3, 0)), 5000)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == "expansion needs more than the budget of 10000000 entries"
        assert rk.monomial_features(np.ones((3, 0)), 40).shape == (math.comb(43, 40), 0)

    def test_zero_windows_cost_one_window(self, monkeypatch):
        rho = math.comb(3 + 4, 4)
        monkeypatch.setattr(embedding, "DEFAULT_FEATURE_BUDGET", rho)
        assert rk.monomial_features(np.ones((3, 0)), 4).shape == (rho, 0)
        monkeypatch.setattr(embedding, "DEFAULT_FEATURE_BUDGET", rho - 1)
        with pytest.raises(FeatureBudgetError):
            rk.monomial_features(np.ones((3, 0)), 4)


def _refuses(m, p):
    try:
        embedding.check_model_size(m, p)
    except FeatureBudgetError as err:
        assert str(err) == (f"an order-{p} model on {m} window entries exceeds the "
                            f"budget of {embedding.DEFAULT_FEATURE_BUDGET} entries")
        return True
    return False


def _refused_in_closed_form(m, p):
    """Oracle: the coupling matrix and index tables, (m + p) C(m+p, p) entries,
    exceed the budget; the square, tested first, keeps math.comb small."""
    budget = embedding.DEFAULT_FEATURE_BUDGET
    return (m + p) ** 2 > budget or (m + p) * math.comb(m + p, p) > budget


class TestCheckModelSize:
    @pytest.mark.parametrize("budget", [embedding.DEFAULT_FEATURE_BUDGET, 2000, 10**15])
    def test_matches_the_closed_form(self, monkeypatch, budget):
        monkeypatch.setattr(embedding, "DEFAULT_FEATURE_BUDGET", budget)
        for m in range(1, 41):
            for p in range(1, 41):
                assert _refuses(m, p) == _refused_in_closed_form(m, p), (m, p)

    @pytest.mark.parametrize("m", [10**9, 10**18])
    @pytest.mark.parametrize("p", [10**9, 10**18])
    def test_huge_sizes_are_refused_quickly(self, m, p):
        start = time.perf_counter()
        assert _refuses(m, p) and _refused_in_closed_form(m, p)
        assert time.perf_counter() - start < 1.0


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
            window = rk.delay_embed(x, 3, 3 + k)
            np.testing.assert_array_equal(
                data.H0[:, k], np.concatenate([window, kron_power(window, 2), [1.0]])
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

    @pytest.mark.parametrize("n, L, p", [(1, 1, 3), (1, 3, 2), (2, 2, 3)])
    def test_budget_edge_is_exact(self, monkeypatch, n, L, p):
        # d_p(nL) slots for each of the T - L + 1 windows: the budget may equal it.
        x = rk.TimeSeries(np.ones((9, n)))
        entries = rk.feature_dim(n * L, p) * (9 - L + 1)
        monkeypatch.setattr(embedding, "DEFAULT_FEATURE_BUDGET", entries)
        cfg = rk.EmbeddingConfig(L=L, p=p)
        assert rk.build_data_matrices(x, x, cfg).H0.size == entries
        monkeypatch.setattr(embedding, "DEFAULT_FEATURE_BUDGET", entries - 1)
        with pytest.raises(FeatureBudgetError):
            rk.build_data_matrices(x, x, cfg)

    def test_budget_error_names_no_huge_count(self):
        # d_5000(3) has about 2400 digits; the message names the budget instead.
        x = rk.TimeSeries(np.ones(10))
        with pytest.raises(FeatureBudgetError) as err:
            rk.build_data_matrices(x, x, rk.EmbeddingConfig(L=3, p=5000))
        assert str(err.value) == "expansion needs more than the budget of 10000000 entries"

    def test_series_shorter_than_the_window(self):
        x = rk.TimeSeries(np.arange(2.0))
        with pytest.raises(OutOfRangeError, match="series of length 2 too short for L = 3"):
            embedding.paired_windows(x, x, 3)


def full_range_lag(x):
    """Oracle: the first 1/e crossing of the autocorrelation over every lag up
    to T - 1, which suggest_lag computed before it stopped early."""
    acf = autocorrelation(x, x.size - 1)
    if np.isnan(acf[0]):
        return 1
    below = np.nonzero(acf[1:] < 1.0 / np.e)[0]
    return int(below[0]) + 1 if below.size else x.size - 1


class TestLagSuggestion:
    def test_white_noise_lag_one(self):
        rng = np.random.default_rng(40)
        ts = rk.TimeSeries(rng.standard_normal(400))
        lags, suggestion, constant = rk.suggest_lag(ts)
        assert lags == [1] and suggestion == 1 and constant == []

    def test_cosine_quarter_period(self):
        t = np.arange(400)
        ts = rk.TimeSeries(np.cos(2 * np.pi * t / 40.0))
        # oracle: first lag where the biased sample autocorrelation of this
        # exact series drops under 1/e
        acf = autocorrelation(ts.values[:, 0], 20)
        expected = int(np.nonzero(acf[1:] < 1.0 / np.e)[0][0]) + 1
        assert expected == 8
        lags, suggestion, constant = rk.suggest_lag(ts)
        assert lags == [8] and suggestion == 8 and constant == []

    def test_constant_channel_reports_one(self):
        values = np.column_stack([np.full(50, 2.0), np.sin(np.arange(50.0))])
        lags, suggestion, constant = rk.suggest_lag(rk.TimeSeries(values))
        assert lags[0] == 1 and constant == [0]
        assert suggestion == max(lags)

    def test_reports_constant_channels(self):
        # Equal samples whose mean rounds (7.77), equal samples at either end
        # of the float range and zeros are constant; a channel with one
        # sample one ulp apart is not.
        rounding = np.full(400, 7.77)
        ulp = rounding.copy()
        ulp[-1] = np.nextafter(7.77, 8.0)
        values = np.column_stack([np.sin(np.arange(400.0)), rounding, np.full(400, 1.5e308),
                                  ulp, np.full(400, -1e-300), np.zeros(400)])
        lags, _, constant = rk.suggest_lag(rk.TimeSeries(values))
        assert constant == [1, 2, 4, 5]
        assert [lags[j] for j in constant] == [1, 1, 1, 1]

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
        lags, suggestion, constant = rk.suggest_lag(
            rk.TimeSeries(np.column_stack([scale * b, b])))
        assert lags == [8, 8] and suggestion == 8 and constant == []

    def test_autocorrelation_is_scale_free(self):
        # Unscaled, dot(c, c) of a 1e200 channel overflows and every lag
        # reads NaN. A power-of-two scaling keeps every ratio's bits, so its
        # lag; so does 1e200 here, on these channels' crossings.
        t = np.arange(400) * 0.1
        rng = np.random.default_rng(42)
        for x in (np.cos(2 * np.pi * t / 4), np.cumsum(rng.standard_normal(300))):
            scaled = [x, np.ldexp(x, 664), np.ldexp(x, -600), x * 1e200]  # 2**664 ~ 1e200
            lags, _, constant = rk.suggest_lag(rk.TimeSeries(np.column_stack(scaled)))
            assert lags == [full_range_lag(x)] * 4 and constant == []

    def test_first_crossing_matches_full_range(self):
        orbit = rk.integrate(rk.CHAOTIC, rk.SimulationGrid(t_end=40.0, samples=4000))
        rng = np.random.default_rng(41)
        walks = [np.cumsum(rng.standard_normal(T)) for T in (3, 4, 5, 17, 64, 300)]
        # The means of these constant channels round, which left a residue of
        # about 1e-15 in each centred sample and a defined autocorrelation.
        rounding = [np.full(400, 7.77), np.full(12000, 0.1)]
        for x in rounding:
            assert rk.suggest_lag(rk.TimeSeries(x))[2] == [0]
        channels = [orbit.values[:, 0], np.full(60, 1.5)] + rounding + walks
        for x in channels:
            lags, _, _ = rk.suggest_lag(rk.TimeSeries(x))
            assert lags == [full_range_lag(x)]
        assert full_range_lag(orbit.values[:, 0]) > 64  # needs several doublings
