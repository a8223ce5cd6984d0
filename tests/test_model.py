"""Model training, transform, rollout, selector laws, persistence."""

import dataclasses
import functools
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rrckit as rk
from rrckit.cli import main
from rrckit.embedding import DEFAULT_FEATURE_BUDGET, _window_matrix
from rrckit.errors import (
    DimensionMismatchError,
    FeatureBudgetError,
    ModelFormatError,
    ModelVersionError,
    NumericBlowupError,
)
from rrckit.io import write_timeseries_csv
from testutil import (
    as_dense_model,
    bounded_orbit,
    dense_solvent,
    linear_orbit,
    noisy_orbit,
    residual_certificate,
    stable_linear_system,
)

LINEAR_CFG = rk.EmbeddingConfig(L=1, p=1)
TIGHT = rk.SolverConfig(delta=1e-10, epsilon=1e-12)


def geometric_model(ratio=0.9, n_samples=100):
    ts = rk.TimeSeries(ratio ** np.arange(n_samples))
    return rk.train_autoregressive(ts, LINEAR_CFG, TIGHT, seed=0), ts


class TestTraining:
    def test_scalar_geometric_map(self):
        model, ts = geometric_model()
        for x in ts.values[:-1, 0]:
            _, y_sel = rk.transform(model, np.array([x]))
            assert abs(y_sel[0] - 0.9 * x) <= 1e-8

    def test_scalar_geometric_forecast(self):
        model, _ = geometric_model()
        fc = rk.forecast(model, np.array([1.0]), 10)
        np.testing.assert_allclose(
            fc.values.ravel(), 0.9 ** np.arange(1, 11), atol=1e-6
        )

    def test_constant_series_fixed_point(self):
        ts = rk.TimeSeries(np.full(50, 3.25))
        model = rk.train_autoregressive(ts, LINEAR_CFG, TIGHT, seed=0)
        fc = rk.forecast(model, np.array([3.25]), 100)
        np.testing.assert_allclose(fc.values, 3.25, atol=1e-10)

    def test_needs_two_samples_beyond_lag(self):
        ts = rk.TimeSeries(np.arange(3.0))
        with pytest.raises(ValueError):
            rk.train_autoregressive(ts, rk.EmbeddingConfig(L=3, p=1), TIGHT)

    def test_shape_mismatch_rejected(self):
        x = rk.TimeSeries(np.arange(10.0))
        y = rk.TimeSeries(np.arange(9.0))
        with pytest.raises(DimensionMismatchError):
            rk.train_rrc(x, y, LINEAR_CFG, TIGHT)

    def test_rank_zero_surfaces(self):
        ts = rk.TimeSeries(np.linspace(0.0, 1.0, 20))
        with pytest.raises(rk.RankZeroError):
            rk.train_autoregressive(ts, LINEAR_CFG, rk.SolverConfig(delta=1e9))

    def test_row_support_bounded_by_rank(self):
        rng = np.random.default_rng(58)
        orbit = bounded_orbit(rng, 3, 70)
        model = rk.train_autoregressive(
            rk.TimeSeries(orbit),
            rk.EmbeddingConfig(L=2, p=2),
            rk.SolverConfig(delta=1e-6, epsilon=1e-6),
            seed=8,
        )
        row_nnz = np.count_nonzero(model.W_hat, axis=1)
        assert np.all(row_nnz <= model.diagnostics.rank)

    def test_one_step_consistency_certificate(self):
        rng = np.random.default_rng(50)
        orbit = bounded_orbit(rng, 3, 60)
        ts = rk.TimeSeries(orbit)
        cfg = rk.EmbeddingConfig(L=2, p=2)
        model = rk.train_autoregressive(
            ts, cfg, rk.SolverConfig(delta=1e-8, epsilon=1e-8), seed=1
        )
        agg = float(np.sqrt(np.sum(np.square(model.diagnostics.column_bounds))))
        x_in = rk.TimeSeries(orbit[:-1])
        y_in = rk.TimeSeries(orbit[1:])
        for t in range(cfg.L, x_in.T + 1):
            window = rk.delay_embed(x_in, cfg.L, t)
            y_dilated, _ = rk.transform(model, window)
            target = rk.delay_embed(y_in, cfg.L, t)
            assert np.linalg.norm(y_dilated - target) <= agg


class TestDistinctMonomialPath:
    CFG = rk.EmbeddingConfig(L=2, p=3)
    SOLVER = rk.SolverConfig(delta=1e-8, epsilon=1e-8)

    def fit(self, orbit, **kwargs):
        ts = rk.TimeSeries(orbit)
        return rk.train_autoregressive(ts, self.CFG, self.SOLVER, **kwargs)

    def test_transform_equals_compressed_kronecker_map(self):
        orbit = bounded_orbit(np.random.default_rng(59), 3, 80)
        model = self.fit(orbit, seed=0)
        R = rk.compression_matrix_exact(3, 2, 3)
        assert model.R == R
        ts = rk.TimeSeries(orbit)
        for t in (2, 31, 80):
            window = rk.delay_embed(ts, 2, t)
            y_dilated, _ = rk.transform(model, window)
            expected = model.W_hat @ rk.compress(R, rk.eth_map(window, 3))
            assert np.array_equal(y_dilated, expected)

    def test_fit_and_rollout_skip_the_kronecker_oracles(self, monkeypatch, tmp_path):
        def forbidden(*args, **kwargs):
            raise AssertionError("paper-definition oracle called on the fit path")

        for module in (rk, rk.compression, rk.embedding, rk.model):
            for name in ("compress", "compression_matrix", "compression_matrix_exact",
                         "eth_map", "build_data_matrices", "_monomial_of_slot"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        svd_calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            svd_calls.append(args[0].shape)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        model, orbit = TestPersistence().make_model()
        assert len(svd_calls) == 1
        fc = rk.forecast(model, orbit[-2:].T.reshape(-1), 25)
        assert fc.values.shape == (25, 2) and len(svd_calls) == 1
        rk.save_model(model, tmp_path / "model.json")
        assert rk.load_model(tmp_path / "model.json") == model

    def test_seed_is_provenance_only(self):
        orbit = bounded_orbit(np.random.default_rng(61), 3, 80)
        a = self.fit(orbit, seed=0)
        b = self.fit(orbit, seed=9)
        assert np.array_equal(a.W_hat, b.W_hat)
        assert b.diagnostics.seed == 9
        with pytest.raises(ValueError):
            self.fit(orbit, seed=-1)

    def test_negative_seed_builds_no_feature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("features built before the seed was checked")

        monkeypatch.setattr(rk.model, "monomial_features", forbidden)
        x = rk.TimeSeries(bounded_orbit(np.random.default_rng(61), 3, 80))
        cfg, solver = rk.EmbeddingConfig(L=2, p=3), rk.SolverConfig(delta=1e-8)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            rk.train_autoregressive(x, cfg, solver, seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            rk.train_rrc(x, x, cfg, solver, seed=-1)


@functools.lru_cache(maxsize=None)
def _largest_finite_base(p):
    """The largest double whose order-p power in monomial_features, the
    left-to-right p-fold product, is finite (a bisection on the bit patterns)."""
    def finite_power(bits):
        x = np.array([bits], dtype=np.int64).view(np.float64)
        with np.errstate(over="ignore"):
            return np.isfinite(rk.monomial_features(x, p)[p - 1])

    lo, hi = (int(np.float64(v).view(np.int64)) for v in (1.0, np.finfo(float).max))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if finite_power(mid) else (lo, mid - 1)
    return float(np.int64(lo).view(np.float64))


def assert_overflow_rule(values, p, L=2):
    """_finite_features raises exactly when monomial_features of the same
    windows holds a non-finite value. It then names a channel holding the
    largest entry, whose own order-p power overflows; otherwise it returns
    those features bit for bit."""
    x = rk.TimeSeries(values, labels=[f"c{j}" for j in range(values.shape[1])])
    windows = _window_matrix(x.values, L)
    with np.errstate(over="ignore", invalid="ignore"):
        G = rk.monomial_features(windows, p)
        powers = rk.monomial_features(windows.reshape(1, -1), p)[p - 1]
    if np.all(np.isfinite(G)):
        assert rk.model._finite_features(windows, x, p).tobytes() == G.tobytes()
        return
    with pytest.raises(ValueError) as info:
        rk.model._finite_features(windows, x, p)
    j = int(re.fullmatch(rf"order-{p} features overflow: channel c(\d+) reaches \S+; "
                         "rescale it", str(info.value)).group(1))
    peaks = np.abs(windows).reshape(x.n, -1).max(axis=1)
    assert peaks[j] == peaks.max()
    assert f"reaches {peaks[j]:.3g};" in str(info.value)
    assert not np.all(np.isfinite(powers.reshape(x.n, -1)[j]))


class TestOverflowRule:
    """Overflow is decided from the window peaks before any feature is built."""

    def test_overflowing_series_builds_no_feature(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("features built for an overflowing series")

        monkeypatch.setattr(rk.model, "monomial_features", forbidden)
        t = np.arange(40) * 0.1
        x = rk.TimeSeries(np.column_stack([np.cos(t), 1e200 * np.sin(t)]), labels=["a", "b"])
        cfg, solver = rk.EmbeddingConfig(L=2, p=2), rk.SolverConfig(delta=1e-8)
        message = "order-2 features overflow: channel b reaches 1e+200; rescale it"
        with pytest.raises(ValueError, match=re.escape(message)):
            rk.train_autoregressive(x, cfg, solver)
        with pytest.raises(ValueError, match=re.escape(message)):
            rk.train_rrc(x, x, cfg, solver)

    # At p = 1 the edge is the float maximum, past which no series value lies.
    @pytest.mark.parametrize("p, above", [
        pytest.param(p, above, id=f"p{p}-{'past-edge' if above else 'edge'}")
        for p in (1, 2, 3, 4) for above in (False, True) if p > 1 or not above
    ])
    @pytest.mark.parametrize("channel", [0, 1, 2])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    def test_edge_of_the_largest_power(self, p, above, sign, channel):
        peak = _largest_finite_base(p)
        if above:
            peak = math.nextafter(peak, math.inf)
        values = np.cos(np.arange(18.0)).reshape(6, 3)
        values[3, channel] = sign * peak
        assert_overflow_rule(values, p)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), p=st.integers(1, 4), n=st.integers(1, 3))
    def test_windows_near_the_edge(self, data, p, n):
        # Entries within 3 ulps of the edge, of either sign, and the edge
        # scaled by a unit in [-1, 1].
        edge = int(np.float64(_largest_finite_base(p)).view(np.int64))
        near = st.tuples(st.sampled_from([1.0, -1.0]), st.integers(-3, 3)).map(
            lambda sk: sk[0] * float(np.int64(edge + sk[1]).view(np.float64)))
        scaled = st.floats(-1.0, 1.0).map(lambda u: u * _largest_finite_base(p))
        entries = st.one_of(near, scaled).filter(math.isfinite)
        T = data.draw(st.integers(2, 5))
        values = data.draw(hnp.arrays(np.float64, (T, n), elements=entries))
        assert_overflow_rule(values, p, L=data.draw(st.integers(1, 2)))


@pytest.fixture(scope="module")
def chaotic_orbit():
    return rk.integrate(rk.CHAOTIC, rk.SimulationGrid(t_end=120.0, samples=12000))


class TestShiftRows:
    """Autoregressive fits write shift rows exactly and solve the newest rows."""

    @pytest.mark.parametrize("n, L, p", [(3, 3, 2), (2, 3, 3), (1, 4, 2)])
    def test_shift_rows_are_exact(self, n, L, p):
        orbit = bounded_orbit(np.random.default_rng(62 + L + p), n, 90)
        model = rk.train_autoregressive(
            rk.TimeSeries(orbit), rk.EmbeddingConfig(L=L, p=p),
            rk.SolverConfig(delta=1e-8, epsilon=1e-8), seed=0,
        )
        _, G, H1 = dense_solvent(
            model, rk.TimeSeries(orbit[:-1]), rk.TimeSeries(orbit[1:])
        )
        residual = model.W_hat @ G - H1
        diag = model.diagnostics
        shift = [i for i in range(n * L) if i not in model.selector_indices]
        assert len(shift) == n * (L - 1)
        for i in shift:
            assert np.flatnonzero(model.W_hat[i]).tolist() == [i + 1]
            assert model.W_hat[i, i + 1] == 1.0
            assert np.all(residual[i] == 0.0)
            assert diag.column_residuals[i] == 0.0 <= diag.column_bounds[i]
            # The recorded bound covers the row's own certificate.
            cert = residual_certificate(G.T, H1[i], model.W_hat[i], diag.delta)
            assert 0.0 < cert <= diag.column_bounds[i]

    def test_p3_fit_factors_once_and_svds_only_rho_square(self, monkeypatch, chaotic_orbit):
        calls = {"svd": [], "qr": []}
        for name in calls:
            real = getattr(np.linalg, name)

            def counting(a, *args, _real=real, _name=name, **kwargs):
                calls[_name].append(np.shape(a))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        model = rk.train_autoregressive(
            rk.TimeSeries(chaotic_orbit.values[:6000]), rk.EmbeddingConfig(L=3, p=3),
            rk.SolverConfig(delta=1e-8, epsilon=1e-8), seed=0,
        )
        rho = model.W_hat.shape[1]
        assert rho == 220
        # 5999 - 3 + 1 = 5997 windows; rho features and the n newest-slot
        # targets, factored in three row blocks, then the stack of their triangles.
        *blocks, stack = calls["qr"]
        assert blocks == [(1999, rho + 3)] * 3
        assert sum(rows for rows, _ in blocks) == 5997
        assert stack == (3 * (rho + 3), rho + 3)
        assert calls["svd"] == [(rho, rho)]

    def test_only_target_fits_solve_every_row(self, monkeypatch):
        solved = []
        real = rk.model.sparse_lstsq

        def recording(A, Y, cfg):
            solved.append(Y.shape[1])
            return real(A, Y, cfg)

        monkeypatch.setattr(rk.model, "sparse_lstsq", recording)
        orbit = bounded_orbit(np.random.default_rng(63), 2, 90)
        cfg = rk.EmbeddingConfig(L=3, p=2)
        solver = rk.SolverConfig(delta=1e-8, epsilon=1e-8)
        rk.train_autoregressive(rk.TimeSeries(orbit), cfg, solver)
        rk.train_rrc(rk.TimeSeries(orbit[:-1]), rk.TimeSeries(orbit[1:]), cfg, solver)
        assert solved == [2, 6]


def test_full_rank_residuals_stay_within_their_bounds():
    """At full rank the certificate has no slack term, so only its rounding
    term covers the computed residual; without it 7 of these seeds record a
    row whose residual exceeds its bound."""
    misses = []
    for seed in range(62, 72):
        orbit = bounded_orbit(np.random.default_rng(seed), 2, 90)
        diag = rk.train_autoregressive(
            rk.TimeSeries(orbit), rk.EmbeddingConfig(L=4, p=1),
            rk.SolverConfig(delta=1e-8, epsilon=1e-8),
        ).diagnostics
        misses += [(seed, i) for i, (res, bound)
                   in enumerate(zip(diag.column_residuals, diag.column_bounds))
                   if res > bound]
    assert misses == []


def test_target_fit_keeps_exact_sparse_rows(chaotic_orbit):
    """A --target fit whose exact answer is 1-sparse stays (nearly) sparse.

    Each target row is 2x one input slot, so row i's exact answer is a single
    2.0 on slot i's linear monomial. The greedy solver reaches it exactly on
    some rows and leaves rounding-level weight (about 3e-4) on the others;
    which rows come out exact depends on rounding (the SVD projection gave 4
    of 9 rows and 119 nonzeros at one BLAS thread, 5 and 105 at two). Cutting
    the restricted solves at delta spreads every row over about 43 columns
    with off-coefficients up to 1.7e-2, and fails here.
    """
    v = chaotic_orbit.values[:6000]
    model = rk.train_rrc(
        rk.TimeSeries(v), rk.TimeSeries(2.0 * v), rk.EmbeddingConfig(L=3, p=2),
        rk.SolverConfig(delta=1e-8, epsilon=1e-8),
    )
    W = model.W_hat
    slots = np.arange(W.shape[0])
    assert np.abs(W[slots, slots] - 2.0).max() <= 1e-6
    off = W.copy()
    off[slots, slots] = 0.0
    assert np.abs(off).max() <= 1e-3
    assert np.sum(np.count_nonzero(W, axis=1) == 1) >= 2
    assert model.diagnostics.nnz <= 200


@pytest.mark.parametrize("fit", ["p2", "p3", "target"])
def test_column_residuals_are_the_rows_of_residual_fro(chaotic_orbit, fit):
    """Every residual figure comes from one product, W_hat G - H1, so the
    column residuals add up, in squares, to residual_fro. The solver's own
    per-column products differ from it by up to 1.1e-6 relative at p=3."""
    v = chaotic_orbit.values[:6000]
    solver = rk.SolverConfig(delta=1e-8, epsilon=1e-8, max_iter=50)
    if fit == "target":
        model = rk.train_rrc(rk.TimeSeries(v), rk.TimeSeries(2.0 * v),
                             rk.EmbeddingConfig(L=3, p=2), solver)
    else:
        model = rk.train_autoregressive(
            rk.TimeSeries(v), rk.EmbeddingConfig(L=3, p=int(fit[1])), solver, seed=42)
    diag = model.diagnostics
    residuals = np.array(diag.column_residuals)
    assert math.sqrt(np.sum(residuals ** 2)) == pytest.approx(diag.residual_fro, rel=1e-12)
    assert np.all(residuals <= np.array(diag.column_bounds))
    if fit != "target":  # an autoregressive fit's shift rows are exact
        shift = [i for i in range(9) if i not in model.selector_indices]
        assert len(shift) == 6 and all(residuals[i] == 0.0 for i in shift)


# Ends of the held-out windows: seeded sample counts past the 6000 training samples.
HELD_OUT_ENDS = np.random.default_rng(0).integers(6000, 11000, 40)


@pytest.fixture(scope="module")
def readme_p2_model(chaotic_orbit):
    """The README's chaotic p=2 model, trained on the orbit's first 6000 samples."""
    train = rk.TimeSeries(chaotic_orbit.values[:6000], dt=chaotic_orbit.dt)
    return rk.train_autoregressive(
        train, rk.EmbeddingConfig(L=3, p=2),
        rk.SolverConfig(delta=1e-8, epsilon=1e-8, max_iter=50), seed=42,
    )


def held_out_counts(series, model):
    """(bounded, tracked) over the 40 held-out windows of series, 1000 steps each.

    A rollout is bounded when the guard stays silent and it stays within
    twice the training range of series' first 6000 samples (criterion 7(b)'s
    rule). It is tracked when every channel stays within 0.1 of that
    channel's training range of series for all 1000 steps; a guard trip
    counts as neither.
    """
    train = series.values[:6000]
    lo, hi = train.min(axis=0), train.max(axis=0)
    center, half = (lo + hi) / 2, (hi - lo) / 2
    bounded = tracked = 0
    for end in HELD_OUT_ENDS:
        window = rk.delay_embed(series, model.L, int(end))
        try:
            rollout = rk.forecast(model, window, 1000)
        except NumericBlowupError:
            continue
        bounded += bool(np.all(np.abs(rollout.values - center) <= 2 * half))
        truth = series.values[end : end + 1000]
        tracked += bool(np.all(np.abs(rollout.values - truth) <= 0.1 * (hi - lo)))
    return bounded, tracked


def test_readme_p2_model_held_out_rollouts(chaotic_orbit, readme_p2_model):
    """The README's chaotic p=2 model rolls out from held-out windows. The
    floors are today's counts: most windows still diverge."""
    bounded, tracked = held_out_counts(chaotic_orbit, readme_p2_model)
    assert bounded >= 3
    assert tracked >= 3


def test_noisy_p2_model_held_out_rollouts(chaotic_orbit):
    """The README's p=2 fit of noisy observations tracks every held-out window.

    Noise at 1e-4 of each channel's std (seed 7) is added to the 6000
    training samples only. The rollouts start from clean held-out windows
    and are scored against the clean orbit. The noise conditions the fit
    (full rank 55) and acts as a regularizer, so all 40 rollouts stay
    bounded and tracked, where the noise-free fit keeps 3.
    """
    train = rk.TimeSeries(noisy_orbit(chaotic_orbit.values[:6000], 1e-4, 7))
    model = rk.train_autoregressive(
        train, rk.EmbeddingConfig(L=3, p=2),
        rk.SolverConfig(delta=1e-8, epsilon=1e-8, max_iter=50), seed=42,
    )
    bounded, tracked = held_out_counts(chaotic_orbit, model)
    assert bounded >= 40
    assert tracked >= 40


def test_forecast_rows_equal_iterated_transform(chaotic_orbit, readme_p2_model):
    """200 steps of forecast from three held-out windows match iterated
    transform bit for bit; the first two held-out windows diverge before
    step 200."""
    model = readme_p2_model
    for end in HELD_OUT_ENDS[2:5]:
        window = rk.delay_embed(chaotic_orbit, model.L, int(end))
        rollout = rk.forecast(model, window, 200).values
        for row in rollout:
            # The dilated output is the next window: its shift rows are exact.
            window, selected = rk.transform(model, window)
            assert row.tobytes() == selected.tobytes()


def test_forecast_transforms_the_windows_of_its_sample_buffer(
        chaotic_orbit, readme_p2_model, monkeypatch):
    """Step k transforms the window of the seed samples followed by the k
    rows predicted so far, as delay_embed lays it out."""
    model, end = readme_p2_model, int(HELD_OUT_ENDS[2])
    windows, real_transform = [], rk.model.transform

    def recording(model, window):
        windows.append(np.asarray(window, dtype=float).ravel().copy())
        return real_transform(model, window)

    monkeypatch.setattr(rk.model, "transform", recording)
    rollout = rk.forecast(model, rk.delay_embed(chaotic_orbit, model.L, end), 200).values
    samples = rk.TimeSeries(np.vstack([chaotic_orbit.values[end - model.L : end], rollout]))
    assert len(windows) == 200
    for k, window in enumerate(windows):
        assert window.tobytes() == rk.delay_embed(samples, model.L, model.L + k).tobytes()


class TestSelector:
    def test_default_offset_selects_newest(self):
        rng = np.random.default_rng(51)
        ts = rk.TimeSeries(rng.standard_normal((40, 2)))
        model = rk.train_autoregressive(
            ts, rk.EmbeddingConfig(L=3, p=1), rk.SolverConfig(delta=1e-8), seed=2
        )
        np.testing.assert_array_equal(model.selector_indices, [2, 5])
        window = rk.delay_embed(rk.TimeSeries(ts.values[:-1]), 3, 10)
        y_dilated, y_sel = rk.transform(model, window)
        np.testing.assert_array_equal(y_sel, y_dilated[[2, 5]])


class TestTransform:
    def test_zero_window_returns_bias_column(self):
        ts = rk.TimeSeries(np.full(30, 2.0))
        model = rk.train_autoregressive(ts, LINEAR_CFG, TIGHT, seed=0)
        y_dilated, _ = rk.transform(model, np.zeros(1))
        np.testing.assert_array_equal(y_dilated, model.W_hat[:, -1])

    def test_window_size_checked(self):
        model, _ = geometric_model()
        with pytest.raises(DimensionMismatchError):
            rk.transform(model, np.ones(2))

    def test_matches_held_out_one_step(self):
        rng = np.random.default_rng(53)
        orbit = bounded_orbit(rng, 2, 80)
        train = rk.TimeSeries(orbit[:60])
        model = rk.train_autoregressive(
            train, rk.EmbeddingConfig(L=2, p=2), rk.SolverConfig(delta=1e-9, epsilon=1e-10), seed=3
        )
        window = rk.delay_embed(rk.TimeSeries(orbit), 2, 70)
        _, y_sel = rk.transform(model, window)
        residual_scale = max(model.diagnostics.residual_fro, 1e-6)
        assert np.linalg.norm(y_sel - orbit[70]) <= residual_scale


class TestForecast:
    def test_window_slide_law(self):
        rng = np.random.default_rng(54)
        orbit = bounded_orbit(rng, 2, 50)
        ts = rk.TimeSeries(orbit)
        model = rk.train_autoregressive(
            ts, rk.EmbeddingConfig(L=3, p=2), rk.SolverConfig(delta=1e-9, epsilon=1e-10), seed=4
        )
        window = rk.delay_embed(ts, 3, ts.T)
        step = rk.forecast(model, window, 1)
        extended = rk.TimeSeries(np.vstack([orbit, step.values]))
        expected_next = rk.delay_embed(extended, 3, extended.T)
        manual = window.copy()
        for j in range(2):
            manual[j * 3 : j * 3 + 2] = window[j * 3 + 1 : (j + 1) * 3]
            manual[(j + 1) * 3 - 1] = step.values[0, j]
        np.testing.assert_array_equal(manual, expected_next)

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(55)
        for n in (2, 3, 4):
            A = stable_linear_system(rng, n, radius=0.95)
            orbit = linear_orbit(A, rng.standard_normal(n), 90)
            ts = rk.TimeSeries(orbit)
            model = rk.train_autoregressive(
                ts, LINEAR_CFG, rk.SolverConfig(delta=1e-12, epsilon=0.0), seed=5
            )
            x_in = rk.TimeSeries(orbit[:-1])
            y_out = rk.TimeSeries(orbit[1:])
            W_bar, _, _ = dense_solvent(model, x_in, y_out)
            learned = model.W_hat @ model.R.to_dense()
            dense = W_bar @ model.R.to_dense()
            assert np.linalg.norm(learned - dense) <= 1e-8
            fc = rk.forecast(model, orbit[-1], 50)
            truth = linear_orbit(A, orbit[-1], 50)[1:]
            assert np.max(np.abs(fc.values - truth)) <= 1e-6

    def test_blowup_guard_raises_with_step(self):
        ts = rk.TimeSeries(2.0 ** np.arange(20))  # doubling map
        model = rk.train_autoregressive(ts, LINEAR_CFG, TIGHT, seed=0)
        with pytest.raises(NumericBlowupError) as err:
            rk.forecast(model, np.array([1.0]), 200)
        assert err.value.step > 0
        assert "step" in str(err.value)

    def test_horizon_validated(self):
        model, _ = geometric_model()
        with pytest.raises(ValueError):
            rk.forecast(model, np.array([1.0]), 0)

    @pytest.mark.parametrize("guard_factor", [np.nan, 0.0, -1.0])
    def test_guard_factor_validated(self, guard_factor):
        # NaN would switch the guard off; 0 and -1 would stop every rollout at step 1
        model, _ = geometric_model()
        with pytest.raises(ValueError, match="guard_factor"):
            rk.forecast(model, np.array([1.0]), 5, guard_factor=guard_factor)


    def test_seed_window_size_checked(self):
        model, _ = geometric_model()
        with pytest.raises(DimensionMismatchError, match="seed window has 2 entries, expected 1"):
            rk.forecast(model, np.ones(2), 5)

    def test_guard_measures_from_the_training_centre(self, chaotic_orbit):
        """A p=1 model of the orbit shifted by 1e7 rolls out 200 steps from the
        end of its training samples and stays within 5 of the shifted truth
        (1.60 measured). Its predictions' magnitudes, about 1e7, exceed the
        guard of 1e6 times the training range; their distances from the
        training centre do not."""
        shifted = chaotic_orbit.values + 1e7
        train = rk.TimeSeries(shifted[:6000])
        model = rk.train_autoregressive(
            train, rk.EmbeddingConfig(L=3, p=1),
            rk.SolverConfig(delta=1e-8, epsilon=1e-8, max_iter=50), seed=0,
        )
        rollout = rk.forecast(model, rk.delay_embed(train, 3, 6000), 200).values
        assert np.max(np.abs(rollout)) > 1e6 * np.ptp(shifted[:6000], axis=0).max()
        assert np.max(np.abs(rollout - shifted[6000:6200])) <= 5.0


class TestSparseVsDenseEstimate:
    def test_planted_consistent_problem(self):
        # One instance of the sparse-vs-dense coupling estimate; the
        # acceptance suite sweeps twenty.
        rng = np.random.default_rng(56)
        n, L, p = 3, 1, 2
        orbit = bounded_orbit(rng, n, 50)
        x = rk.TimeSeries(orbit)
        R = rk.compression_matrix(n, L, p, seed=6)
        W_true = rng.standard_normal((n, R.rows))
        targets = np.array(
            [W_true @ rk.compress(R, rk.eth_map(row, p)) for row in orbit]
        )
        y = rk.TimeSeries(targets)
        G_probe = rk.compress(
            R, rk.build_data_matrices(x, y, rk.EmbeddingConfig(L=L, p=p)).H0
        )
        svals = np.linalg.svd(G_probe.T, compute_uv=False)
        gaps = svals[:-1] / svals[1:]
        k = int(np.argmax(gaps[1:-1])) + 1
        delta = float(np.sqrt(svals[k] * svals[k + 1]))
        model = rk.train_rrc(
            x, y, rk.EmbeddingConfig(L=L, p=p),
            rk.SolverConfig(delta=delta, epsilon=1e-12), seed=6,
        )
        W_bar, G, _ = dense_solvent(model, x, y)
        r = model.diagnostics.rank
        lhs = np.linalg.norm(model.W_hat @ G - W_bar @ G)
        K = np.sqrt(n * L * (min(G.shape[0], G.shape[1]) - r)) * (
            np.sqrt(r) * np.linalg.norm(model.W_hat) + np.linalg.norm(W_bar)
        )
        assert lhs <= K * delta


# The compression block a version-1 file of TestPersistence's model held.
COMPRESSION_BLOCK = {
    "rho": 15, "d": 21, "group_spread": 0.0,
    "groups": [[0], [1], [2], [3], [4], [5, 8], [6, 12], [7, 16], [9], [10, 13],
               [11, 17], [14], [15, 18], [19], [20]],
}


class TestPersistence:
    def make_model(self):
        rng = np.random.default_rng(57)
        A = stable_linear_system(rng, 2, radius=0.9)
        orbit = linear_orbit(A, rng.standard_normal(2), 59)
        return rk.train_autoregressive(
            rk.TimeSeries(orbit),
            rk.EmbeddingConfig(L=2, p=2),
            rk.SolverConfig(delta=1e-9, epsilon=1e-9),
            seed=7,
        ), orbit

    def test_round_trip_equality_and_bits(self, tmp_path):
        model, orbit = self.make_model()
        path = tmp_path / "model.json"
        rk.save_model(model, path)
        loaded = rk.load_model(path)
        assert loaded == model
        window = rk.delay_embed(rk.TimeSeries(orbit), 2, 40)
        a_dil, a_sel = rk.transform(model, window)
        b_dil, b_sel = rk.transform(loaded, window)
        assert np.array_equal(a_dil, b_dil) and np.array_equal(a_sel, b_sel)
        fa = rk.forecast(model, window, 25)
        fb = rk.forecast(loaded, window, 25)
        assert np.array_equal(fa.values, fb.values)

    def test_corrupted_header_is_format_error(self, tmp_path):
        model, _ = self.make_model()
        path = tmp_path / "model.json"
        rk.save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format"] = "zzz"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            rk.load_model(path)
        path.write_text("not json at all {")
        with pytest.raises(ModelFormatError):
            rk.load_model(path)

    def test_version_bump_rejected(self, tmp_path):
        model, _ = self.make_model()
        path = tmp_path / "model.json"
        rk.save_model(model, path)
        doc = json.loads(path.read_text())
        for version in (99, 0, True, 2.0):
            doc["schema_version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(ModelVersionError):
                rk.load_model(path)

    def test_version_1_document_is_refused(self, tmp_path, capsys):
        # This model as the version-1 writer wrote it: version 2's keys plus
        # the compression block and the diagnostics nu and rng_name.
        model, orbit = self.make_model()
        path = tmp_path / "model_v1.json"
        rk.save_model(model, path)
        doc = json.loads(path.read_text())
        doc.update(schema_version=1, compression=COMPRESSION_BLOCK)
        doc["diagnostics"].update(nu=1.0, rng_name="numpy-pcg64")
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelVersionError, match="unsupported schema version 1,"):
            rk.load_model(path)
        seed = tmp_path / "seed.csv"
        write_timeseries_csv(seed, rk.TimeSeries(orbit))
        code = main(["forecast", "--model", str(path), "--seed-data", str(seed),
                     "--horizon", "5", "--out", str(tmp_path / "fc.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "schema version 1," in err


def _repeat_first_index(doc):
    # Two triplets at one index; nnz counts the one nonzero they leave.
    triplets = doc["W_hat"]["triplets"]
    triplets[1][:2] = triplets[0][:2]
    doc["diagnostics"]["nnz"] -= 1


def _zero_first_coefficient(doc):
    doc["W_hat"]["triplets"][0][2] = 0.0
    doc["diagnostics"]["nnz"] -= 1


MODEL_DEFECTS = {
    # A version-2 document that still holds the version-1 compression block.
    "v2_with_compression": lambda doc: doc.update(compression=COMPRESSION_BLOCK),
    "extra_top_level_key": lambda doc: doc.update(extra=1),
    "extra_w_hat_key": lambda doc: doc["W_hat"].update(extra=1),
    "w_hat_as_list": lambda doc: doc.update(W_hat=[doc["W_hat"]]),
    "extra_diagnostics_key": lambda doc: doc["diagnostics"].update(extra=1),
    "triplet_row_out_of_range": lambda doc: doc["W_hat"]["triplets"][0].__setitem__(0, 99),
    "negative_triplet_column": lambda doc: doc["W_hat"]["triplets"][0].__setitem__(1, -1),
    "nan_coefficient": lambda doc: doc["W_hat"]["triplets"][0].__setitem__(2, float("nan")),
    "nan_training_range": lambda doc: doc["diagnostics"]["train_max"].__setitem__(0, float("nan")),
    "duplicate_triplet": _repeat_first_index,
    "zero_triplet": _zero_first_coefficient,
    "float_selector_offset": lambda doc: doc.update(selector_offset=float(doc["selector_offset"])),
    "boolean_selector_offset": lambda doc: doc.update(selector_offset=True),
    # Loaded, such a model would roll out by feeding back an older slot.
    "selector_offset_not_newest": lambda doc: doc.update(selector_offset=doc["L"] - 1),
    "float_triplet_row": lambda doc: doc["W_hat"]["triplets"][0].__setitem__(
        0, float(doc["W_hat"]["triplets"][0][0])),
    "string_coefficient": lambda doc: doc["W_hat"]["triplets"][0].__setitem__(
        2, str(doc["W_hat"]["triplets"][0][2])),
    "float_row_count": lambda doc: doc["W_hat"].update(rows=float(doc["W_hat"]["rows"])),
    "huge_integer_residual": lambda doc: doc["diagnostics"].update(residual_fro=10**400),
    # One defect per diagnostics field.
    "rank_zero": lambda doc: doc["diagnostics"].update(rank=0),
    "nnz_not_w_hat_count": lambda doc: doc["diagnostics"].update(nnz=doc["diagnostics"]["nnz"] + 1),
    "infinite_residual_fro": lambda doc: doc["diagnostics"].update(residual_fro=float("inf")),
    "nan_relative_residual": lambda doc: doc["diagnostics"].update(relative_residual=float("nan")),
    "column_residuals_too_long": lambda doc: doc["diagnostics"]["column_residuals"].append(0.0),
    "column_bounds_too_short": lambda doc: doc["diagnostics"]["column_bounds"].pop(),
    "train_min_above_train_max": lambda doc: doc["diagnostics"]["train_min"].__setitem__(
        0, doc["diagnostics"]["train_max"][0] + 1.0),
    "zero_delta": lambda doc: doc["diagnostics"].update(delta=0.0),
    "negative_epsilon": lambda doc: doc["diagnostics"].update(epsilon=-1.0),
    "zero_max_iter": lambda doc: doc["diagnostics"].update(max_iter=0),
    "negative_seed": lambda doc: doc["diagnostics"].update(seed=-5),
}


def _saved_document(tmp_path):
    """TestPersistence's model as a saved document."""
    model, _ = TestPersistence().make_model()
    rk.save_model(model, tmp_path / "saved.json")
    return json.loads((tmp_path / "saved.json").read_text())


@pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
def test_defective_model_file_is_format_error(defect, tmp_path, capsys):
    _, orbit = TestPersistence().make_model()
    doc = _saved_document(tmp_path)
    MODEL_DEFECTS[defect](doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):
        rk.load_model(path)
    seed = tmp_path / "seed.csv"
    write_timeseries_csv(seed, rk.TimeSeries(orbit))
    code = main(["forecast", "--model", str(path), "--seed-data", str(seed),
                 "--horizon", "5", "--out", str(tmp_path / "fc.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_deeply_nested_file_is_format_error(tmp_path, capsys):
    """100 000 nested arrays exceed the JSON reader's recursion limit; that is
    a format error, with no traceback and no output file."""
    _, orbit = TestPersistence().make_model()
    path, seed, out = tmp_path / "model.json", tmp_path / "seed.csv", tmp_path / "fc.csv"
    path.write_text("[" * 100_000)
    with pytest.raises(ModelFormatError, match="not a model file"):
        rk.load_model(path)
    write_timeseries_csv(seed, rk.TimeSeries(orbit))
    capsys.readouterr()
    code = main(["forecast", "--model", str(path), "--seed-data", str(seed),
                 "--horizon", "5", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: not a model file:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_kronecker_slot_table_is_held_to_the_budget(monkeypatch):
    """A model can pass check_model_size while its d_p(nL) Kronecker slots
    exceed the budget; its compression matrix then fails on the budget
    before a slot table is built. At a budget of 2000, nL = 2 and p = 12
    give 14 C(14, 12) = 1274 but d_12(2) = 8191."""
    monkeypatch.setattr(rk.embedding, "DEFAULT_FEATURE_BUDGET", 2000)
    rk.compression._multiset_classes.cache_clear()
    rk.embedding._monomial_of_slot.cache_clear()
    rk.embedding.check_model_size(2, 12)
    model, _ = TestPersistence().make_model()
    model = dataclasses.replace(model, n=1, L=2, p=12, W_hat=np.zeros((2, math.comb(14, 12))))
    with pytest.raises(FeatureBudgetError):
        model.R
    with pytest.raises(FeatureBudgetError):
        rk.eth_map(np.ones(2), 12)


def _smallest_p_over_budget(nL):
    p = 1
    while (nL + p) * math.comb(nL + p, p) <= DEFAULT_FEATURE_BUDGET:
        p += 1
    return p


@pytest.mark.parametrize("size, over_budget", [
    ({"p": 10**9}, True),
    ({"L": 10**9}, True),
    ({"n": 10**9, "L": 10**9, "p": 10**9}, True),
    # (nL + p)**2 is within the budget; (nL + p) C(nL + p, p) is just above it.
    ({"n": 2, "L": 1, "p": _smallest_p_over_budget(2)}, True),
    ({"n": 3, "L": 3, "p": _smallest_p_over_budget(9)}, True),
    # Small coupling matrices whose p index tables are not small.
    ({"n": 1, "L": 1, "p": DEFAULT_FEATURE_BUDGET - 2}, True),
    ({"n": 2, "L": 1, "p": 3000}, True),
    # Within the budget, loading goes on and fails, as fast, on the next field.
    ({"n": 2, "L": 1, "p": _smallest_p_over_budget(2) - 1}, False),
    ({"n": 1, "L": 1, "p": _smallest_p_over_budget(1) - 1}, False),
])
@pytest.mark.parametrize("version", [1, 2])
def test_size_is_checked_before_the_model_is_built(size, over_budget, version, tmp_path):
    """Loading fails fast. A version-2 document fails on the budget, or on
    its next field; a version-1 document fails on its version, before its
    size is read."""
    doc = _saved_document(tmp_path)
    doc.update(size, schema_version=version)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    with pytest.raises((ModelFormatError, ModelVersionError)) as err:
        rk.load_model(path)
    assert time.perf_counter() - start < 1.0
    assert isinstance(err.value, ModelVersionError) == (version == 1)
    assert ("budget" in str(err.value)) == (over_budget and version == 2)


def _largest_model_document(nL, tmp_path):
    """An empty order-p model on one channel with nL = L window slots, p the
    largest the budget admits."""
    doc = _saved_document(tmp_path)
    p = _smallest_p_over_budget(nL) - 1
    doc.update(n=1, L=nL, p=p, selector_offset=nL)
    doc["W_hat"] = {"rows": nL, "cols": math.comb(nL + p, p), "triplets": []}
    doc["diagnostics"].update(nnz=0, column_residuals=[0.0] * nL,
                              column_bounds=[0.0] * nL, train_min=[0.0], train_max=[1.0])
    return doc


@pytest.mark.parametrize("nL", [1, 2])
def test_largest_model_within_the_budget_forecasts_quickly(nL, tmp_path):
    """The budget bounds the work of a step too: its p index tables and
    the product with W_hat."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_largest_model_document(nL, tmp_path)))
    start = time.perf_counter()
    model = rk.load_model(path)
    assert np.array_equal(rk.forecast(model, np.full(nL, 0.5), 1).values, [[0.0]])
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("nL", [1, 2, 9])
def test_training_refuses_what_loading_refuses(nL):
    p = _smallest_p_over_budget(nL)
    series = rk.TimeSeries(np.zeros((5, nL)))
    cfg = rk.EmbeddingConfig(L=1, p=p)
    start = time.perf_counter()
    with pytest.raises(FeatureBudgetError):
        rk.train_rrc(series, series, cfg, TIGHT)
    with pytest.raises(FeatureBudgetError):
        rk.train_autoregressive(series, cfg, TIGHT)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(FeatureBudgetError):
        rk.train_autoregressive(series, rk.EmbeddingConfig(L=1, p=10**9), TIGHT)


@pytest.mark.parametrize("literal, message", [
    ("NaN", "NaN is not a JSON number"),
    ("Infinity", "Infinity is not a JSON number"),
    ("-Infinity", "-Infinity is not a JSON number"),
    ("1e999", "column_bounds must be finite numbers"),
])
def test_non_finite_literal_is_format_error(literal, message, tmp_path):
    # Python's json reads the first three, which are not JSON; 1e999 is JSON
    # but overflows to inf. A field no other check looks at carries them.
    model, _ = TestPersistence().make_model()
    path = tmp_path / "model.json"
    rk.save_model(model, path)
    doc = json.loads(path.read_text())
    doc["diagnostics"]["column_bounds"][0] = 12345.5
    path.write_text(json.dumps(doc).replace("12345.5", literal))
    with pytest.raises(ModelFormatError, match=message):
        rk.load_model(path)
