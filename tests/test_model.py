"""Model training, transform, rollout, selector laws, persistence."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import rrckit as rk
from rrckit.cli import main
from rrckit.embedding import DEFAULT_FEATURE_BUDGET
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
    residual_certificate,
    stable_linear_system,
)

V1_FIXTURE = Path(__file__).parent / "data" / "model_v1.json"
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
                         "eth_map", "build_data_matrices"):
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


def test_readme_p2_model_held_out_rollouts(chaotic_orbit, readme_p2_model):
    """The README's chaotic p=2 model rolls out from held-out windows.

    The 40 held-out windows, 1000 steps each; a rollout counts when the guard
    stays silent and it stays within twice the training range (criterion
    7(b)'s rule). The floor is today's count: most windows still diverge.
    """
    series, model = chaotic_orbit, readme_p2_model
    train = series.values[:6000]
    lo, hi = train.min(axis=0), train.max(axis=0)
    center, half = (lo + hi) / 2, (hi - lo) / 2
    completed = 0
    for end in HELD_OUT_ENDS:
        window = rk.delay_embed(series, model.L, int(end))
        try:
            rollout = rk.forecast(model, window, 1000)
        except NumericBlowupError:
            continue
        completed += bool(np.all(np.abs(rollout.values - center) <= 2 * half))
    assert completed >= 3


def test_forecast_rows_equal_iterated_transform(chaotic_orbit, readme_p2_model):
    """forecast evaluates transform's product inline. 200 steps from three
    held-out windows match iterated transform bit for bit; the first two
    held-out windows diverge before step 200."""
    model = readme_p2_model
    for end in HELD_OUT_ENDS[2:5]:
        window = rk.delay_embed(chaotic_orbit, model.L, int(end))
        rollout = rk.forecast(model, window, 200).values
        for row in rollout:
            # The dilated output is the next window: its shift rows are exact.
            window, selected = rk.transform(model, window)
            assert row.tobytes() == selected.tobytes()


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

    def test_version_1_file_loads_and_resaves_as_version_2(self, tmp_path):
        # The fixture is this model as written by the version-1 writer.
        model, orbit = self.make_model()
        loaded = rk.load_model(V1_FIXTURE)
        assert loaded == model
        assert loaded.W_hat.tobytes() == model.W_hat.tobytes()
        window = rk.delay_embed(rk.TimeSeries(orbit), 2, 40)
        assert np.array_equal(rk.forecast(loaded, window, 25).values,
                              rk.forecast(model, window, 25).values)

        expected = json.loads(V1_FIXTURE.read_text())
        del expected["compression"]
        del expected["diagnostics"]["nu"], expected["diagnostics"]["rng_name"]
        expected["schema_version"] = 2
        rk.save_model(loaded, tmp_path / "v2.json")
        assert json.loads((tmp_path / "v2.json").read_text()) == expected
        rk.save_model(model, tmp_path / "trained.json")
        assert (tmp_path / "trained.json").read_bytes() == (tmp_path / "v2.json").read_bytes()


def _swap_groups(doc):
    groups = doc["compression"]["groups"]
    groups[1], groups[2] = groups[2], groups[1]


def _repeat_first_index(doc):
    # Two triplets at one index; nnz counts the one nonzero they leave.
    triplets = doc["W_hat"]["triplets"]
    triplets[1][:2] = triplets[0][:2]
    doc["diagnostics"]["nnz"] -= 1


def _zero_first_coefficient(doc):
    doc["W_hat"]["triplets"][0][2] = 0.0
    doc["diagnostics"]["nnz"] -= 1


# Defects of parts only a version-1 document holds.
V1_DEFECTS = {"missing_compression", "reordered_groups", "infinite_nu", "zero_nu",
              "numeric_rng_name"}

def _v2_with_compression(doc):
    # A version-2 document that still holds a version-1 block.
    doc.update(schema_version=2,
               compression=json.loads(V1_FIXTURE.read_text())["compression"])


MODEL_DEFECTS = {
    "missing_compression": lambda doc: doc.pop("compression"),
    "v2_with_compression": _v2_with_compression,
    "extra_top_level_key": lambda doc: doc.update(extra=1),
    "extra_w_hat_key": lambda doc: doc["W_hat"].update(extra=1),
    "w_hat_as_list": lambda doc: doc.update(W_hat=[doc["W_hat"]]),
    "extra_diagnostics_key": lambda doc: doc["diagnostics"].update(extra=1),
    "triplet_row_out_of_range": lambda doc: doc["W_hat"]["triplets"][0].__setitem__(0, 99),
    "negative_triplet_column": lambda doc: doc["W_hat"]["triplets"][0].__setitem__(1, -1),
    "nan_coefficient": lambda doc: doc["W_hat"]["triplets"][0].__setitem__(2, float("nan")),
    "nan_training_range": lambda doc: doc["diagnostics"]["train_max"].__setitem__(0, float("nan")),
    "reordered_groups": _swap_groups,
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
    "infinite_nu": lambda doc: doc["diagnostics"].update(nu=float("inf")),
    "zero_nu": lambda doc: doc["diagnostics"].update(nu=0.0),
    "negative_seed": lambda doc: doc["diagnostics"].update(seed=-5),
    "numeric_rng_name": lambda doc: doc["diagnostics"].update(rng_name=5),
}


def _saved_document(version, tmp_path):
    """TestPersistence's model as a version-1 (the fixture) or version-2 document."""
    if version == 1:
        return json.loads(V1_FIXTURE.read_text())
    model, _ = TestPersistence().make_model()
    rk.save_model(model, tmp_path / "saved.json")
    return json.loads((tmp_path / "saved.json").read_text())


@pytest.mark.parametrize("defect", sorted(MODEL_DEFECTS))
def test_defective_model_file_is_format_error(defect, tmp_path, capsys):
    """Each defect fails the version-1 fixture and, unless it is of a part
    only version 1 holds, the same model written as version 2."""
    _, orbit = TestPersistence().make_model()
    docs = [_saved_document(v, tmp_path) for v in ((1,) if defect in V1_DEFECTS else (1, 2))]
    path = tmp_path / "model.json"
    seed = tmp_path / "seed.csv"
    write_timeseries_csv(seed, rk.TimeSeries(orbit))
    for doc in docs:
        MODEL_DEFECTS[defect](doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            rk.load_model(path)
        code = main(["forecast", "--model", str(path), "--seed-data", str(seed),
                     "--horizon", "5", "--out", str(tmp_path / "fc.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


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
    doc = _saved_document(version, tmp_path)
    doc.update(size)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    with pytest.raises(ModelFormatError) as err:
        rk.load_model(path)
    assert time.perf_counter() - start < 1.0
    assert ("budget" in str(err.value)) == over_budget


def _largest_model_document(nL, tmp_path):
    """An empty order-p model on one channel with nL = L window slots, p the
    largest the budget admits."""
    doc = _saved_document(2, tmp_path)
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
