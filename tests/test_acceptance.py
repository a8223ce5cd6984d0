"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Thresholds marked FROZEN were calibrated once against the dense
minimum-norm baseline (1.5x its error) and are fixed here; everything else
is asserted at its stated tolerance against independently computed oracles.
"""

import contextlib
import io
import time

import numpy as np
import pytest

import rrckit as rk
from rrckit.cli import main as cli_main
from rrckit.compression import compress, decompress
from rrckit.embedding import build_data_matrices, delay_embed, eth_map
from rrckit.io import read_timeseries_csv, write_timeseries_csv
from rrckit.linalg import _column_norms
from testutil import (
    as_dense_model,
    bounded_orbit,
    dense_solvent,
    linear_orbit,
    matrix_with_spectrum,
    stable_linear_system,
    straddling_spectrum,
)

GRID_12000 = rk.SimulationGrid(t_end=120.0, samples=12000)

# FROZEN (dense-baseline NRMSE x 1.5): full-horizon per-channel forecast
# error cap for the slow-regime reproduction.
PERIODIC_NRMSE_CAP = np.array(
    [1.136350977471e-04, 1.127087950304e-04, 1.203597149635e-04]
)
# FROZEN (dense-baseline NRMSE x 1.5): worst-channel 20-step forecast error
# cap for the chaotic-regime reproduction.
CHAOTIC_NRMSE20_CAP = 1.4933998499399923e-07

PERIODIC_TRAIN = dict(L=2, p=2, delta=1e-10, epsilon=1e-12, seed=42)
CHAOTIC_TRAIN = dict(L=3, p=2, delta=1e-8, epsilon=1e-8, seed=42)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def chaotic_series():
    return rk.integrate(rk.CHAOTIC, GRID_12000)


@pytest.fixture(scope="module")
def periodic_series():
    return rk.integrate(rk.PERIODIC, GRID_12000)


def test_criterion_1_sparse_residual_certificate():
    """Residual bound and support bound on 200 random solver instances."""
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    deltas = (1e-6, 1e-2, 0.5)
    checked = 0
    worst_margin = np.inf
    for i in range(200):
        delta = deltas[i % 3]
        m = int(rng.integers(5, 51))
        n = int(rng.integers(5, 51))
        k = min(m, n)
        r_true = int(rng.integers(1, k))
        A = matrix_with_spectrum(rng, m, n, straddling_spectrum(rng, k, delta, r_true))
        p = int(rng.integers(1, 6))
        Y = rng.standard_normal((m, p))
        epsilon = 1e-12 if i % 2 == 0 else 1e-6
        sol = rk.sparse_lstsq(
            A, Y, rk.SolverConfig(delta=delta, epsilon=epsilon, max_iter=50)
        )
        assert sol.rank == r_true
        U, S, _ = np.linalg.svd(A, full_matrices=False)
        Ur = U[:, :r_true]
        s_nm = np.sqrt(r_true * (k - r_true))
        for j in range(p):
            x = sol.X[:, j]
            assert np.count_nonzero(x) <= r_true
            bound = float(
                np.linalg.norm(x) * s_nm * delta
                + np.linalg.norm(Y[:, j] - Ur @ (Ur.T @ Y[:, j]))
            )
            residual = float(_column_norms(A @ x - Y[:, j]))
            assert residual <= bound
            worst_margin = min(worst_margin, bound - residual)
            checked += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    report(1, ok, f"{checked} columns certified, min slack {worst_margin:.3e}, "
                  f"{elapsed:.1f}s")
    assert ok


def test_criterion_2_rank_function_laws():
    """Transpose invariance and exact-rank domination over 100 matrices."""
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    for i in range(100):
        m = int(rng.integers(2, 40))
        n = int(rng.integers(2, 40))
        style = i % 3
        if style == 0:
            A = rng.standard_normal((m, n))
        elif style == 1:
            k = int(rng.integers(1, min(m, n) + 1))
            A = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        else:
            A = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-4, 4)
        spectrum = np.linalg.svd(A, compute_uv=False)
        candidates = [1e-6, 0.1, 1.0]
        # a mid-spectrum threshold, but only between genuinely separated
        # singular values above the numerical noise floor
        floor = max(A.shape) * np.finfo(float).eps * spectrum[0]
        significant = spectrum[spectrum > 10 * floor]
        if significant.size > 1:
            mid = significant.size // 2
            if significant[mid - 1] / significant[mid] > 1.01:
                candidates.append(float(np.sqrt(significant[mid - 1] * significant[mid])))
        exact_rank = np.linalg.matrix_rank(A)
        for delta in candidates:
            r = rk.rank_delta(A, delta)
            assert r == rk.rank_delta(A.T, delta)
            assert r <= exact_rank
    elapsed = time.monotonic() - start
    ok = elapsed < 5.0
    report(2, ok, f"100 matrices, transpose + rank domination exact, {elapsed:.1f}s")
    assert ok


def test_criterion_3_compression_reconstruction():
    """Feature reconstruction through the averaging matrix and its pseudoinverse."""
    start = time.monotonic()
    rng = np.random.default_rng(1003)
    configs = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (1, 3, 2), (3, 2, 2)]
    worst_rand = 0.0
    worst_exact = 0.0
    for n, L, p in configs:
        R = rk.compression_matrix(n, L, p, seed=0)
        exact = rk.compression_matrix_exact(n, L, p)
        cap = np.sqrt(R.cols) * R.group_spread
        for _ in range(200):
            z = eth_map(rng.standard_normal(n * L), p)
            err_rand = float(np.linalg.norm(decompress(R, compress(R, z)) - z))
            err_exact = float(
                np.linalg.norm(decompress(exact, compress(exact, z)) - z)
            )
            assert err_rand <= cap
            assert err_exact <= 1e-12
            worst_rand = max(worst_rand, err_rand)
            worst_exact = max(worst_exact, err_exact)
    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    report(3, ok, f"5 configs x 200 probes, worst randomized {worst_rand:.1e}, "
                  f"worst exact {worst_exact:.1e}, {elapsed:.1f}s")
    assert ok


def _mid_spectrum_delta(A: np.ndarray) -> float:
    svals = np.linalg.svd(A, compute_uv=False)
    svals = svals[svals > 1e-13 * svals[0]]
    gaps = svals[:-1] / svals[1:]
    k = int(np.argmax(gaps[1:-1])) + 1 if gaps.size > 2 else 0
    return float(np.sqrt(svals[k] * svals[k + 1]))


def test_criterion_4_sparse_vs_dense_coupling_estimate():
    """Sparse output coupling stays within the K*delta estimate of the dense solvent."""
    start = time.monotonic()
    rng = np.random.default_rng(1004)
    problems = 0
    worst_ratio = 0.0
    # planted maps on compressed polynomial features
    for n, p in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]:
        for seed in (0, 1):
            orbit = bounded_orbit(rng, n, 50)
            x = rk.TimeSeries(orbit)
            R = rk.compression_matrix(n, 1, p, seed=seed)
            W_true = rng.standard_normal((n, R.rows))
            y = rk.TimeSeries(
                np.array([W_true @ compress(R, eth_map(row, p)) for row in orbit])
            )
            cfg = rk.EmbeddingConfig(L=1, p=p)
            G0 = compress(R, build_data_matrices(x, y, cfg).H0)
            delta = _mid_spectrum_delta(G0.T)
            model = rk.train_rrc(
                x, y, cfg, rk.SolverConfig(delta=delta, epsilon=1e-12), seed=seed
            )
            W_bar, G, _ = dense_solvent(model, x, y)
            r = model.diagnostics.rank
            lhs = np.linalg.norm(model.W_hat @ G - W_bar @ G)
            K = np.sqrt(n * 1 * (min(G.shape) - r)) * (
                np.sqrt(r) * np.linalg.norm(model.W_hat) + np.linalg.norm(W_bar)
            )
            assert lhs <= K * delta
            worst_ratio = max(worst_ratio, lhs / (K * delta))
            problems += 1
    # autoregressive linear systems (consistent by construction)
    for n, L in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (2, 3), (2, 4)]:
        A_sys = stable_linear_system(rng, n, radius=0.9)
        orbit = linear_orbit(A_sys, rng.standard_normal(n), 60)
        x = rk.TimeSeries(orbit[:-1])
        y = rk.TimeSeries(orbit[1:])
        cfg = rk.EmbeddingConfig(L=L, p=1)
        R = rk.compression_matrix(n, L, 1, seed=0)
        G0 = compress(R, build_data_matrices(x, y, cfg).H0)
        delta = _mid_spectrum_delta(G0.T)
        model = rk.train_rrc(
            x, y, cfg, rk.SolverConfig(delta=delta, epsilon=1e-12), seed=0
        )
        W_bar, G, _ = dense_solvent(model, x, y)
        r = model.diagnostics.rank
        lhs = np.linalg.norm(model.W_hat @ G - W_bar @ G)
        K = np.sqrt(n * L * (min(G.shape) - r)) * (
            np.sqrt(r) * np.linalg.norm(model.W_hat) + np.linalg.norm(W_bar)
        )
        assert lhs <= K * delta
        worst_ratio = max(worst_ratio, lhs / (K * delta))
        problems += 1
    elapsed = time.monotonic() - start
    ok = problems == 20 and elapsed < 60.0
    report(4, ok, f"{problems} training problems, worst lhs/(K*delta) "
                  f"{worst_ratio:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_linear_oracle_equivalence():
    """Keep-all identification of planted linear systems matches dense least squares."""
    start = time.monotonic()
    rng = np.random.default_rng(1005)
    cases = 0
    for n in (2, 3, 4):
        for _ in range(2):
            A = stable_linear_system(rng, n, radius=0.95)
            orbit = linear_orbit(A, rng.standard_normal(n), 99)
            model = rk.train_autoregressive(
                rk.TimeSeries(orbit),
                rk.EmbeddingConfig(L=1, p=1),
                rk.SolverConfig(delta=1e-12, epsilon=0.0),
                seed=0,
            )
            x = rk.TimeSeries(orbit[:-1])
            y = rk.TimeSeries(orbit[1:])
            data = build_data_matrices(x, y, rk.EmbeddingConfig(L=1, p=1))
            W_dense = np.linalg.lstsq(data.H0.T, data.H1.T, rcond=None)[0].T
            learned = model.W_hat @ model.R.to_dense()
            assert np.linalg.norm(learned - W_dense) <= 1e-8
            forecast = rk.forecast(model, orbit[-1], 50)
            truth = linear_orbit(A, orbit[-1], 50)[1:]
            assert np.max(np.abs(forecast.values - truth)) <= 1e-6
            cases += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 10.0
    report(5, ok, f"{cases} planted systems, map within 1e-8, "
                  f"50-step orbit within 1e-6, {elapsed:.1f}s")
    assert ok


def test_criterion_6_periodic_regime_reproduction(periodic_series):
    """Slow-regime pipeline at full scale: 6.67% training, 93.33% forecast."""
    start = time.monotonic()
    n_train = int(0.0667 * 12000)
    assert n_train == 800
    train = rk.TimeSeries(periodic_series.values[:n_train], dt=periodic_series.dt)
    model = rk.train_autoregressive(
        train,
        rk.EmbeddingConfig(L=PERIODIC_TRAIN["L"], p=PERIODIC_TRAIN["p"]),
        rk.SolverConfig(
            delta=PERIODIC_TRAIN["delta"], epsilon=PERIODIC_TRAIN["epsilon"],
            max_iter=50,
        ),
        seed=PERIODIC_TRAIN["seed"],
    )
    window = delay_embed(train, model.L, n_train)
    horizon = 12000 - n_train
    forecast = rk.forecast(model, window, horizon)  # blowup guard must stay silent
    nrmse = rk.exposure(periodic_series.values[n_train:], forecast.values)
    ok_channels = np.all(nrmse <= PERIODIC_NRMSE_CAP)
    elapsed = time.monotonic() - start
    ok = bool(ok_channels) and elapsed < 180.0
    got = "[" + " ".join(f"{v:.3e}" for v in nrmse) + "]"
    caps = "[" + " ".join(f"{v:.3e}" for v in PERIODIC_NRMSE_CAP) + "]"
    report(6, ok, f"{horizon}-step rollout, NRMSE {got} vs caps {caps}, {elapsed:.1f}s")
    assert ok_channels
    assert elapsed < 180.0


def test_criterion_7_chaotic_regime_reproduction(chaotic_series):
    """Chaotic pipeline at full scale: residual, attractor capture, short horizon."""
    start = time.monotonic()
    n_train = 6000
    train = rk.TimeSeries(chaotic_series.values[:n_train], dt=chaotic_series.dt)
    model = rk.train_autoregressive(
        train,
        rk.EmbeddingConfig(L=CHAOTIC_TRAIN["L"], p=CHAOTIC_TRAIN["p"]),
        rk.SolverConfig(
            delta=CHAOTIC_TRAIN["delta"], epsilon=CHAOTIC_TRAIN["epsilon"],
            max_iter=50,
        ),
        seed=CHAOTIC_TRAIN["seed"],
    )
    # (a) one-step training residual against the dense solvent plus slack
    x_in = rk.TimeSeries(train.values[:-1])
    y_out = rk.TimeSeries(train.values[1:])
    W_bar, G, H1 = dense_solvent(model, x_in, y_out)
    h1_norm = np.linalg.norm(H1)
    rel_sparse = model.diagnostics.relative_residual
    rel_dense = np.linalg.norm(W_bar @ G - H1) / h1_norm
    r = model.diagnostics.rank
    K = np.sqrt(model.n * model.L * (min(G.shape) - r)) * (
        np.sqrt(r) * np.linalg.norm(model.W_hat) + np.linalg.norm(W_bar)
    )
    slack = K * CHAOTIC_TRAIN["delta"] / h1_norm
    ok_a = rel_sparse <= rel_dense + slack

    # (b) 1000-step rollout stays within twice the training range
    window = delay_embed(train, model.L, n_train)
    rollout = rk.forecast(model, window, 1000)
    lo = train.values.min(axis=0)
    hi = train.values.max(axis=0)
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    ok_b = bool(np.all(np.abs(rollout.values - center) <= 2.0 * half))

    # (c) 20-step validation error against the frozen dense-baseline cap
    nrmse20 = rk.exposure(
        chaotic_series.values[n_train : n_train + 20],
        rk.forecast(model, window, 20).values,
    )
    ok_c = float(nrmse20.max()) <= CHAOTIC_NRMSE20_CAP

    elapsed = time.monotonic() - start
    ok = ok_a and ok_b and ok_c and elapsed < 180.0
    report(7, ok, f"(a) {rel_sparse:.2e} <= {rel_dense:.2e}+{slack:.2e}: {ok_a}; "
                  f"(b) attractor capture: {ok_b}; "
                  f"(c) nrmse20 {nrmse20.max():.3e} <= {CHAOTIC_NRMSE20_CAP:.3e}: "
                  f"{ok_c}; {elapsed:.1f}s")
    assert ok_a and ok_b and ok_c
    assert elapsed < 180.0


def test_criterion_8_exposure_pipeline():
    """Planted panels (18 regions, 15 institutions, 24 quarters) fit to machine level."""
    start = time.monotonic()
    solver = rk.SolverConfig(delta=1e-6, epsilon=1e-4, max_iter=100)
    lagged_panel, _ = rk.synth_panel(18, 15, 24, seed=8001, noise_level=0.0)
    _, lag_report = rk.fit_lagged(lagged_panel, solver)
    flat_panel, _ = rk.synth_panel(
        18, 15, 24, seed=8002, noise_level=0.0, include_lag=False
    )
    _, flat_report = rk.fit_nonlagged(flat_panel, solver)
    ok_fits = (
        float(lag_report.exposures.max()) <= 1e-8
        and float(flat_report.exposures.max()) <= 1e-8
    )

    # measure formula unit cases
    rng = np.random.default_rng(8003)
    D = rng.standard_normal((9, 3)) + 4.0
    exact_zero = bool(np.all(rk.exposure(D, D) == 0.0))
    peaks = np.max(np.abs(D), axis=0)
    unit = np.allclose(rk.exposure(D, D + peaks[None, :]), 1.0, rtol=1e-12)
    half_sqrt2 = rk.exposure(np.array([[1.0], [2.0]]), np.array([[1.0], [0.0]]))[0]
    formula_ok = exact_zero and unit and abs(half_sqrt2 - 1 / np.sqrt(2)) <= 1e-12

    elapsed = time.monotonic() - start
    ok = ok_fits and formula_ok and elapsed < 10.0
    report(8, ok, f"lagged max {lag_report.exposures.max():.2e}, "
                  f"non-lagged max {flat_report.exposures.max():.2e}, "
                  f"formula cases exact: {formula_ok}, {elapsed:.1f}s")
    assert ok_fits and formula_ok
    assert elapsed < 10.0


def test_criterion_9_determinism_and_persistence(tmp_path):
    """Byte-identical command reruns; bit-faithful model persistence."""
    start = time.monotonic()

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(list(argv)) == 0

    # simulate twice
    sim = [tmp_path / f"sim_{t}.csv" for t in "ab"]
    for path in sim:
        run("simulate", "--regime", "chaotic", "--samples", "400", "--t-end", "20",
            "--out", str(path))
    ok_sim = sim[0].read_bytes() == sim[1].read_bytes()

    # train + forecast twice off the simulated data
    models = [tmp_path / f"model_{t}.json" for t in "ab"]
    fcs = [tmp_path / f"fc_{t}.csv" for t in "ab"]
    for model_path, fc_path in zip(models, fcs):
        run("train", "--input", str(sim[0]), "--lag", "3", "--order", "2",
            "--delta", "1e-10", "--seed", "7", "--out", str(model_path))
        run("forecast", "--model", str(model_path), "--seed-data", str(sim[0]),
            "--horizon", "30", "--out", str(fc_path))
    ok_train = models[0].read_bytes() == models[1].read_bytes()
    ok_fc = fcs[0].read_bytes() == fcs[1].read_bytes()

    # exposure twice
    panel, _ = rk.synth_panel(10, 6, 20, seed=9001, noise_level=0.05)
    remit, deposits = tmp_path / "r.csv", tmp_path / "d.csv"
    write_timeseries_csv(remit, rk.TimeSeries(panel.R))
    write_timeseries_csv(deposits, rk.TimeSeries(panel.D))
    reports = [tmp_path / f"rep_{t}.csv" for t in "ab"]
    for path in reports:
        run("exposure", "--remittances", str(remit), "--deposits", str(deposits),
            "--lagged", "--out", str(path))
    ok_exp = reports[0].read_bytes() == reports[1].read_bytes()

    # persistence: reloaded model transforms bit-for-bit
    model = rk.load_model(models[0])
    reloaded_path = tmp_path / "resaved.json"
    rk.save_model(model, reloaded_path)
    reloaded = rk.load_model(reloaded_path)
    data = read_timeseries_csv(sim[0])
    window = delay_embed(data, model.L, data.T)
    a_dil, a_sel = rk.transform(model, window)
    b_dil, b_sel = rk.transform(reloaded, window)
    fa = rk.forecast(model, window, 30)
    fb = rk.forecast(reloaded, window, 30)
    ok_persist = (
        reloaded == model
        and np.array_equal(a_dil, b_dil)
        and np.array_equal(a_sel, b_sel)
        and np.array_equal(fa.values, fb.values)
    )

    elapsed = time.monotonic() - start
    ok = ok_sim and ok_train and ok_fc and ok_exp and ok_persist
    report(9, ok, f"simulate={ok_sim} train={ok_train} forecast={ok_fc} "
                  f"exposure={ok_exp} persistence={ok_persist}, {elapsed:.1f}s")
    assert ok
