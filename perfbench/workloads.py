"""The benchmark workloads: inputs from a seed, one operation, checks.

Each workload builds its inputs in :meth:`setup` from the run's seed and
exposes them as ``items``; one round of a run applies :meth:`run` once to
every item. :meth:`check` validates an output against computations made in
this file (numpy and the standard library only) or against properties the
method must have, and raises :class:`CheckError` when it does not hold.
Nothing is compared against a stored copy of an earlier output: after an
item's first output passes the full check, later outputs of the same item
must equal it exactly, since every operation is deterministic.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rrckit as rk
import rrckit.cli

ORBIT_GRID = dict(t_end=120.0, samples=12000)
SEGMENT = 6000          # samples per identification segment / training split
HORIZON = 1000          # forecast steps
INV_E = 1.0 / math.e


class CheckError(AssertionError):
    """An output of the program failed a benchmark check."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def chaotic_orbit() -> np.ndarray:
    """The chaotic reference orbit (12000 samples on [0, 120])."""
    return rk.integrate(rk.CHAOTIC, rk.SimulationGrid(**ORBIT_GRID)).values


# ---------------------------------------------------------------------------
# Independent reference computations
# ---------------------------------------------------------------------------

def window_matrix(values: np.ndarray, L: int) -> np.ndarray:
    """All length-L delay windows as columns, channel-major, oldest first."""
    T, n = values.shape
    cols = T - L + 1
    return np.vstack([
        np.stack([values[lag : lag + cols, j] for lag in range(L)]) for j in range(n)
    ])


def monomial_features(W: np.ndarray, p: int) -> np.ndarray:
    """Distinct monomials of orders 1..p of each column, then a constant row.

    Monomials follow ``itertools.combinations_with_replacement`` order,
    which is the order of the compressed features the method fits on.
    """
    m = W.shape[0]
    rows = []
    for q in range(1, p + 1):
        idx = np.array(list(itertools.combinations_with_replacement(range(m), q)))
        rows.append(np.prod(W[idx], axis=1))
    rows.append(np.ones((1,) + W.shape[1:]))
    return np.concatenate(rows)


@dataclass
class Certificate:
    """Per-column residual certificate of a sparse solve of A X = Y."""

    rank: int
    bounds: np.ndarray
    residuals: np.ndarray
    U: np.ndarray
    S: np.ndarray
    Vt: np.ndarray


def certificate(A: np.ndarray, Y: np.ndarray, X: np.ndarray, delta: float) -> Certificate:
    """||A x_j - y_j|| and its bound ||x_j|| sqrt(r (min(m,n) - r)) delta + ||(I - Q) y_j||."""
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(S > delta))
    Ur = U[:, :r]
    deflated = Y - Ur @ (Ur.T @ Y)
    scale = math.sqrt(r * (min(A.shape) - r)) * delta
    bounds = np.linalg.norm(X, axis=0) * scale + np.linalg.norm(deflated, axis=0)
    residuals = np.linalg.norm(A @ X - Y, axis=0)
    return Certificate(r, bounds, residuals, U, S, Vt)


def check_sparse_fit(A, Y, X, delta: float, what: str) -> Certificate:
    """Residual certificate and support bound of every column of X."""
    cert = certificate(A, Y, X, delta)
    for j in range(X.shape[1]):
        require(
            cert.residuals[j] <= cert.bounds[j] * (1 + 1e-9),
            f"{what}: column {j} residual {cert.residuals[j]:.6e} exceeds "
            f"its certificate bound {cert.bounds[j]:.6e}",
        )
        nnz = int(np.count_nonzero(X[:, j]))
        require(nnz <= cert.rank,
                f"{what}: column {j} has {nnz} nonzeros, above the rank {cert.rank}")
    return cert


def min_norm_solution(cert: Certificate, Y: np.ndarray, m: int, n: int) -> np.ndarray:
    """Dense minimum-norm least squares with numpy's default cutoff."""
    keep = cert.S > np.finfo(float).eps * max(m, n) * cert.S[0]
    return cert.Vt[keep].T @ ((cert.U[:, keep].T @ Y) / cert.S[keep, None])


def nrmse(truth: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Per-channel sqrt(sum (p - t)^2) / (sqrt(T) max |t|)."""
    err = np.sqrt(np.sum((predicted - truth) ** 2, axis=0))
    return err / (math.sqrt(truth.shape[0]) * np.max(np.abs(truth), axis=0))


def first_crossing(x: np.ndarray) -> int:
    """First lag whose sample autocorrelation falls below 1/e."""
    c = x - x.mean()
    denom = float(c @ c)
    for k in range(1, x.size):
        if float(c[:-k] @ c[k:]) / denom < INV_E:
            return k
    return x.size - 1


def financial_rk4(samples: int, dt: float, substeps: int = 20) -> np.ndarray:
    """Fixed-step classical RK4 of the chaotic financial model (s=3, c=0.1, e=1)."""
    def rhs(y):
        x1, x2, x3 = y
        return np.array([x3 + (x2 - 3.0) * x1, 1.0 - 0.1 * x2 - x1 * x1, -x1 - x3])

    h = dt / substeps
    y = np.array([2.0, 3.0, 2.0])
    out = [y]
    for _ in range(samples - 1):
        for _ in range(substeps):
            k1 = rhs(y)
            k2 = rhs(y + h / 2 * k1)
            k3 = rhs(y + h / 2 * k2)
            k4 = rhs(y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(y)
    return np.array(out)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Base: ``items`` are the inputs of one round; outputs are deterministic."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.items: list = []
        self._first: dict[int, object] = {}

    def prepare(self) -> None:
        """Build the inputs afresh; outputs are checked in full again."""
        self._first = {}
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def full_check(self, item, output) -> None:
        raise NotImplementedError

    def fingerprint(self, output):
        raise NotImplementedError

    def check(self, index: int, output) -> None:
        """Full check of an item's first output; later ones must equal it."""
        print_ = self.fingerprint(output)
        if index not in self._first:
            self.full_check(self.items[index], output)
            self._first[index] = print_
        else:
            require(print_ == self._first[index],
                    f"{self.name}: item {index} output differs from its checked first output")

    def close(self) -> None:
        pass


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class IdentifyP3(Workload):
    """train_autoregressive at L=3, p=3 on 6000-sample orbit segments."""

    name = "identify_p3"
    segments = 64
    cfg = rk.EmbeddingConfig(L=3, p=3)
    solver = rk.SolverConfig(delta=1e-8, epsilon=1e-8, max_iter=50)

    def setup(self):
        orbit = chaotic_orbit()
        offsets = self.rng.integers(0, orbit.shape[0] - SEGMENT + 1, self.segments)
        self.items = [rk.TimeSeries(orbit[o : o + SEGMENT]) for o in offsets]

    def run(self, item):
        return rk.train_autoregressive(item, self.cfg, self.solver, seed=0)

    def fingerprint(self, model):
        d = model.diagnostics
        return _digest(model.W_hat), d.rank, d.relative_residual, tuple(d.column_bounds)

    def full_check(self, item, model):
        L, p, delta = self.cfg.L, self.cfg.p, self.solver.delta
        G = monomial_features(window_matrix(item.values[:-1], L), p)
        H1 = window_matrix(item.values[1:], L)
        require(model.W_hat.shape == (H1.shape[0], G.shape[0]),
                f"W_hat shape {model.W_hat.shape}, expected {(H1.shape[0], G.shape[0])}")
        A, Y, X = G.T, H1.T, model.W_hat.T
        cert = check_sparse_fit(A, Y, X, delta, self.name)
        require(model.diagnostics.rank == cert.rank,
                f"rank {model.diagnostics.rank}, independent SVD gives {cert.rank}")
        # Acceptance criterion 7(a): relative residual within the dense
        # minimum-norm residual plus the truncation slack.
        h1_norm = np.linalg.norm(H1)
        rel_sparse = np.linalg.norm(model.W_hat @ G - H1) / h1_norm
        require(np.isclose(model.diagnostics.relative_residual, rel_sparse, rtol=1e-9, atol=0),
                f"reported relative residual {model.diagnostics.relative_residual:.6e}, "
                f"recomputed {rel_sparse:.6e}")
        W_bar = min_norm_solution(cert, Y, *A.shape).T
        rel_dense = np.linalg.norm(W_bar @ G - H1) / h1_norm
        r = cert.rank
        K = math.sqrt(H1.shape[0] * (min(G.shape) - r)) * (
            math.sqrt(r) * np.linalg.norm(model.W_hat) + np.linalg.norm(W_bar)
        )
        slack = K * delta / h1_norm
        require(rel_sparse <= rel_dense + slack,
                f"relative residual {rel_sparse:.6e} above dense {rel_dense:.6e} "
                f"+ slack {slack:.6e}")


def check_rollout(train: np.ndarray, truth: np.ndarray, predicted: np.ndarray,
                  L: int, p: int) -> None:
    """Rollout from the end of ``train``: range and 20-step error checks.

    The rollout must stay within twice the training range, and its
    worst-channel NRMSE over the first 20 steps against ``truth`` must be at
    most 1.5x that of a dense minimum-norm model fitted and rolled out here
    (the rule acceptance criterion 7's frozen cap was calibrated with).
    """
    lo, hi = train.min(axis=0), train.max(axis=0)
    center, half = (lo + hi) / 2, (hi - lo) / 2
    require(np.all(np.abs(predicted - center) <= 2 * half),
            "rollout leaves twice the training range")
    n = train.shape[1]
    G = monomial_features(window_matrix(train[:-1], L), p)
    H1 = window_matrix(train[1:], L)
    W_bar = np.linalg.lstsq(G.T, H1.T, rcond=None)[0].T
    w = train[-L:].T.reshape(-1)
    newest = np.arange(n) * L + (L - 1)
    dense = []
    for _ in range(20):
        y = (W_bar @ monomial_features(w[:, None], p))[newest, 0]
        dense.append(y)
        w = np.concatenate([np.append(w[j * L + 1 : (j + 1) * L], y[j]) for j in range(n)])
    sparse_err = float(nrmse(truth[:20], predicted[:20]).max())
    dense_err = float(nrmse(truth[:20], np.array(dense)).max())
    require(sparse_err <= 1.5 * dense_err,
            f"20-step NRMSE {sparse_err:.6e} above 1.5 x dense {dense_err:.6e}")


def check_ranking(exposures: np.ndarray, ranking, what: str) -> None:
    """Every institution once, values matching, descending, ties to lower index."""
    insts = [inst for inst, _ in ranking]
    require(sorted(insts) == list(range(1, exposures.size + 1)),
            f"{what}: ranking does not list every institution once")
    for inst, value in ranking:
        require(value == exposures[inst - 1], f"{what}: ranked value of {inst} is wrong")
    keys = [(-value, inst) for inst, value in ranking]
    require(keys == sorted(keys), f"{what}: ranking is not descending with ties to the lower index")


@dataclass
class CliRun:
    """Exit codes and stdout of each command of one pipeline pass."""

    codes: dict
    stdout: dict


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _keyvals(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class CliPipeline(Workload):
    """simulate -> suggest-lag -> train -> forecast -> exposure through rrckit.cli.main."""

    name = "cli_pipeline"
    # Opening samples of the simulated orbit compared with a fixed-step RK4;
    # the adaptive integrator's cubic dense output is good to about 2e-7.
    rk4_samples = 400
    rk4_tol = 1e-6

    def setup(self):
        out = Path(__file__).resolve().parent / "out"
        out.mkdir(exist_ok=True)
        self.close()
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
        panel, _ = rk.synth_panel(18, 15, 24, seed=int(self.rng.integers(2**32)),
                                  noise_level=0.05)
        _write_series(self.dir / "remit.csv", panel.R)
        _write_series(self.dir / "deposits.csv", panel.D)
        self.train_seed = int(self.rng.integers(2**31))
        self.items = [self.dir]

    def close(self):
        if getattr(self, "dir", None) is not None:
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None

    def run(self, d):
        p = {name: str(d / name) for name in (
            "orbit.csv", "seed.csv", "truth.csv", "model.json", "forecast.csv",
            "remit.csv", "deposits.csv", "report.csv")}
        codes, stdout = {}, {}

        def call(name, *argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes[name] = rrckit.cli.main(list(argv))
            stdout[name] = buf.getvalue()

        call("simulate", "simulate", "--regime", "chaotic", "--out", p["orbit.csv"])
        call("suggest-lag", "suggest-lag", "--input", p["orbit.csv"])
        call("train", "train", "--input", p["orbit.csv"], "--lag", "3", "--order", "2",
             "--train-frac", "0.5", "--seed", str(self.train_seed), "--out", p["model.json"])
        # Seed window: the training split; truth: the next HORIZON rows.
        lines = Path(p["orbit.csv"]).read_text(encoding="utf-8").splitlines(keepends=True)
        Path(p["seed.csv"]).write_text("".join(lines[: 1 + SEGMENT]), encoding="utf-8")
        Path(p["truth.csv"]).write_text(
            lines[0] + "".join(lines[1 + SEGMENT : 1 + SEGMENT + HORIZON]), encoding="utf-8")
        call("forecast", "forecast", "--model", p["model.json"], "--seed-data", p["seed.csv"],
             "--horizon", str(HORIZON), "--truth", p["truth.csv"], "--out", p["forecast.csv"])
        call("exposure", "exposure", "--remittances", p["remit.csv"],
             "--deposits", p["deposits.csv"], "--lagged", "--out", p["report.csv"])
        return CliRun(codes, stdout)

    def fingerprint(self, run: CliRun):
        files = sorted(self.dir.iterdir())
        return (tuple(sorted(run.codes.items())), tuple(sorted(run.stdout.items())),
                tuple((f.name, hashlib.sha256(f.read_bytes()).hexdigest()) for f in files))

    def full_check(self, d, run: CliRun):
        for name, code in run.codes.items():
            require(code == 0, f"{name} exited with {code}")
        orbit = _read_csv(d / "orbit.csv")
        require(orbit.shape == (ORBIT_GRID["samples"], 4), f"orbit shape {orbit.shape}")
        dt = ORBIT_GRID["t_end"] / (ORBIT_GRID["samples"] - 1)
        reference = financial_rk4(self.rk4_samples, dt)
        err = float(np.max(np.abs(orbit[: self.rk4_samples, 1:] - reference)))
        require(err <= self.rk4_tol, f"orbit differs from RK4 by {err:.3e} > {self.rk4_tol}")

        lags = [first_crossing(orbit[:, 1 + j]) for j in range(3)]
        printed = _keyvals(run.stdout["suggest-lag"])
        require(int(printed.get("suggested_lag", -1)) == max(lags),
                f"suggested lag {printed.get('suggested_lag')}, first 1/e crossing {max(lags)}")
        for j, lag in enumerate(lags):
            require(int(printed.get(f"lag_x{j + 1}", -1)) == lag,
                    f"lag_x{j + 1} {printed.get(f'lag_x{j + 1}')}, expected {lag}")

        model = rk.load_model(d / "model.json")
        diag = model.diagnostics
        require(all(r <= b for r, b in zip(diag.column_residuals, diag.column_bounds)),
                "model file: a column residual exceeds its bound")

        truth = _read_csv(d / "truth.csv")[:, 1:]
        predicted = _read_csv(d / "forecast.csv")[:, 1:]
        require(predicted.shape == (HORIZON, 3), f"forecast shape {predicted.shape}")
        check_rollout(orbit[:SEGMENT, 1:], truth, predicted, model.L, model.p)
        expected = nrmse(truth, predicted)
        printed = _keyvals(run.stdout["forecast"])
        for j in range(3):
            got = float(printed.get(f"nrmse_x{j + 1}", "nan"))
            require(np.isclose(got, expected[j], rtol=1e-9, atol=0),
                    f"printed nrmse_x{j + 1}={got!r}, recomputed {expected[j]!r}")

        report = _read_csv(d / "report.csv")
        fitted = _read_csv(d / "report_fitted.csv")[:, 1:]
        observed, fit = np.split(fitted, 2, axis=1)
        require(np.allclose(report[:, 1], nrmse(observed, fit), rtol=1e-9, atol=0),
                "exposure report differs from the formula applied to report_fitted.csv")
        ranking = [(int(inst), value) for inst, value, _ in
                   sorted(report.tolist(), key=lambda row: row[2])]
        check_ranking(report[:, 1], ranking, "exposure report")


def _write_series(path: Path, values: np.ndarray) -> None:
    labels = ",".join(f"x{j + 1}" for j in range(values.shape[1]))
    rows = [f"{k:.17g}," + ",".join(f"{v:.17g}" for v in row) for k, row in enumerate(values)]
    path.write_text(f"t,{labels}\n" + "\n".join(rows) + "\n", encoding="utf-8")


WORKLOADS = {w.name: w for w in (IdentifyP3, CliPipeline)}
