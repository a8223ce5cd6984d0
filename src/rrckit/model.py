"""Training, evaluation, rollout, and persistence of regressive reservoir computers.

A trained model evaluates the distinct polynomial monomials of a delay
window (the Kronecker features averaged by the exact compression matrix) and
maps them through a sparse output-coupling matrix; a 0/1 selector then
extracts one predicted sample per channel from the dilated output. Iterating
prediction and window sliding simulates the system forward.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .compression import CompressionMatrix, compression_matrix_exact
from .embedding import EmbeddingConfig, TimeSeries, feature_dim
from .embedding import monomial_features, paired_windows
from .errors import (
    DimensionMismatchError,
    ModelFormatError,
    ModelVersionError,
    NumericBlowupError,
)
from .linalg import SolverConfig, sparse_lstsq

__all__ = [
    "SCHEMA_VERSION",
    "TrainingDiagnostics",
    "RRCModel",
    "selector_matrix",
    "train_rrc",
    "train_autoregressive",
    "transform",
    "forecast",
    "save_model",
    "load_model",
]

SCHEMA_VERSION = 1
_FORMAT_MARKER = "rrc-model"
_RNG_NAME = "numpy-pcg64"


@dataclass
class TrainingDiagnostics:
    """Fit quality and provenance recorded at training time."""

    rank: int
    nnz: int
    residual_fro: float
    relative_residual: float
    column_residuals: list[float]
    column_bounds: list[float]
    train_min: list[float]
    train_max: list[float]
    delta: float
    epsilon: float
    max_iter: int
    nu: float
    seed: int
    rng_name: str = _RNG_NAME


@dataclass(eq=False)
class RRCModel:
    """A trained model: embedding parameters, compression, output coupling.

    W_hat has one row per window slot (nL rows) and one column per
    compressed feature; selector_offset in [1, L] picks which slot of each
    channel block the selector exposes (L = newest, which is what advances
    an autoregressive rollout).
    """

    n: int
    L: int
    p: int
    selector_offset: int
    W_hat: np.ndarray
    diagnostics: TrainingDiagnostics

    def __post_init__(self):
        nL = self.n * self.L
        rho = math.comb(nL + self.p, self.p)  # distinct monomials, constant included
        if self.W_hat.shape != (nL, rho):
            raise DimensionMismatchError(
                f"W_hat shape {self.W_hat.shape}, expected ({nL}, {rho})"
            )
        if not 1 <= self.selector_offset <= self.L:
            raise ValueError(
                f"selector_offset must lie in [1, {self.L}], got {self.selector_offset}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RRCModel):
            return NotImplemented
        return (
            (self.n, self.L, self.p, self.selector_offset)
            == (other.n, other.L, other.p, other.selector_offset)
            and np.array_equal(self.W_hat, other.W_hat)
            and self.diagnostics == other.diagnostics
        )

    @property
    def R(self) -> CompressionMatrix:
        """The compression matrix the features are averaged by: the exact partition."""
        return compression_matrix_exact(self.n, self.L, self.p)

    @property
    def selector_indices(self) -> np.ndarray:
        """0-based window-slot index selected for each channel."""
        return np.arange(self.n) * self.L + (self.selector_offset - 1)


def selector_matrix(n: int, L: int, offset: int) -> np.ndarray:
    """0/1 matrix (n x nL) whose row j selects window slot (j-1)*L + offset."""
    if not 1 <= offset <= L:
        raise ValueError(f"offset must lie in [1, {L}], got {offset}")
    K = np.zeros((n, n * L))
    for j in range(n):
        K[j, j * L + offset - 1] = 1.0
    return K


def train_rrc(
    x: TimeSeries,
    y: TimeSeries,
    cfg: EmbeddingConfig,
    solver: SolverConfig,
    seed: int = 0,
    nu: float = 1.0,
    selector_offset: int | None = None,
) -> RRCModel:
    """Identify the sparse output-coupling matrix mapping x windows to y windows.

    Evaluates the distinct monomials G of every x window, which equal the
    compressed features R H0, and solves W_hat G = H1 through the transposed
    system so each output row is fitted independently by the sparse solver.

    ``seed`` and ``nu`` (the randomized compression probe's seed and scale,
    finite ``nu > 0``) are recorded provenance only: every probe that succeeds
    reproduces the exact partition, so they do not affect the fit.

    Raises
    ------
    RankZeroError
        If the compressed feature matrix has numerical rank 0 at
        ``solver.delta``.
    DimensionMismatchError
        If the series shapes disagree.
    """
    if not (math.isfinite(nu) and nu > 0):
        raise ValueError(f"nu must be finite and > 0, got {nu}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    Xw, H1 = paired_windows(x, y, cfg.L)  # (nL, cols) each
    G = monomial_features(Xw, cfg.p)      # (rho, cols)
    solution = sparse_lstsq(G.T, H1.T, solver)
    # C-contiguous so matvecs match a reloaded model bit for bit.
    W_hat = np.ascontiguousarray(solution.X.T)  # (nL, rho)

    residual_fro = float(np.linalg.norm(W_hat @ G - H1))
    h1_norm = float(np.linalg.norm(H1))
    diagnostics = TrainingDiagnostics(
        rank=solution.rank,
        nnz=int(np.count_nonzero(W_hat)),
        residual_fro=residual_fro,
        relative_residual=residual_fro / h1_norm if h1_norm > 0 else 0.0,
        column_residuals=[float(v) for v in solution.residual_norms],
        column_bounds=solution.column_bounds,
        train_min=[float(v) for v in x.values.min(axis=0)],
        train_max=[float(v) for v in x.values.max(axis=0)],
        delta=solver.delta,
        epsilon=solver.epsilon,
        max_iter=solver.max_iter,
        nu=nu,
        seed=seed,
    )
    return RRCModel(
        n=x.n,
        L=cfg.L,
        p=cfg.p,
        selector_offset=cfg.L if selector_offset is None else selector_offset,
        W_hat=W_hat,
        diagnostics=diagnostics,
    )


def train_autoregressive(
    x: TimeSeries,
    cfg: EmbeddingConfig,
    solver: SolverConfig,
    seed: int = 0,
    **kwargs,
) -> RRCModel:
    """Train on one-step-ahead targets: pair each sample with its successor."""
    if x.T < cfg.L + 1:
        raise ValueError(
            f"autoregressive training needs at least L + 1 = {cfg.L + 1} samples, got {x.T}"
        )
    x_in = TimeSeries(x.values[:-1], dt=x.dt, labels=x.labels)
    y_out = TimeSeries(x.values[1:], dt=x.dt, labels=x.labels)
    return train_rrc(x_in, y_out, cfg, solver, seed=seed, **kwargs)


def transform(model: RRCModel, window: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Apply the trained map to one delay window.

    Returns (y_dilated, y_selected): the full nL-dimensional output and the
    n entries the selector exposes.
    """
    window = np.asarray(window, dtype=float).ravel()
    nL = model.n * model.L
    if window.size != nL:
        raise DimensionMismatchError(f"window has {window.size} entries, expected {nL}")
    y_dilated = model.W_hat @ monomial_features(window, model.p)
    return y_dilated, y_dilated[model.selector_indices]


def _rollout_guard(model: RRCModel, guard_factor: float) -> float:
    lo = np.asarray(model.diagnostics.train_min)
    hi = np.asarray(model.diagnostics.train_max)
    scale = float(np.max(hi - lo))
    if scale <= 0.0:
        scale = max(1.0, float(np.max(np.abs(np.concatenate([lo, hi])))))
    return guard_factor * scale


def forecast(
    model: RRCModel,
    seed_window: np.ndarray,
    horizon: int,
    guard_factor: float = 1e6,
) -> TimeSeries:
    """Autoregressive rollout: predict, slide each channel block, repeat.

    Parameters
    ----------
    seed_window : (nL,) array
        Starting delay window (channel-major, oldest first per block).
    horizon : int
        Number of steps to simulate.
    guard_factor : float
        Divergence guard, > 0; a predicted entry whose magnitude exceeds
        guard_factor times the training data range aborts the rollout.

    Raises
    ------
    NumericBlowupError
        When the rollout diverges past the guard (carries the step index).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not guard_factor > 0:
        raise ValueError(f"guard_factor must be > 0, got {guard_factor}")
    window = np.asarray(seed_window, dtype=float).ravel().copy()
    nL = model.n * model.L
    if window.size != nL:
        raise DimensionMismatchError(
            f"seed window has {window.size} entries, expected {nL}"
        )
    guard = _rollout_guard(model, guard_factor)
    blocks = window.reshape(model.n, model.L)  # view: one row per channel block
    out = np.empty((horizon, model.n))
    for step in range(1, horizon + 1):
        _, y_sel = transform(model, window)
        worst = float(np.max(np.abs(y_sel)))
        if not np.isfinite(worst) or worst > guard:
            raise NumericBlowupError(step=step, value=worst, guard=guard)
        out[step - 1] = y_sel
        blocks[:, :-1] = blocks[:, 1:]
        blocks[:, -1] = y_sel
    return TimeSeries(out)


def _compression_doc(R: CompressionMatrix) -> dict:
    return {
        "rho": R.rows,
        "d": R.cols,
        "groups": [list(g) for g in R.groups],
        "group_spread": R.group_spread,
    }


def save_model(model: RRCModel, path: str | Path) -> None:
    """Write the model as a versioned JSON document (lossless round trip)."""
    rows, cols = model.W_hat.shape
    triplets = [
        [int(i), int(j), float(model.W_hat[i, j])]
        for i, j in zip(*np.nonzero(model.W_hat))
    ]
    doc = {
        "format": _FORMAT_MARKER,
        "schema_version": SCHEMA_VERSION,
        "n": model.n,
        "L": model.L,
        "p": model.p,
        "selector_offset": model.selector_offset,
        "compression": _compression_doc(model.R),
        "W_hat": {"rows": rows, "cols": cols, "triplets": triplets},
        "diagnostics": asdict(model.diagnostics),
    }
    # allow_nan=False: Infinity and NaN are not JSON, so a file never holds them.
    Path(path).write_text(json.dumps(doc, indent=1, allow_nan=False), encoding="utf-8")


def load_model(path: str | Path) -> RRCModel:
    """Read a model written by :func:`save_model`.

    Raises
    ------
    ModelFormatError
        If the file is not a model document, or any field is missing,
        mistyped, out of range, non-finite, or inconsistent with the others
        (including a compression block other than the exact partition).
    ModelVersionError
        If the schema version is unsupported.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"not a model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_MARKER:
        raise ModelFormatError("missing or wrong format marker")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelVersionError(
            f"unsupported schema version {version}, expected {SCHEMA_VERSION}"
        )
    try:
        return _model_from_doc(doc)
    except (KeyError, TypeError, ValueError, DimensionMismatchError) as exc:
        raise ModelFormatError(f"malformed model document: {exc!r}") from exc


def _require(ok, message: str) -> None:
    if not ok:
        raise ModelFormatError(message)


def _model_from_doc(doc: dict) -> RRCModel:
    n, L, p = doc["n"], doc["L"], doc["p"]
    _require(
        all(type(v) is int and v >= 1 for v in (n, L, p)),
        f"n, L, p must be positive integers, got {n!r}, {L!r}, {p!r}",
    )
    comp = doc["compression"]
    # Sized against the file before the partition of that size is enumerated.
    _require(
        sum(len(g) for g in comp["groups"]) == feature_dim(n * L, p),
        "compression groups do not cover the feature columns",
    )
    R = compression_matrix_exact(n, L, p)
    _require(comp == _compression_doc(R), "compression block is not the exact partition")

    w_doc = doc["W_hat"]
    shape = (w_doc["rows"], w_doc["cols"])
    _require(shape == (n * L, R.rows), f"W_hat is {shape}, expected {(n * L, R.rows)}")
    triplets = np.array(w_doc["triplets"], dtype=float)
    if triplets.size == 0:
        triplets = triplets.reshape(0, 3)
    _require(triplets.ndim == 2 and triplets.shape[1] == 3, "W_hat triplet not [i, j, v]")
    index = triplets[:, :2]
    _require(
        np.all(index == np.floor(index))
        and np.all(index >= 0)
        and np.all(index < np.array(shape)),
        "W_hat triplet index outside the matrix",
    )
    _require(np.all(np.isfinite(triplets[:, 2])), "W_hat has a non-finite coefficient")
    W_hat = np.zeros(shape)
    W_hat[index[:, 0].astype(int), index[:, 1].astype(int)] = triplets[:, 2]

    diagnostics = TrainingDiagnostics(**doc["diagnostics"])
    for name in ("train_min", "train_max"):
        values = np.asarray(getattr(diagnostics, name), dtype=float)
        _require(
            values.shape == (n,) and np.all(np.isfinite(values)),
            f"diagnostics {name} must hold {n} finite values",
        )
    return RRCModel(
        n=n,
        L=L,
        p=p,
        selector_offset=doc["selector_offset"],
        W_hat=W_hat,
        diagnostics=diagnostics,
    )
