"""Training, evaluation, rollout, and persistence of regressive reservoir computers.

A trained model evaluates the distinct polynomial monomials of a delay
window (the Kronecker features averaged by the exact compression matrix) and
maps them through a sparse output-coupling matrix; a 0/1 selector then
extracts each channel's newest predicted sample from the dilated output.
Iterating prediction over a buffer of samples simulates the system forward.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .compression import CompressionMatrix, compression_matrix_exact
from .embedding import EmbeddingConfig, TimeSeries, check_model_size
from .embedding import _window_matrix, monomial_features, paired_windows
from .errors import (
    DimensionMismatchError,
    FeatureBudgetError,
    ModelFormatError,
    ModelVersionError,
    NumericBlowupError,
)
from .linalg import SolverConfig, _column_norms, sparse_lstsq

__all__ = [
    "SCHEMA_VERSION",
    "TrainingDiagnostics",
    "RRCModel",
    "train_rrc",
    "train_autoregressive",
    "transform",
    "forecast",
    "save_model",
    "load_model",
]

SCHEMA_VERSION = 2
_FORMAT_MARKER = "rrc-model"
_DOC_KEYS = {"format", "schema_version", "n", "L", "p", "selector_offset", "W_hat",
             "diagnostics"}
_W_HAT_KEYS = {"rows", "cols", "triplets"}


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
    seed: int


@dataclass(eq=False)
class RRCModel:
    """A trained model: embedding parameters, compression, output coupling.

    W_hat has one row per window slot (nL rows) and one column per
    compressed feature; the selector exposes the newest slot of each channel
    block, the sample that advances an autoregressive rollout.
    """

    n: int
    L: int
    p: int
    W_hat: np.ndarray
    diagnostics: TrainingDiagnostics

    def __post_init__(self):
        nL = self.n * self.L
        rho = math.comb(nL + self.p, self.p)  # distinct monomials, constant included
        if self.W_hat.shape != (nL, rho):
            raise DimensionMismatchError(
                f"W_hat shape {self.W_hat.shape}, expected ({nL}, {rho})"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RRCModel):
            return NotImplemented
        return (
            (self.n, self.L, self.p) == (other.n, other.L, other.p)
            and np.array_equal(self.W_hat, other.W_hat)
            and self.diagnostics == other.diagnostics
        )

    @property
    def R(self) -> CompressionMatrix:
        """The compression matrix the features are averaged by: the exact partition."""
        return compression_matrix_exact(self.n, self.L, self.p)

    @property
    def selector_indices(self) -> np.ndarray:
        """0-based window-slot index selected for each channel: its newest, every L-th."""
        return np.arange(self.L - 1, self.n * self.L, self.L)


def train_rrc(
    x: TimeSeries,
    y: TimeSeries,
    cfg: EmbeddingConfig,
    solver: SolverConfig,
    seed: int = 0,
) -> RRCModel:
    """Identify the sparse output-coupling matrix mapping x windows to y windows.

    Evaluates the distinct monomials G of every x window, which equal the
    compressed features R H0, and solves W_hat G = H1 through the transposed
    system so each output row is fitted independently by the sparse solver.

    ``seed`` (>= 0) is recorded provenance only; it does not affect the fit.

    Raises
    ------
    RankZeroError
        If the compressed feature matrix has numerical rank 0 at
        ``solver.delta``.
    DimensionMismatchError
        If the series shapes disagree.
    FeatureBudgetError
        If the model fails :func:`check_model_size`, the limit
        :func:`load_model` applies, or its features exceed the budget.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    check_model_size(x.n * cfg.L, cfg.p)
    Xw, H1 = paired_windows(x, y, cfg.L)  # (nL, cols) each
    G = _finite_features(Xw, x, cfg.p)    # (rho, cols)
    W_hat = np.zeros((H1.shape[0], G.shape[0]))
    return _fit(x.values, G, H1, W_hat, slice(None), cfg, solver, seed)


def train_autoregressive(
    x: TimeSeries,
    cfg: EmbeddingConfig,
    solver: SolverConfig,
    seed: int = 0,
) -> RRCModel:
    """Train on one-step-ahead targets: pair each sample with its successor.

    Only the newest slot of each channel block, every L-th row from row L - 1,
    carries a new sample. Every other target row is the next input slot, so
    its row of W_hat is written exactly, a single 1.0 on that slot's linear
    monomial (the linear monomials come first, in slot order), and the solver
    fits the n newest rows alone.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if x.T < cfg.L + 1:
        raise ValueError(
            f"autoregressive training needs at least L + 1 = {cfg.L + 1} samples, got {x.T}"
        )
    check_model_size(x.n * cfg.L, cfg.p)
    windows = _window_matrix(x.values, cfg.L)  # column k + 1 is column k's successor
    G = _finite_features(windows[:, :-1], x, cfg.p)
    H1 = windows[:, 1:]
    # Row i copies slot i + 1: a 1.0 on its linear monomial, G's row i + 1.
    # The newest rows' entries are overwritten by the fit.
    W_hat = np.eye(H1.shape[0], G.shape[0], k=1)
    return _fit(x.values[:-1], G, H1, W_hat, slice(cfg.L - 1, None, cfg.L), cfg, solver, seed)


def _finite_features(windows: np.ndarray, x: TimeSeries, p: int) -> np.ndarray:
    """monomial_features of x's windows, once their peaks show them all finite.

    An order-q feature is a left-to-right product of q <= p window entries, so
    by monotone, sign-symmetric IEEE rounding none exceeds in magnitude the
    order-q power of the largest magnitude M, itself an order-q feature. Those
    powers are all finite exactly when the order-p one, math.prod([M] * p), is;
    otherwise this raises ValueError naming M's channel before building any.
    """
    peaks = np.abs(windows).max(axis=1).reshape(x.n, -1).max(axis=1)
    j = int(np.argmax(peaks))
    if not math.isfinite(math.prod([float(peaks[j])] * p)):
        name = x.labels[j] if x.labels else str(j)
        raise ValueError(f"order-{p} features overflow: channel {name} reaches "
                         f"{peaks[j]:.3g}; rescale it")
    return monomial_features(windows, p)


def _fit(
    inputs: np.ndarray,
    G: np.ndarray,
    H1: np.ndarray,
    W_hat: np.ndarray,
    rows: slice,
    cfg: EmbeddingConfig,
    solver: SolverConfig,
    seed: int,
) -> RRCModel:
    """Solve the given rows of W_hat G = H1 into W_hat; its other rows are exact.

    ``inputs`` (T x n) are the input samples, whose range the rollout guard uses.

    Every residual figure comes from the one product W_hat G - H1: a column
    residual is the norm of its row. An exact row, a single 1.0 at column j,
    reproduces its target, the feature row G[j], so its residual is 0. Its
    certificate in :func:`sparse_lstsq`'s terms, ||x|| * slack +
    ||(I - Q) G[j]|| with ||x|| = 1, is recorded as slack + delta: the rank
    rule leaves ||(I - Q) G[j]|| <= delta. That residual is exactly 0, so it
    needs no rounding term.
    """
    solution = sparse_lstsq(G.T, H1[rows].T, solver)
    W_hat[rows] = solution.X.T  # W_hat stays C-contiguous, as a reloaded model is

    residual = W_hat @ G - H1
    column_bounds = np.full(len(H1), solution.slack + solver.delta)
    column_bounds[rows] = solution.column_bounds
    residual_fro = float(_column_norms(residual.ravel()))
    h1_norm = float(_column_norms(H1.ravel()))
    diagnostics = TrainingDiagnostics(
        rank=solution.rank,
        nnz=int(np.count_nonzero(W_hat)),
        residual_fro=residual_fro,
        relative_residual=residual_fro / h1_norm if h1_norm > 0 else 0.0,
        column_residuals=_column_norms(residual.T).tolist(),
        column_bounds=column_bounds.tolist(),
        train_min=[float(v) for v in inputs.min(axis=0)],
        train_max=[float(v) for v in inputs.max(axis=0)],
        delta=solver.delta,
        epsilon=solver.epsilon,
        max_iter=solver.max_iter,
        seed=seed,
    )
    return RRCModel(n=inputs.shape[1], L=cfg.L, p=cfg.p, W_hat=W_hat,
                    diagnostics=diagnostics)


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
    return y_dilated, y_dilated[model.L - 1 :: model.L]


def _rollout_guard(model: RRCModel, guard_factor: float) -> tuple[np.ndarray, float]:
    """Each channel's training centre, and guard_factor times the widest training range."""
    lo = np.asarray(model.diagnostics.train_min)
    hi = np.asarray(model.diagnostics.train_max)
    scale = float(np.max(hi - lo))
    if scale <= 0.0:
        scale = max(1.0, float(np.max(np.abs(np.concatenate([lo, hi])))))
    return lo / 2 + hi / 2, guard_factor * scale


def forecast(
    model: RRCModel,
    seed_window: np.ndarray,
    horizon: int,
    guard_factor: float = 1e6,
) -> TimeSeries:
    """Autoregressive rollout: transform the newest window, append its prediction.

    One buffer holds the seed window's L samples, then one predicted row per
    step. Step s (0-based) transforms the window of buffer rows s .. s + L - 1,
    laid out by the package's window rule, and writes row s + L.

    Parameters
    ----------
    seed_window : (nL,) array
        Starting delay window (channel-major, oldest first per block).
    horizon : int
        Number of steps to simulate.
    guard_factor : float
        Divergence guard, > 0; a predicted entry farther from the centre of its
        channel's training range, (train_min + train_max) / 2, than
        guard_factor times the widest channel range aborts the rollout. When
        every range is 0, the largest training magnitude, at least 1, takes
        the range's place.

    Raises
    ------
    NumericBlowupError
        When the rollout diverges past the guard (carries the step index).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not guard_factor > 0:
        raise ValueError(f"guard_factor must be > 0, got {guard_factor}")
    window = np.asarray(seed_window, dtype=float).ravel()
    n, L = model.n, model.L
    if window.size != n * L:
        raise DimensionMismatchError(
            f"seed window has {window.size} entries, expected {n * L}"
        )
    centre, guard = _rollout_guard(model, guard_factor)
    samples = np.empty((L + horizon, n))
    samples[:L] = window.reshape(n, L).T
    for s in range(horizon):
        _, y_sel = transform(model, samples[s : s + L].T)
        worst = float(np.max(np.abs(y_sel - centre)))
        if not np.isfinite(worst) or worst > guard:
            raise NumericBlowupError(step=s + 1, value=worst, guard=guard)
        samples[s + L] = y_sel
    return TimeSeries(samples[L:])


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
        "selector_offset": model.L,  # the selector's slot in each block: the newest
        "W_hat": {"rows": rows, "cols": cols, "triplets": triplets},
        "diagnostics": asdict(model.diagnostics),
    }
    # allow_nan=False: Infinity and NaN are not JSON, so a file never holds them.
    Path(path).write_text(json.dumps(doc, indent=1, allow_nan=False), encoding="utf-8")


def load_model(path: str | Path) -> RRCModel:
    """Read a model written by :func:`save_model`, schema version 2.

    First, before anything of that size is computed or allocated, the model
    that n, L and p ask for must pass :func:`check_model_size`, as every
    model the training functions return does. The document must hold
    exactly the keys :func:`save_model` writes.

    Raises
    ------
    ModelFormatError
        If the file is not a model document, or any field is missing,
        mistyped, out of range, non-finite, or inconsistent with the others.
    ModelVersionError
        If the schema version is unsupported.
    """
    try:
        doc = json.loads(
            Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant
        )
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep
        raise ModelFormatError(f"not a model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_MARKER:
        raise ModelFormatError("missing or wrong format marker")
    version = doc.get("schema_version")
    if not (type(version) is int and version == SCHEMA_VERSION):
        raise ModelVersionError(
            f"unsupported schema version {version!r}, expected {SCHEMA_VERSION}"
        )
    try:
        n, L, p = _checked_size(doc)
        _require(doc.keys() == _DOC_KEYS,
                 f"model document keys must be {sorted(_DOC_KEYS)}, got {sorted(doc)}")
        return _model_from_doc(doc, n, L, p)
    # OverflowError: an integer too large for a float where a number is expected.
    except (KeyError, TypeError, ValueError, OverflowError, DimensionMismatchError) as exc:
        raise ModelFormatError(f"malformed model document: {exc!r}") from exc


def _reject_constant(name: str):
    # Python's json reads Infinity and NaN, which are not JSON.
    raise ValueError(f"{name} is not a JSON number")


def _require(ok, message: str) -> None:
    if not ok:
        raise ModelFormatError(message)


def _is_number(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _nonneg_numbers(v) -> bool:
    return all(_is_number(x) and x >= 0 for x in v)


# Diagnostics field -> (test of its value, what the test asks for). Lists
# have their lengths checked against the model separately.
_DIAGNOSTIC_CHECKS = {
    "rank": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "nnz": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "residual_fro": (lambda v: _is_number(v) and v >= 0, "a finite number >= 0"),
    "relative_residual": (lambda v: _is_number(v) and v >= 0, "a finite number >= 0"),
    "column_residuals": (_nonneg_numbers, "finite numbers >= 0"),
    "column_bounds": (_nonneg_numbers, "finite numbers >= 0"),
    "train_min": (lambda v: all(map(_is_number, v)), "finite numbers"),
    "train_max": (lambda v: all(map(_is_number, v)), "finite numbers"),
    "delta": (lambda v: _is_number(v) and v > 0, "a finite number > 0"),
    "epsilon": (lambda v: _is_number(v) and v >= 0, "a finite number >= 0"),
    "max_iter": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "seed": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
}


def _diagnostics_from_doc(fields: dict, W_hat: np.ndarray, n: int) -> TrainingDiagnostics:
    diagnostics = TrainingDiagnostics(**fields)  # a missing or extra key: TypeError
    lengths = {"column_residuals": W_hat.shape[0], "column_bounds": W_hat.shape[0],
               "train_min": n, "train_max": n}
    for name, (valid, wanted) in _DIAGNOSTIC_CHECKS.items():
        value = getattr(diagnostics, name)
        if name in lengths:
            _require(type(value) is list and len(value) == lengths[name],
                     f"diagnostics {name} must hold {lengths[name]} values")
        _require(valid(value), f"diagnostics {name} must be {wanted}, got {value!r}")
    _require(diagnostics.rank <= W_hat.shape[1],
             f"diagnostics rank {diagnostics.rank} exceeds the {W_hat.shape[1]} features")
    _require(diagnostics.nnz == np.count_nonzero(W_hat),
             f"diagnostics nnz {diagnostics.nnz} differs from W_hat's nonzeros")
    _require(all(lo <= hi for lo, hi in zip(diagnostics.train_min, diagnostics.train_max)),
             "diagnostics train_min exceeds train_max")
    return diagnostics


def _checked_size(doc: dict) -> tuple[int, int, int]:
    """n, L, p of the document, once the model they ask for fits the budget."""
    n, L, p = doc["n"], doc["L"], doc["p"]
    _require(
        all(type(v) is int and v >= 1 for v in (n, L, p)),
        f"n, L, p must be positive integers, got {n!r}, {L!r}, {p!r}",
    )
    try:
        check_model_size(n * L, p)
    except FeatureBudgetError as exc:
        raise ModelFormatError(f"n, L, p = {n}, {L}, {p}: {exc}") from exc
    return n, L, p


def _model_from_doc(doc: dict, n: int, L: int, p: int) -> RRCModel:
    shape = (n * L, math.comb(n * L + p, p))
    w_doc = doc["W_hat"]
    _require(isinstance(w_doc, dict) and w_doc.keys() == _W_HAT_KEYS,
             f"W_hat must be an object with keys {sorted(_W_HAT_KEYS)}")
    dims = (w_doc["rows"], w_doc["cols"])
    _require(all(type(v) is int for v in dims) and dims == shape,
             f"W_hat is {dims!r}, expected {shape}")
    triplets = w_doc["triplets"]
    _require(
        type(triplets) is list
        and all(type(t) is list and len(t) == 3 and type(t[0]) is int
                and type(t[1]) is int and type(t[2]) in (int, float) for t in triplets),
        "W_hat triplets must be [row, column, value], row and column integers",
    )
    ijv = np.array(triplets, dtype=float).reshape(-1, 3)
    index, values = ijv[:, :2], ijv[:, 2]
    _require(np.all((index >= 0) & (index < shape)), "W_hat triplet index outside the matrix")
    _require(np.all(np.isfinite(values) & (values != 0)),
             "W_hat coefficients must be finite and nonzero")
    W_hat = np.zeros(shape)
    W_hat[tuple(index.T.astype(np.intp))] = values
    # Every value is nonzero, so a repeated index leaves fewer nonzeros than triplets.
    _require(np.count_nonzero(W_hat) == len(values), "W_hat has two triplets at one index")

    offset = doc["selector_offset"]
    _require(type(offset) is int and offset == L,
             f"selector_offset must be the integer L = {L}, got {offset!r}")
    return RRCModel(n=n, L=L, p=p, W_hat=W_hat,
                    diagnostics=_diagnostics_from_doc(doc["diagnostics"], W_hat, n))
