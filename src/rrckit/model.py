"""Training, evaluation, rollout, and persistence of regressive reservoir computers.

A trained model evaluates the distinct polynomial monomials of a delay
window (the Kronecker features averaged by the exact compression matrix) and
maps them through a sparse output-coupling matrix; a 0/1 selector then
extracts each channel's newest predicted sample from the dilated output.
Iterating prediction and window sliding simulates the system forward.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .compression import CompressionMatrix, compression_matrix_exact
from .embedding import EmbeddingConfig, TimeSeries, check_model_size, feature_dim
from .embedding import _window_matrix, monomial_features, paired_windows
from .errors import (
    DimensionMismatchError,
    FeatureBudgetError,
    ModelFormatError,
    ModelVersionError,
    NumericBlowupError,
)
from .linalg import SolverConfig, sparse_lstsq

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


def _newest_slots(n: int, L: int) -> np.ndarray:
    """0-based index of each channel block's newest slot in an nL window."""
    return np.arange(n) * L + (L - 1)


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
        """0-based window-slot index selected for each channel: its newest."""
        return _newest_slots(self.n, self.L)


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
    check_model_size(x.n * cfg.L, cfg.p)
    Xw, H1 = paired_windows(x, y, cfg.L)  # (nL, cols) each
    G = _finite_features(Xw, x, cfg.p)    # (rho, cols)
    W_hat = np.zeros((H1.shape[0], G.shape[0]))
    return _fit(x.values, G, H1, W_hat, np.arange(H1.shape[0]), cfg, solver, seed)


def train_autoregressive(
    x: TimeSeries,
    cfg: EmbeddingConfig,
    solver: SolverConfig,
    seed: int = 0,
) -> RRCModel:
    """Train on one-step-ahead targets: pair each sample with its successor.

    Only the newest slot of each channel block carries a new sample. Every
    other target row is the next input slot, so its row of W_hat is written
    exactly, a single 1.0 on that slot's linear monomial (the linear
    monomials come first, in slot order), and the solver fits the n newest
    rows alone.
    """
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
    return _fit(x.values[:-1], G, H1, W_hat, _newest_slots(x.n, cfg.L), cfg, solver, seed)


def _finite_features(windows: np.ndarray, x: TimeSeries, p: int) -> np.ndarray:
    """monomial_features of x's windows, which must all be finite.

    Raises ValueError naming the channel with the largest magnitude in the
    windows when a feature overflows: a product of q <= p entries that
    overflows makes that channel's own order-p power overflow too.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf, then inf * 0
        G = monomial_features(windows, p)
    if not np.all(np.isfinite(G)):
        peaks = np.abs(windows).max(axis=1).reshape(x.n, -1).max(axis=1)
        j = int(np.argmax(peaks))
        name = x.labels[j] if x.labels else str(j)
        raise ValueError(
            f"order-{p} features overflow: channel {name} reaches {peaks[j]:.3g}; "
            "rescale it"
        )
    return G


def _fit(
    inputs: np.ndarray,
    G: np.ndarray,
    H1: np.ndarray,
    W_hat: np.ndarray,
    rows: np.ndarray,
    cfg: EmbeddingConfig,
    solver: SolverConfig,
    seed: int,
) -> RRCModel:
    """Solve the given rows of W_hat G = H1 into W_hat; its other rows are exact.

    ``inputs`` (T x n) are the input samples, whose range the rollout guard uses.

    An exact row, a single 1.0 at column j, reproduces its target, the
    feature row G[j], so its residual is 0. Its certificate in
    :func:`sparse_lstsq`'s terms, ||x|| * slack + ||(I - Q) G[j]|| with
    ||x|| = 1, is recorded as slack + delta: the rank rule leaves
    ||(I - Q) G[j]|| <= delta. That residual is exactly 0, so it needs no
    rounding term.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    solution = sparse_lstsq(G.T, H1[rows].T, solver)
    W_hat[rows] = solution.X.T  # W_hat stays C-contiguous, as a reloaded model is

    residual = W_hat @ G - H1
    exact = np.ones(len(H1), dtype=bool)
    exact[rows] = False
    column_residuals = np.empty(len(H1))
    column_residuals[rows] = solution.residual_norms
    column_residuals[exact] = np.linalg.norm(residual[exact], axis=1)
    column_bounds = np.empty(len(H1))
    column_bounds[rows] = solution.column_bounds
    column_bounds[exact] = solution.slack + solver.delta
    residual_fro = float(np.linalg.norm(residual))
    h1_norm = float(np.linalg.norm(H1))
    diagnostics = TrainingDiagnostics(
        rank=solution.rank,
        nnz=int(np.count_nonzero(W_hat)),
        residual_fro=residual_fro,
        relative_residual=residual_fro / h1_norm if h1_norm > 0 else 0.0,
        column_residuals=column_residuals.tolist(),
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
    # transform's product, without its per-step checks and selector rebuild.
    W_hat, p, selected = model.W_hat, model.p, model.selector_indices
    for step in range(1, horizon + 1):
        y_sel = (W_hat @ monomial_features(window, p))[selected]
        worst = float(np.max(np.abs(y_sel)))
        if not np.isfinite(worst) or worst > guard:
            raise NumericBlowupError(step=step, value=worst, guard=guard)
        out[step - 1] = y_sel
        blocks[:, :-1] = blocks[:, 1:]
        blocks[:, -1] = y_sel
    return TimeSeries(out)


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
    """Read a model written by :func:`save_model`, schema version 2 or 1.

    First, before anything of that size is computed or allocated, the model
    that n, L and p ask for must pass :func:`check_model_size`, as every
    model the training functions return does. A version-1 document also
    holds the compression block, which must be the exact monomial partition,
    and the diagnostics ``nu`` (finite, > 0) and ``rng_name`` (a string).
    These are checked, then dropped, and the rest is read as version 2,
    whose document holds exactly the keys :func:`save_model` writes.

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
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        raise ModelFormatError(f"not a model file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT_MARKER:
        raise ModelFormatError("missing or wrong format marker")
    version = doc.get("schema_version")
    if not (type(version) is int and version in (1, SCHEMA_VERSION)):
        raise ModelVersionError(
            f"unsupported schema version {version!r}, expected {SCHEMA_VERSION} or 1"
        )
    try:
        n, L, p = _checked_size(doc)
        if version == 1:
            _drop_v1_fields(doc, n, L, p)
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


def _drop_v1_fields(doc: dict, n: int, L: int, p: int) -> None:
    """Check the parts only version 1 holds, then remove them from ``doc``."""
    comp = doc.pop("compression")
    # Sized against the file before the partition of that size is enumerated.
    _require(
        sum(len(g) for g in comp["groups"]) == feature_dim(n * L, p),
        "compression groups do not cover the feature columns",
    )
    R = compression_matrix_exact(n, L, p)
    exact = {"rho": R.rows, "d": R.cols, "groups": [list(g) for g in R.groups],
             "group_spread": R.group_spread}
    _require(comp == exact, "compression block is not the exact partition")
    diagnostics = doc["diagnostics"]
    _require(isinstance(diagnostics, dict), "diagnostics must be an object")
    nu, rng_name = diagnostics.pop("nu"), diagnostics.pop("rng_name")
    _require(_is_number(nu) and nu > 0,
             f"diagnostics nu must be a finite number > 0, got {nu!r}")
    _require(type(rng_name) is str,
             f"diagnostics rng_name must be a string, got {rng_name!r}")


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
