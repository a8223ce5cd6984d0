"""Remittance-to-deposit models and the per-institution exposure measure.

Quarterly remittance inflows of geographic regions drive the deposits of
financial institutions. Two fully linear sparse models are fitted: one on
current-quarter inflows only, one stacking current and one-quarter-lagged
inflows. The exposure of an institution is the root-mean-square deviation of
its fitted deposits from the observed ones, normalized by the institution's
peak deposit magnitude.

Supervisory panel data is rarely shareable, so a synthetic generator with
the same shape (regions x institutions x quarters, planted sparse coupling)
provides oracle-checked fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChannelError, DimensionMismatchError
from .linalg import SolverConfig, _column_norms, sparse_lstsq

__all__ = [
    "RemittancePanel",
    "RemittanceModel",
    "ExposureReport",
    "fit_nonlagged",
    "fit_lagged",
    "exposure",
    "rank_exposures",
    "synth_panel",
]


@dataclass
class RemittancePanel:
    """Aligned quarterly panel: R (quarters x regions), D (quarters x institutions)."""

    R: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        self.R = np.asarray(self.R, dtype=float)
        self.D = np.asarray(self.D, dtype=float)
        if self.R.ndim != 2 or self.D.ndim != 2:
            raise ValueError("R and D must be 2-D")
        if self.R.shape[0] != self.D.shape[0]:
            raise DimensionMismatchError(
                f"R has {self.R.shape[0]} quarters, D has {self.D.shape[0]}"
            )
        if self.R.shape[0] < 1 or self.R.shape[1] < 1 or self.D.shape[1] < 1:
            raise ValueError("panel must be non-empty")
        if not (np.all(np.isfinite(self.R)) and np.all(np.isfinite(self.D))):
            raise ValueError("panel values must be finite")

    @property
    def quarters(self) -> int:
        return self.R.shape[0]

    @property
    def regions(self) -> int:
        return self.R.shape[1]

    @property
    def institutions(self) -> int:
        return self.D.shape[1]


@dataclass
class RemittanceModel:
    """Linear sparse map from remittance features to institution deposits.

    ``M`` has one row per institution and one column per name in ``terms``:
    current-quarter inflows, then (lagged kind only) previous-quarter inflows,
    then a constant-1 bias absorbing the uncertainty offset.
    """

    kind: str                      # "nonlagged" | "lagged"
    M: np.ndarray                  # (institutions, features)
    rank: int
    nnz: int
    residual_fro: float
    terms: list[str]               # feature names, one per column of M


@dataclass
class ExposureReport:
    """Per-institution exposures with the fitted series that produced them.

    ``fitted`` covers quarters eval_start..end (0-based); the first quarter
    has no lagged prediction, so lagged reports start at 1.
    """

    exposures: np.ndarray
    fitted: np.ndarray
    eval_start: int


def _train_rows(quarters: int, train_fraction: float) -> int:
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1], got {train_fraction}")
    return min(quarters, math.ceil(train_fraction * quarters))


def _fit(
    panel: RemittancePanel,
    solver: SolverConfig,
    lags: int,
    train_fraction: float,
    eval_range: str,
) -> tuple[RemittanceModel, ExposureReport]:
    """Fit deposits on a bias and the inflows of this and ``lags`` (0 or 1) past quarters."""
    q = panel.quarters
    if q < lags + 2:
        raise ValueError(f"need at least {lags + 2} quarters, got {q}")
    n_train = _train_rows(q, train_fraction)
    if eval_range not in ("all", "holdout"):
        raise ValueError(f"eval_range must be 'all' or 'holdout', got {eval_range!r}")
    features = np.hstack([panel.R[lags - k : q - k] for k in range(lags + 1)]
                         + [np.ones((q - lags, 1))])
    targets = panel.D[lags:]
    train = slice(0, n_train - lags)
    if train.stop < 1:
        raise ValueError("training range is empty at this train_fraction")
    cut = train.stop if eval_range == "holdout" else 0  # first evaluated row
    if cut >= targets.shape[0]:
        raise ValueError("no held-out quarters at this train_fraction")

    solution = sparse_lstsq(features[train], targets[train], solver)
    M = solution.X.T
    fitted_all = features @ solution.X
    try:
        exposures = exposure(targets[cut:], fitted_all[cut:])
    except DegenerateChannelError as exc:
        raise DegenerateChannelError(exc.channel, first=lags + cut + 1) from None
    residual = float(_column_norms((fitted_all[train] - targets[train]).ravel()))
    model = RemittanceModel(
        kind=("nonlagged", "lagged")[lags],
        M=M,
        rank=solution.rank,
        nnz=int(np.count_nonzero(M)),
        residual_fro=residual,
        terms=[f"r{j + 1}" + (f"[t-{k}]" if k else "")
               for k in range(lags + 1) for j in range(panel.regions)] + ["bias"],
    )
    report = ExposureReport(exposures=exposures, fitted=fitted_all[cut:],
                            eval_start=lags + cut)
    return model, report


def fit_nonlagged(
    panel: RemittancePanel,
    solver: SolverConfig,
    train_fraction: float = 0.95,
    eval_range: str = "all",
) -> tuple[RemittanceModel, ExposureReport]:
    """Fit deposits on current-quarter inflows plus a bias.

    The two-factor coupling of the underlying model is identified as a
    single product matrix; predictions and exposures only ever see the
    product.
    """
    return _fit(panel, solver, 0, train_fraction, eval_range)


def fit_lagged(
    panel: RemittancePanel,
    solver: SolverConfig,
    train_fraction: float = 0.95,
    eval_range: str = "all",
) -> tuple[RemittanceModel, ExposureReport]:
    """Fit deposits on stacked current and one-quarter-lagged inflows."""
    return _fit(panel, solver, 1, train_fraction, eval_range)


def exposure(observed: np.ndarray, fitted: np.ndarray) -> np.ndarray:
    """Normalized RMS deviation per institution.

    exposures[j] = sqrt(sum_t (fitted - observed)^2)
                   / (sqrt(T_eval) * max_t |observed[:, j]|)

    Raises
    ------
    DegenerateChannelError
        If an observed column is identically zero.
    """
    observed = np.asarray(observed, dtype=float)
    fitted = np.asarray(fitted, dtype=float)
    if observed.shape != fitted.shape:
        raise DimensionMismatchError(
            f"observed {observed.shape} vs fitted {fitted.shape}"
        )
    peaks = np.max(np.abs(observed), axis=0)
    for j, peak in enumerate(peaks):
        if peak == 0.0:
            raise DegenerateChannelError(channel=j)
    # Scaling each column by the power of two of its peak changes no bit of
    # the ratio but keeps the squares of large values below overflow.
    scale = -np.frexp(peaks)[1]
    observed, fitted, peaks = (np.ldexp(a, scale) for a in (observed, fitted, peaks))
    steps = observed.shape[0]
    rms = np.sqrt(np.sum((fitted - observed) ** 2, axis=0))
    return rms / (np.sqrt(steps) * peaks)


def rank_exposures(report: ExposureReport, k: int) -> list[tuple[int, float]]:
    """Top-k institutions by exposure, descending; ties break on lower index.

    Institutions are reported 1-based.
    """
    count = report.exposures.size
    if not 1 <= k <= count:
        raise ValueError(f"k must lie in [1, {count}], got {k}")
    order = sorted(range(count), key=lambda j: (-report.exposures[j], j))
    return [(j + 1, float(report.exposures[j])) for j in order[:k]]


# Share of (institution, region) pairs a planted coupling matrix links.
_PLANTED_DENSITY = 0.25


def synth_panel(
    regions: int = 18,
    institutions: int = 15,
    quarters: int = 24,
    seed: int = 0,
    noise_level: float = 0.0,
    include_lag: bool = True,
) -> tuple[RemittancePanel, dict[str, np.ndarray]]:
    """Synthetic panel with a planted sparse (optionally lagged) coupling.

    Remittance trajectories are positive, seasonal (annual cycle over four
    quarters plus a slower region-specific harmonic), drifting, and
    perturbed at ``noise_level`` relative magnitude. Deposits follow
    D(t) = M0 r(t) + M1 r(t-1) + bias (+ noise); the presample r(0) is drawn
    but not recorded in the panel, so the first quarter of a lagged panel is
    genuinely unexplainable from observed data.

    Returns the panel and the planted ground truth {"M0", "M1", "bias"}.
    """
    if min(regions, institutions, quarters) < 1:
        raise ValueError("counts must be >= 1")
    rng = np.random.default_rng(seed)

    # Region trajectories mix an annual cycle with two slower shared
    # harmonics and a drift. Shared, well-separated frequencies keep the
    # noise-free panel in a low-dimensional, well-conditioned function
    # space, so a consistent fit of the training quarters extends exactly
    # to the held-out ones.
    t = np.arange(quarters + 1)            # index 0 is the presample
    periods = [4.0, (quarters + 1) / 3.0, float(quarters + 1)]
    base = rng.uniform(1.0, 5.0, size=regions)
    drift = rng.uniform(-0.2, 0.5, size=regions)
    r_full = base[None, :] * (
        2.0 + drift[None, :] * t[:, None] / max(quarters, 1)
    )
    for k, period in enumerate(periods):
        amp = rng.uniform(0.15, 0.45, size=regions) / (k + 1)
        phase = rng.uniform(0.0, 2 * np.pi, size=regions)
        r_full += base[None, :] * amp[None, :] * np.sin(
            2 * np.pi * t[:, None] / period + phase[None, :]
        )
    if noise_level > 0:
        r_full += noise_level * base[None, :] * rng.standard_normal(r_full.shape)

    def planted(scale: float) -> np.ndarray:
        mask = rng.random((institutions, regions)) < _PLANTED_DENSITY
        for row in mask:                    # every institution couples somewhere
            if not row.any():
                row[rng.integers(regions)] = True
        return mask * rng.uniform(0.2, 1.0, size=(institutions, regions)) * scale

    M0 = planted(1.0)
    M1 = planted(0.6) if include_lag else np.zeros((institutions, regions))
    bias = rng.uniform(0.5, 2.0, size=institutions)

    D = r_full[1:] @ M0.T + r_full[:-1] @ M1.T + bias[None, :]
    if noise_level > 0:
        scale = np.mean(np.abs(D), axis=0)
        D = D + noise_level * scale[None, :] * rng.standard_normal(D.shape)

    return RemittancePanel(R=r_full[1:], D=D), {"M0": M0, "M1": M1, "bias": bias}
