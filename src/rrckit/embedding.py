"""Time-delay embedding and polynomial (Kronecker power) feature maps.

A length-L window of an n-channel series is flattened block by block
(channel-major, oldest sample first within each block) and expanded into the
stack of its Kronecker powers of orders 1..p plus a trailing constant 1.
Stacking those feature vectors over a whole series yields the data matrices
of the paper; model identification evaluates only the distinct monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError, FeatureBudgetError, OutOfRangeError

__all__ = [
    "DEFAULT_FEATURE_BUDGET",
    "TimeSeries",
    "EmbeddingConfig",
    "DataMatrices",
    "feature_dim",
    "delay_embed",
    "eth_map",
    "monomial_features",
    "check_model_size",
    "paired_windows",
    "build_data_matrices",
    "autocorrelation",
    "suggest_lag",
]

# Total feature entries allowed in one expansion; d_p(nL) grows like (nL)^p.
# Read at each check, so a test can lower it for the whole package.
DEFAULT_FEATURE_BUDGET = 10_000_000


@dataclass
class TimeSeries:
    """A uniformly sampled n-variate series of T samples (row t = sample x_t).

    ``values`` may be passed as a 1-D array for scalar series; it is stored
    as a (T, 1) column. ``times``, when present, carries the sample
    timestamps; ``dt`` the uniform spacing; ``labels`` the channel names.
    """

    values: np.ndarray
    dt: float | None = None
    labels: list[str] | None = None
    times: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise ValueError(f"values must be 1-D or 2-D, got ndim={values.ndim}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"values must be non-empty, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        self.values = values
        if self.labels is not None and len(self.labels) != values.shape[1]:
            raise ValueError(
                f"{len(self.labels)} labels for {values.shape[1]} channels"
            )
        if self.times is not None:
            times = np.asarray(self.times, dtype=float)
            if times.shape != (values.shape[0],):
                raise ValueError("times must have one entry per sample")
            self.times = times

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def T(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class EmbeddingConfig:
    """Window length L and tensor order p of the feature map."""

    L: int
    p: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")


@dataclass
class DataMatrices:
    """Feature matrix H0 (d_p(nL) x cols), target matrix H1 (nL x cols).

    Column k covers window end time L + k (1-based).
    """

    H0: np.ndarray
    H1: np.ndarray


def feature_dim(m: int, p: int) -> int:
    """Dimension of the order-p feature map on R^m: sum_{k=1..p} m^k + 1."""
    # The geometric sum in closed form: exact, and one power however large p is.
    return p + 1 if m == 1 else (m ** (p + 1) - m) // (m - 1) + 1


def _check_budget(entries: int) -> None:
    if entries > DEFAULT_FEATURE_BUDGET:
        raise FeatureBudgetError(
            f"expansion needs {entries} entries, exceeding the budget of "
            f"{DEFAULT_FEATURE_BUDGET}"
        )


@lru_cache(maxsize=64)
def _sorted_monomial_indices(m: int, q: int) -> np.ndarray:
    """(m**q, q) row-major multi-indices with each row sorted ascending.

    Row k corresponds to the k-th entry of the q-fold Kronecker power.
    Sorting each multi-index makes permuted entries evaluate through the
    identical float product, so they compare bit-equal.
    """
    grids = np.meshgrid(*([np.arange(m)] * q), indexing="ij")
    idx = np.stack([g.ravel() for g in grids], axis=1)
    idx.sort(axis=1)
    idx.setflags(write=False)
    return idx


def eth_map(x: np.ndarray, p: int) -> np.ndarray:
    """Polynomial feature vector [x^(1); x^(2); ...; x^(p); 1] of length d_p(m).

    The final entry is exactly 1, carrying the constant term of any model
    trained on these features.
    """
    x = np.asarray(x, dtype=float).ravel()
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    _check_budget(feature_dim(x.size, p))
    return _stacked_products(x, p)


def _stacked_products(X: np.ndarray, p: int) -> np.ndarray:
    """Products of X over each sorted multi-index of orders 1..p, then a constant 1."""
    parts = [np.prod(X[_sorted_monomial_indices(X.shape[0], q)], axis=1)
             for q in range(1, p + 1)]
    parts.append(np.ones((1,) + X.shape[1:]))
    return np.concatenate(parts)


@lru_cache(maxsize=64)
def _prefix_tables(m: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(prefix, last) of the order-q distinct monomials on m entries, q >= 2.

    The monomials are the ascending multi-indices in
    combinations_with_replacement order. Row k is order q-1's monomial
    ``prefix[k]`` (its multi-index without the last entry) times window entry
    ``last[k]``: each order q-1 monomial, in order, is extended by every
    entry from its own last one to m - 1.
    """
    prev_last = np.arange(m) if q == 2 else _prefix_tables(m, q - 1)[1]
    counts = m - prev_last
    prefix = np.repeat(np.arange(prev_last.size), counts)
    starts = np.cumsum(counts) - counts
    last = np.arange(prefix.size) - np.repeat(starts - prev_last, counts)
    prefix.setflags(write=False)
    last.setflags(write=False)
    return prefix, last


def monomial_features(X: np.ndarray, p: int) -> np.ndarray:
    """Each distinct monomial of orders 1..p of a window once, then a constant 1.

    X is one window (m,) or one window per column (m, cols). Order 1 is X;
    order q is built from order q-1 by one gather and one multiply (see
    :func:`_prefix_tables`), so each monomial is the left-to-right product of
    its ascending multi-index. For finite features the C(m+p, p) rows equal
    ``compress(compression_matrix_exact(n, L, p), H0)`` bit for bit, H0 the
    Kronecker features of the same windows; a group that overflows is inf
    here, where ``compress`` may give NaN (inf - inf). Raises
    FeatureBudgetError if C(m+p, p) times the number of windows exceeds
    ``DEFAULT_FEATURE_BUDGET``.
    """
    X = np.asarray(X, dtype=float)
    m = X.shape[0]
    _check_budget(math.comb(m + p, p) * math.prod(X.shape[1:]))
    parts = [X]
    for q in range(2, p + 1):
        prefix, last = _prefix_tables(m, q)
        parts.append(parts[-1][prefix] * X[last])
    parts.append(np.ones((1,) + X.shape[1:]))
    return np.concatenate(parts)


def check_model_size(m: int, p: int) -> None:
    """Raise FeatureBudgetError unless an order-p model on windows of m entries
    fits ``DEFAULT_FEATURE_BUDGET``.

    The model's coupling matrix is m x C(m+p, p), and evaluating its features
    builds two index tables per order, fewer than 2 C(m+p, p) entries in
    all; (m + p) C(m+p, p) bounds both. C(m+p, p) >= m + p, so (m + p)**2 is
    tested first and math.comb only ever sees small arguments.
    """
    budget = DEFAULT_FEATURE_BUDGET
    if (m + p) ** 2 > budget or (m + p) * math.comb(m + p, p) > budget:
        raise FeatureBudgetError(
            f"an order-{p} model on {m} window entries exceeds the budget of "
            f"{budget} entries"
        )


def delay_embed(series: TimeSeries, L: int, t: int) -> np.ndarray:
    """Length-nL window vector at end time t (1-based), channel-major.

    Block j holds channel j's samples at times t-L+1 .. t, oldest first.

    Raises
    ------
    OutOfRangeError
        If t < L or t > T.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if t < L or t > series.T:
        raise OutOfRangeError(
            f"t = {t} outside the embeddable range [{L}, {series.T}]"
        )
    window = series.values[t - L : t, :]  # (L, n), rows oldest..newest
    return window.T.reshape(-1).copy()


def _window_matrix(values: np.ndarray, L: int) -> np.ndarray:
    """All delay windows as columns: (nL, T - L + 1), channel-major rows."""
    T, n = values.shape
    cols = T - L + 1
    out = np.empty((n * L, cols))
    for j in range(n):
        for lag in range(L):
            out[j * L + lag, :] = values[lag : lag + cols, j]
    return out


def paired_windows(x: TimeSeries, y: TimeSeries, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Window matrices (nL, T - L + 1) of a series pair; column k ends at time L + k.

    Raises DimensionMismatchError if the series differ in shape and
    OutOfRangeError if they are shorter than L.
    """
    if x.T != y.T or x.n != y.n:
        raise DimensionMismatchError(
            f"series shapes differ: x is {x.T}x{x.n}, y is {y.T}x{y.n}"
        )
    if x.T < L:
        raise OutOfRangeError(f"series of length {x.T} too short for L = {L}")
    return _window_matrix(x.values, L), _window_matrix(y.values, L)


def build_data_matrices(x: TimeSeries, y: TimeSeries, cfg: EmbeddingConfig) -> DataMatrices:
    """Assemble feature/target matrices over every window of a series pair.

    H0 column k is the order-p feature vector of x's window ending at time
    L + k; H1 column k is y's raw window at the same time. Both series must
    share their length and channel count.
    """
    Xw, H1 = paired_windows(x, y, cfg.L)  # (m, cols) each
    m, cols = Xw.shape
    _check_budget(feature_dim(m, cfg.p) * cols)
    H0 = _stacked_products(Xw, cfg.p)
    return DataMatrices(H0=H0, H1=H1)


def _lag_correlation(x: np.ndarray) -> Callable[[int], float] | None:
    """The function k -> sample autocorrelation of channel x at lag k (biased
    normalization), or None when every sample of x is equal.

    x is first scaled by the power of two of its peak magnitude. The scaling
    is exact and commutes with the mean and the subtraction, so each ratio
    keeps its bits, while the sums of squares stay below overflow and the
    peak-to-peak range stays below 2. A constant channel is told by that
    range, not by the centred sum of squares: the mean of equal samples can
    round, leaving a nonzero residue in every centred sample.
    """
    x = np.asarray(x, dtype=float).ravel()
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x), initial=0.0))[1])
    if np.ptp(x) == 0.0:
        return None
    centered = x - x.mean()
    denom = float(np.dot(centered, centered))
    return lambda k: float(np.dot(centered[: x.size - k], centered[k:])) / denom


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 0..max_lag (biased normalization).

    Returns NaN at every lag for a constant channel, one whose samples are
    all equal.
    """
    rho = _lag_correlation(x)
    if rho is None:
        return np.full(max_lag + 1, np.nan)
    return np.array([rho(k) for k in range(max_lag + 1)])


def suggest_lag(series: TimeSeries) -> tuple[list[int], int]:
    """First lag where each channel's autocorrelation drops below 1/e.

    A heuristic aid for choosing the window length, not part of the training
    path. Constant channels, whose autocorrelation is NaN, report lag 1; no
    crossing reports T - 1. Returns (per-channel lags, their maximum).
    """
    if series.T < 3:
        raise ValueError(f"need at least 3 samples, got {series.T}")
    threshold = 1.0 / np.e
    T = series.T
    lags = []
    for j in range(series.n):
        rho = _lag_correlation(series.values[:, j])
        k = 1
        if rho is not None:
            while k < T - 1 and not rho(k) < threshold:
                k += 1
        lags.append(k)
    return lags, max(lags)
