"""Time-delay embedding and polynomial (Kronecker power) feature maps.

A length-L window of an n-channel series is flattened block by block
(channel-major, oldest sample first within each block) and expanded into the
stack of its Kronecker powers of orders 1..p plus a trailing constant 1.
Stacking those feature vectors over a whole series yields the data matrices
of the paper. Each distinct monomial is evaluated once; model identification
uses those values, and the Kronecker features are a gather of them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

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
        if self.dt is not None and not math.isfinite(self.dt):
            raise ValueError(f"dt must be finite, got {self.dt}")
        if self.times is not None:
            times = np.asarray(self.times, dtype=float)
            if times.shape != (values.shape[0],):
                raise ValueError("times must have one entry per sample")
            if not np.all(np.isfinite(times)):
                raise ValueError("times must be finite")
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


def _check_budget(counts: Iterable[int], windows: int = 1) -> None:
    """Raise FeatureBudgetError if ``windows`` times the last of ``counts``, which rise
    to a window's entry count, exceeds the budget; the first count over decides."""
    budget = DEFAULT_FEATURE_BUDGET
    if any(count * windows > budget for count in counts):
        raise FeatureBudgetError(f"expansion needs more than the budget of {budget} entries")


def _slot_counts(m: int, p: int) -> Iterable[int]:
    """Partial sums of 1 + m + ... + m^p, rising to d_p(m), at least doubling if m > 1."""
    return [p + 1] if m == 1 else accumulate(m**k for k in range(p + 1))


def _monomial_counts(m: int, p: int) -> Iterable[int]:
    """C(m + p - k + i, i), i = 0..k, k = min(m, p), at least doubling up to C(m + p, p)."""
    k = min(m, p)
    return accumulate(range(1, k + 1), lambda c, i: c * (m + p - k + i) // i, initial=1)


def eth_map(x: np.ndarray, p: int) -> np.ndarray:
    """Polynomial feature vector [x^(1); x^(2); ...; x^(p); 1] of length d_p(m).

    Each slot is a copy of the distinct monomial it equals, so permuted slots
    are bit-equal. The final entry is exactly 1, carrying the constant term.
    """
    x = np.asarray(x, dtype=float).ravel()
    return monomial_features(x, p)[_monomial_of_slot(x.size, p)]


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
    its ascending multi-index. These are the package's only polynomial
    products; the Kronecker features gather them (:func:`_monomial_of_slot`),
    and ``compress`` of finite Kronecker features gives these rows back bit for
    bit (a group that overflows may compress to NaN, inf - inf).
    Raises ValueError if p < 1, and FeatureBudgetError if C(m+p, p) times the
    number of windows, at least one for the index tables, exceeds the budget.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    X = np.asarray(X, dtype=float)
    m = X.shape[0]
    _check_budget(_monomial_counts(m, p), max(math.prod(X.shape[1:]), 1))
    parts = [X]
    for q in range(2, p + 1):
        prefix, last = _prefix_tables(m, q)
        parts.append(parts[-1][prefix] * X[last])
    parts.append(np.ones((1,) + X.shape[1:]))
    return np.concatenate(parts)


@lru_cache(maxsize=64)
def _monomial_of_slot(m: int, p: int) -> np.ndarray:
    """Row of ``monomial_features`` on m entries that each Kronecker slot of
    orders 1..p equals: the rank of the slot's sorted multi-index among its
    order's, whose lexicographic order is :func:`_prefix_tables`' order.
    Raises FeatureBudgetError if d_p(m) exceeds ``DEFAULT_FEATURE_BUDGET``.
    """
    _check_budget(_slot_counts(m, p))
    parts, offset = [], 0
    for q in range(1, p + 1):
        idx = np.indices((m,) * q).reshape(q, -1).T
        idx.sort(axis=1)
        parts.append(offset + np.unique(idx, axis=0, return_inverse=True)[1])
        offset += math.comb(m + q - 1, q)
    parts.append([offset])
    table = np.concatenate(parts)
    table.setflags(write=False)
    return table


def check_model_size(m: int, p: int) -> None:
    """Raise FeatureBudgetError unless an order-p model on windows of m entries
    fits ``DEFAULT_FEATURE_BUDGET``.

    The model's coupling matrix is m x C(m+p, p), and evaluating its features
    builds two index tables per order, fewer than 2 C(m+p, p) entries in
    all; (m + p) C(m+p, p) bounds both. It is checked on the way up through
    :func:`_monomial_counts`, so a huge m or p costs a few small products.
    """
    budget = DEFAULT_FEATURE_BUDGET
    if any((m + p) * count > budget for count in _monomial_counts(m, p)):
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
    return _window_matrix(series.values[t - L : t], L).ravel()


def _window_matrix(values: np.ndarray, L: int) -> np.ndarray:
    """All delay windows as columns: (nL, T - L + 1), channel-major rows.

    Column k holds sample rows k .. k + L - 1, channel by channel, oldest
    first. The strided view is copied once into a fresh C-contiguous array.
    """
    windows = np.lib.stride_tricks.sliding_window_view(values, L, axis=0)  # (cols, n, L)
    return windows.transpose(1, 2, 0).copy().reshape(values.shape[1] * L, -1)


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
    _check_budget(_slot_counts(m, cfg.p), cols)
    H0 = monomial_features(Xw, cfg.p)[_monomial_of_slot(m, cfg.p)]
    return DataMatrices(H0=H0, H1=H1)


def suggest_lag(series: TimeSeries) -> tuple[list[int], int, list[int]]:
    """First lag where each channel's autocorrelation drops below 1/e.

    A heuristic aid for choosing the window length, not part of the training
    path; the autocorrelation is the biased sample one. A constant channel,
    one whose samples are all equal, has none and reports lag 1; no crossing
    reports T - 1. Returns (per-channel lags, their maximum, the indices of
    the constant channels).

    Each channel is first scaled by the power of two of its peak magnitude.
    The scaling is exact and commutes with the mean and the subtraction, so
    each ratio keeps its bits, while the sums of squares stay below overflow
    and the peak-to-peak range stays below 2. A constant channel is told by
    that range, not by the centred sum of squares: the mean of equal samples
    can round, leaving a nonzero residue in every centred sample.
    """
    if series.T < 3:
        raise ValueError(f"need at least 3 samples, got {series.T}")
    threshold = 1.0 / np.e
    T = series.T
    lags, constant = [], []
    for j in range(series.n):
        x = series.values[:, j]
        x = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
        k = 1
        if np.ptp(x) == 0.0:
            constant.append(j)
        else:
            c = x - x.mean()
            denom = float(np.dot(c, c))
            while k < T - 1 and not float(np.dot(c[: T - k], c[k:])) / denom < threshold:
                k += 1
        lags.append(k)
    return lags, max(lags), constant
