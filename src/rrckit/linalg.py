"""Truncated-SVD rank and the greedy sparse least-squares solver.

Everything else in the toolkit reduces to the solver in this module: model
identification solves (possibly rank-deficient) linear systems column by
column, keeping only the coefficients whose magnitude survives a threshold
and re-solving on the restricted support until the iterate stabilizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, RankZeroError

__all__ = [
    "SolverConfig",
    "SparseSolution",
    "heaviside_delta",
    "rank_delta",
    "sparse_lstsq",
]


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the sparse least-squares solver.

    Attributes
    ----------
    delta : float
        Singular-value threshold and convergence tolerance. Must be > 0.
    max_iter : int
        Iteration cap per column. Must be >= 1.
    epsilon : float
        Support-inclusion threshold: coefficients with magnitude <= epsilon
        are dropped between refinement passes. epsilon = 0 keeps every
        nonzero coefficient ("keep-all" mode). Must be finite and >= 0.
    """

    delta: float
    max_iter: int = 50
    epsilon: float = 1e-8

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")


@dataclass
class SparseSolution:
    """Result of :func:`sparse_lstsq`.

    Attributes
    ----------
    X : (n, p) ndarray
        Coefficient matrix, one solution per right-hand-side column.
    nnz_per_column : list of int
        Number of nonzero entries in each returned column.
    iterations_per_column : list of int
        Refinement passes executed per column; equal to the cap when the
        column did not converge (not an error).
    residual_norms : list of float
        Euclidean residual ||A x_j - y_j|| per column, in the original
        (unprojected) system.
    rank : int
        Numerical rank of A at the configured threshold.
    column_bounds : list of float
        The residual certificate of each column (see :func:`sparse_lstsq`).
    """

    X: np.ndarray
    nnz_per_column: list[int] = field(default_factory=list)
    iterations_per_column: list[int] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    rank: int = 0
    column_bounds: list[float] = field(default_factory=list)


def heaviside_delta(x: float, delta: float) -> int:
    """Thresholded step function: 1 if x > delta, else 0. Requires delta > 0."""
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return 1 if x > delta else 0


def rank_delta(A: np.ndarray, delta: float) -> int:
    """Numerical rank: the number of singular values strictly above delta.

    Singular values come from an economy-sized SVD; an SVD convergence
    failure propagates as ``numpy.linalg.LinAlgError``.
    """
    if not delta > 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    S = np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)
    return int(np.sum(S > delta))


def _minimum_norm_lstsq(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    # SVD-backed minimum-norm least squares; deterministic on rank-deficient
    # subproblems, which magnitude-restricted supports routinely produce.
    return np.linalg.lstsq(A, y, rcond=None)[0]


def sparse_lstsq(A: np.ndarray, Y: np.ndarray, cfg: SolverConfig) -> SparseSolution:
    """Greedy truncated-SVD sparse least squares, column by column.

    The system is projected onto the top-r left singular subspace of A
    (r the numerical rank at ``cfg.delta``); each column starts from the
    delta-truncated pseudoinverse solution and is refined by repeatedly
    keeping the largest-magnitude coefficients (strictly above
    ``cfg.epsilon``, at least one, at most r) and re-solving the restricted
    subproblem by minimum-norm least squares. A column stops when its
    max-norm update falls to ``cfg.delta`` or after ``cfg.max_iter`` passes;
    a support the column has already solved reuses that solution.

    Every returned column x then has at most r nonzero entries and, on
    well-posed inputs, satisfies
    ``||A x - y|| <= ||x|| * sqrt(r*(min(m,n)-r)) * delta + ||(I - Q) y||``
    with Q = U_r U_r^T the projector onto the top-r left singular subspace of
    A; that bound is returned per column.

    Parameters
    ----------
    A : (m, n) ndarray
    Y : (m,) or (m, p) ndarray
        Right-hand sides; a vector is treated as a single column.
    cfg : SolverConfig

    Raises
    ------
    RankZeroError
        If ``rank_delta(A, cfg.delta) == 0``.
    DimensionMismatchError
        If Y does not have m rows.
    """
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    m, n = A.shape
    if Y.shape[0] != m:
        raise DimensionMismatchError(
            f"Y has {Y.shape[0]} rows, expected {m} to match A"
        )
    p = Y.shape[1]

    U, S, V = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(S > cfg.delta))
    if r == 0:
        raise RankZeroError(
            f"rank_delta(A, {cfg.delta:g}) = 0: no singular value exceeds the threshold"
        )

    Ur = U[:, :r]
    A_hat = Ur.T @ A                      # (r, n) projected system
    Y_hat = Ur.T @ Y                      # (r, p)
    X0 = V[:r].T @ (Y_hat / S[:r, None])  # truncated-pinv start

    def support_size(magnitudes: np.ndarray) -> int:
        # At least one column is always kept; at most r can carry signal.
        return min(max(int(np.sum(magnitudes > cfg.epsilon)), 1), r)

    X = np.zeros((n, p))
    nnz, iters, residuals = [], [], []
    for j in range(p):
        x_prev = X0[:, j].copy()
        # Stable descending-magnitude order; ties resolve to the lower index.
        order = np.argsort(-np.abs(x_prev), kind="stable")
        n0 = support_size(np.abs(x_prev))
        x = x_prev
        k = 0
        error = 1.0 + cfg.delta
        # A support that cycles comes back in the same order, and its solve
        # gives the same bits, so each ordered support is solved once.
        solved: dict[bytes, np.ndarray] = {}
        while k < cfg.max_iter and error > cfg.delta:
            support = order[:n0]
            key = support.tobytes()
            coeffs = solved.get(key)
            if coeffs is None:
                coeffs = _minimum_norm_lstsq(A_hat[:, support], Y_hat[:, j])
                solved[key] = coeffs
            x = np.zeros(n)
            x[support] = coeffs
            error = float(np.max(np.abs(x - x_prev))) if n else 0.0
            x_prev = x
            order = np.argsort(-np.abs(x), kind="stable")
            n0 = support_size(np.abs(x))
            k += 1
        X[:, j] = x
        nnz.append(int(np.count_nonzero(x)))
        iters.append(k)
        residuals.append(float(np.linalg.norm(A @ x - Y[:, j])))

    s_nm = float(np.sqrt(r * (min(m, n) - r)))
    deflated = Y - Ur @ Y_hat             # (I - Q) Y without forming Q
    bounds = [
        float(np.linalg.norm(X[:, j]) * s_nm * cfg.delta + np.linalg.norm(deflated[:, j]))
        for j in range(p)
    ]
    return SparseSolution(
        X=X,
        nnz_per_column=nnz,
        iterations_per_column=iters,
        residual_norms=residuals,
        rank=r,
        column_bounds=bounds,
    )
