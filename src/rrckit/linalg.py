"""Truncated-SVD rank and the greedy sparse least-squares solver.

Everything else in the toolkit reduces to the solver in this module: model
identification solves (possibly rank-deficient) linear systems column by
column, keeping only the coefficients whose magnitude survives a threshold
and re-solving on the restricted support until the iterate stabilizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, RankZeroError

__all__ = [
    "SolverConfig",
    "SparseSolution",
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
    slack : float
        The certificate's slack per unit coefficient norm,
        ``sqrt(r*(min(m,n)-r)) * delta``; column j's bound is
        ``||x_j|| * slack + ||(I - Q) y_j||`` plus its rounding term.
    """

    X: np.ndarray
    nnz_per_column: list[int] = field(default_factory=list)
    iterations_per_column: list[int] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    rank: int = 0
    column_bounds: list[float] = field(default_factory=list)
    slack: float = 0.0


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


# Row-block height of the tall-skinny QR in _triangular_factor.
_QR_BLOCK_ROWS = 2048


def _triangular_factor(M: np.ndarray) -> np.ndarray:
    """The triangular factor T of a QR factorization M = Q T.

    M is split into ceil(m / _QR_BLOCK_ROWS) row blocks of near-equal height
    (``np.array_split``). Each block is factored alone, and the stack of their
    triangles once more; the blocks' Q factors are orthonormal, so that last
    factor is one of M. A few short factorizations run faster than one of
    the whole tall M, whose panel updates are matrix-vector products. With
    m <= _QR_BLOCK_ROWS this is one QR of M.
    """
    blocks = np.array_split(M, max(1, -(-M.shape[0] // _QR_BLOCK_ROWS)))
    if len(blocks) == 1:
        return np.linalg.qr(M, mode="r")
    return np.linalg.qr(np.vstack([np.linalg.qr(b, mode="r") for b in blocks]), mode="r")


def _column_norms(M: np.ndarray) -> np.ndarray:
    """Euclidean norms of M's columns (of a vector, its norm), each column
    first scaled by the power of two of its peak: exact, and its squares stay
    finite near the float maximum."""
    e = np.frexp(np.max(np.abs(M), axis=0, initial=0.0))[1]
    return np.ldexp(np.linalg.norm(np.ldexp(M, -e), axis=0), e)


class _Projection(NamedTuple):
    """A system A X = Y projected onto A's top-r left singular subspace."""

    S: np.ndarray         # (k,) singular values of A, descending; k = min(m, n)
    V: np.ndarray         # (k, n) right singular vectors of A, as rows
    A_hat: np.ndarray     # (r, n) U_r^T A
    Y_hat: np.ndarray     # (r, p) U_r^T Y
    deflated: np.ndarray  # (p,) ||(I - U_r U_r^T) y_j||


def _truncated_projection(A: np.ndarray, Y: np.ndarray, delta: float) -> _Projection:
    """Project A X = Y onto the left singular vectors of A above delta.

    A QR factorization of the augmented [A | Y] gives A = Q R and
    Q^T Y = [C; R22] with Q's columns orthonormal. The SVD of the small
    R = Ur diag(S) V then holds A's singular values and right vectors, and
    U = Q Ur, so every projection follows from R, C and R22 without Q or U
    being formed. This is the tall-matrix SVD's own first step, done once.
    """
    m, n = A.shape
    k = min(m, n)
    T = _triangular_factor(np.hstack([A, Y]))
    R, C, R22 = T[:k, :n], T[:k, n:], T[k:, n:]
    Ur, S, V = np.linalg.svd(R, full_matrices=False)
    r = int(np.sum(S > delta))
    if r == 0:
        raise RankZeroError(
            f"rank_delta(A, {delta:g}) = 0: no singular value exceeds the threshold"
        )
    Ur = Ur[:, :r]
    Y_hat = Ur.T @ C
    # (I - U_r U_r^T) Y = Q [C - Ur Y_hat; R22], and Q keeps norms.
    deflated = np.linalg.norm(np.vstack([C - Ur @ Y_hat, R22]), axis=0)
    return _Projection(S=S, V=V, A_hat=Ur.T @ R, Y_hat=Y_hat, deflated=deflated)


def sparse_lstsq(A: np.ndarray, Y: np.ndarray, cfg: SolverConfig) -> SparseSolution:
    """Greedy truncated-SVD sparse least squares, column by column.

    The system is projected onto the top-r left singular subspace of A
    (r the numerical rank at ``cfg.delta``); each column starts from the
    delta-truncated pseudoinverse solution and is refined by repeatedly
    keeping the largest-magnitude coefficients (strictly above
    ``cfg.epsilon``, at least one, at most r) and re-solving the restricted
    subproblem by minimum-norm least squares. A column stops when its
    max-norm update falls to ``cfg.delta`` or after ``cfg.max_iter`` passes;
    a support set already solved reuses that solution, whatever the order of
    its columns.

    Every returned column x then has at most r nonzero entries and, on
    well-posed inputs, its computed residual satisfies
    ``||A x - y|| <= ||x|| * sqrt(r*(min(m,n)-r)) * delta + ||(I - Q) y||
    + gamma * u * (||A||_F * ||x|| + ||y||)``
    with Q = U_r U_r^T the projector onto the top-r left singular subspace of
    A, u the unit roundoff and gamma = n + 1. The last term covers the
    rounding of ``A x - y`` itself, which at full rank (r = min(m, n), no
    slack) could otherwise lift the computed residual above the bound. That
    bound is returned per column, and its slack term
    ``sqrt(r*(min(m,n)-r)) * delta`` as ``slack``.

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

    S, V, A_hat, Y_hat, deflated = _truncated_projection(A, Y, cfg.delta)
    r = A_hat.shape[0]
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
        # The minimum-norm solution on a column set does not depend on the
        # order of its columns, so each set is solved once, in the order it
        # first came in; a set that comes back repeats that iterate exactly.
        solved: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        while k < cfg.max_iter and error > cfg.delta:
            support = order[:n0]
            key = np.sort(support).tobytes()
            if key not in solved:
                solved[key] = (support, _minimum_norm_lstsq(A_hat[:, support], Y_hat[:, j]))
            columns, coeffs = solved[key]
            x = np.zeros(n)
            x[columns] = coeffs
            error = float(np.max(np.abs(x - x_prev))) if n else 0.0
            x_prev = x
            order = np.argsort(-np.abs(x), kind="stable")
            n0 = support_size(np.abs(x))
            k += 1
        X[:, j] = x
        nnz.append(int(np.count_nonzero(x)))
        iters.append(k)
        residuals.append(float(np.linalg.norm(A @ x - Y[:, j])))

    slack = float(np.sqrt(r * (min(m, n) - r))) * cfg.delta
    # Each entry of a computed A x - y is a dot product of n terms and one
    # subtraction, so it errs by at most gamma = n + 1 unit roundoffs per term.
    gamma = n + 1
    rounding = gamma * np.finfo(float).eps / 2
    a_fro = _column_norms(S)  # ||A||_F, from its singular values
    bounds = (np.linalg.norm(X, axis=0) * (slack + rounding * a_fro)
              + deflated + rounding * _column_norms(Y))
    return SparseSolution(
        X=X,
        nnz_per_column=nnz,
        iterations_per_column=iters,
        residual_norms=residuals,
        rank=r,
        column_bounds=bounds.tolist(),
        slack=slack,
    )
