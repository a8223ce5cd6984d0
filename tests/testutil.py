"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

import rrckit as rk
from rrckit.compression import compress
from rrckit.embedding import build_data_matrices
from rrckit.errors import RankZeroError
from rrckit.finance import _rk_step
from rrckit.model import RRCModel


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def matrix_with_spectrum(
    rng: np.random.Generator, m: int, n: int, spectrum: np.ndarray
) -> np.ndarray:
    """Dense matrix with prescribed singular values (descending)."""
    s = np.sort(np.asarray(spectrum, dtype=float))[::-1]
    k = min(m, n)
    assert s.size == k
    U = random_orthogonal(rng, m)[:, :k]
    V = random_orthogonal(rng, n)[:, :k]
    return (U * s) @ V.T


def straddling_spectrum(
    rng: np.random.Generator, k: int, delta: float, r: int
) -> np.ndarray:
    """k singular values with exactly r above 2*delta and the rest below delta/2."""
    assert 1 <= r < k
    above = delta * np.exp(rng.uniform(np.log(2.0), np.log(100.0), size=r))
    below = delta * np.exp(rng.uniform(np.log(0.01), np.log(0.5), size=k - r))
    return np.concatenate([above, below])


def stable_linear_system(
    rng: np.random.Generator, n: int, radius: float = 0.9
) -> np.ndarray:
    A = rng.standard_normal((n, n))
    return A * (radius / max(abs(np.linalg.eigvals(A))))


def linear_orbit(A: np.ndarray, x0: np.ndarray, steps: int) -> np.ndarray:
    out = [np.asarray(x0, dtype=float)]
    for _ in range(steps):
        out.append(A @ out[-1])
    return np.array(out)


def bounded_orbit(rng: np.random.Generator, n: int, steps: int) -> np.ndarray:
    """Generic bounded nonlinear orbit for planted-model fixtures."""
    A = stable_linear_system(rng, n, radius=1.2)
    b = 0.3 * rng.standard_normal(n)
    x = rng.standard_normal(n)
    out = [x]
    for _ in range(steps - 1):
        x = np.tanh(A @ x + b)
        out.append(x)
    return np.array(out)


class SVDFactors(NamedTuple):
    """Economy-sized SVD, U @ diag(S) @ V = A."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray


def truncated_projector(A: np.ndarray, delta: float) -> tuple[np.ndarray, int, SVDFactors]:
    """Oracle: dense rank-r projector Q = U_r U_r^T onto A's top left singular subspace.

    r is the numerical rank at threshold delta, so
    ||A - Q A||_F <= sqrt(min(m, n) - r) * delta. Returns (Q, r, factors).
    Raises RankZeroError if no singular value exceeds delta.
    """
    U, S, V = np.linalg.svd(np.asarray(A, dtype=float), full_matrices=False)
    r = int(np.sum(S > delta))
    if r == 0:
        raise RankZeroError(f"rank_delta(A, {delta:g}) = 0")
    Ur = U[:, :r]
    return Ur @ Ur.T, r, SVDFactors(U, S, V)


def dense_solvent(model: RRCModel, x: rk.TimeSeries, y: rk.TimeSeries):
    """Minimum-norm dense solvent of the same reduced system a model was trained on.

    Returns (W_bar, G, H1).
    """
    data = build_data_matrices(x, y, rk.EmbeddingConfig(L=model.L, p=model.p))
    G = compress(model.R, data.H0)
    W_bar = np.linalg.lstsq(G.T, data.H1.T, rcond=None)[0].T
    return W_bar, G, data.H1


def as_dense_model(model: RRCModel, W_bar: np.ndarray) -> RRCModel:
    return RRCModel(
        n=model.n,
        L=model.L,
        p=model.p,
        selector_offset=model.selector_offset,
        W_hat=np.ascontiguousarray(W_bar),
        diagnostics=model.diagnostics,
    )


def residual_certificate(A: np.ndarray, y: np.ndarray, x: np.ndarray, delta: float) -> float:
    """Right-hand side of the sparse-solution residual certificate."""
    U, S, _ = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(S > delta))
    s_nm = np.sqrt(r * (min(A.shape) - r))
    Ur = U[:, :r]
    return float(
        np.linalg.norm(x) * s_nm * delta + np.linalg.norm(y - Ur @ (Ur.T @ y))
    )


def rk45_fixed(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_end: float,
    steps: int,
) -> np.ndarray:
    """Fixed-step integration with the package's embedded step; returns the endpoint.

    An order-verification aid: the step's fourth-order error is checked by
    halving the step size."""
    y = np.asarray(y0, dtype=float).copy()
    h = t_end / steps
    t = 0.0
    for _ in range(steps):
        y, _ = _rk_step(rhs, t, y, h, rhs(t, y))
        t += h
    return y
