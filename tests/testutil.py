"""Shared fixtures and oracle helpers for the test suite."""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, NamedTuple, Sequence

import numpy as np

import rrckit as rk
from rrckit.compression import compress
from rrckit.embedding import build_data_matrices
from rrckit import finance
from rrckit.errors import RankZeroError, StepUnderflowError
from rrckit.linalg import SolverConfig, _Projection, _truncated_projection
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


def noisy_orbit(values: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Observations of an orbit: values plus seeded Gaussian noise whose
    standard deviation is sigma times each channel's own standard deviation."""
    values = np.asarray(values, dtype=float)
    noise = np.random.default_rng(seed).standard_normal(values.shape)
    return values + sigma * values.std(axis=0) * noise


def window_matrix_per_slot(values: np.ndarray, L: int) -> np.ndarray:
    """Oracle for ``embedding._window_matrix``: each of the nL window rows is
    copied on its own, row j * L + lag holding channel j at that lag."""
    T, n = values.shape
    cols = T - L + 1
    out = np.empty((n * L, cols))
    for j in range(n):
        for lag in range(L):
            out[j * L + lag, :] = values[lag : lag + cols, j]
    return out


def kron_power(x: np.ndarray, p: int) -> np.ndarray:
    """Oracle: the p-fold Kronecker power of a vector, length len(x)**p.

    Entries follow the recursive definition x (x) x^{(x)(p-1)}, i.e. the
    row-major multi-indices of ``itertools.product``. Each entry is the
    left-to-right product of x over its multi-index sorted ascending, so
    permuted multi-indices give the same bits.
    """
    x = np.asarray(x, dtype=float).ravel()
    return np.array([
        functools.reduce(operator.mul, x[sorted(idx)])
        for idx in itertools.product(range(x.size), repeat=p)
    ])


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
        W_hat=np.ascontiguousarray(W_bar),
        diagnostics=model.diagnostics,
    )


def residual_certificate(A: np.ndarray, y: np.ndarray, x: np.ndarray, delta: float) -> float:
    """Right-hand side of the sparse-solution residual certificate, with the
    rounding term (n + 1) * u * (||A||_F ||x|| + ||y||) of a computed A x - y."""
    U, S, _ = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(S > delta))
    s_nm = np.sqrt(r * (min(A.shape) - r))
    Ur = U[:, :r]
    rounding = (A.shape[1] + 1) * np.finfo(float).eps / 2
    return float(
        np.linalg.norm(x) * s_nm * delta + np.linalg.norm(y - Ur @ (Ur.T @ y))
        + rounding * (np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(y))
    )


def rk_step_numpy(
    rhs: Callable[[float, list[float]], Sequence[float]],
    t: float,
    y: Sequence[float],
    h: float,
    f0: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for ``finance._rk_step``: the same tableau applied with numpy products.

    Each stage combination is one ``np.dot`` over the earlier stages, whose
    rounding may differ from the package's left-to-right float sums.
    Returns (y4, err) as arrays.
    """
    C, B4, B5 = (np.asarray(v) for v in (finance._C, finance._B4, finance._B5))
    y = np.asarray(y, dtype=float)
    k = np.empty((6, y.size))
    k[0] = f0
    for i in range(1, 6):
        yi = y + h * np.dot(np.asarray(finance._A[i]), k[:i])
        k[i] = rhs(t + C[i] * h, yi.tolist())
    return y + h * (B4 @ k), h * ((B5 - B4) @ k)


def rk45_fixed(
    rhs: Callable[[float, list[float]], Sequence[float]],
    y0: np.ndarray,
    t_end: float,
    steps: int,
) -> np.ndarray:
    """Fixed-step integration with the package's embedded step; returns the endpoint.

    An order-verification aid: the step's fourth-order error is checked by
    halving the step size."""
    y = np.asarray(y0, dtype=float).tolist()
    h = t_end / steps
    t = 0.0
    for _ in range(steps):
        y, _ = finance._rk_step(rhs, t, y, h, rhs(t, y))
        t += h
    return np.asarray(y)


def integrate_ode_per_sample(
    rhs: Callable[[float, list[float]], Sequence[float]],
    y0: np.ndarray,
    grid: rk.SimulationGrid,
    step: Callable | None = None,
) -> np.ndarray:
    """Oracle for ``integrate_ode``: dense output evaluated one sample at a time.

    The same step loop, with each grid sample interpolated inside the loop as
    soon as an accepted step ends at or after it, and the step control done
    with numpy. ``step`` replaces the package's ``_rk_step``, e.g. by
    :func:`rk_step_numpy`.
    """
    step = finance._rk_step if step is None else step
    y0 = np.asarray(y0, dtype=float)
    times = finance.uniform_grid(grid.t_end, grid.samples)
    out = np.empty((grid.samples, y0.size))
    out[0] = y0
    next_sample = 1

    t = 0.0
    y = y0.copy()
    f = np.asarray(rhs(t, y.tolist()), dtype=float)
    sc = grid.atol + grid.rtol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f / sc) ** 2)))
    h = 0.01 * d0 / d1 if d1 > 1e-300 else grid.t_end / 1000.0
    if not np.isfinite(h):
        h = grid.t_end / 1000.0
    h = min(max(h, finance._STEP_FLOOR * grid.t_end * 10), grid.t_end)

    floor = finance._STEP_FLOOR * grid.t_end
    while t < grid.t_end:
        if not h >= floor:
            raise StepUnderflowError(
                f"step {h:.3e} fell below {floor:.3e} at t = {t:.6g}"
            )
        clipped = h >= grid.t_end - t
        h = min(h, grid.t_end - t)
        y_new, err = (
            np.asarray(v, dtype=float) for v in step(rhs, t, y.tolist(), h, f.tolist())
        )
        sc = grid.atol + grid.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean((err / sc) ** 2)))
        if err_norm <= 1.0:
            t_new = grid.t_end if clipped else t + h
            f_new = np.asarray(rhs(t_new, y_new.tolist()), dtype=float)
            while next_sample < grid.samples and times[next_sample] <= t_new:
                step_h = t_new - t
                tau = (times[next_sample : next_sample + 1] - t) / step_h
                h00 = (1 + 2 * tau) * (1 - tau) ** 2
                h10 = tau * (1 - tau) ** 2
                h01 = tau * tau * (3 - 2 * tau)
                h11 = tau * tau * (tau - 1)
                out[next_sample] = (
                    np.outer(h00, y)
                    + np.outer(h10, step_h * f)
                    + np.outer(h01, y_new)
                    + np.outer(h11, step_h * f_new)
                )[0]
                next_sample += 1
            t, y, f = t_new, y_new, f_new
            factor = (
                finance._MAX_FACTOR
                if err_norm == 0.0
                else min(finance._MAX_FACTOR, finance._SAFETY * err_norm ** -0.2)
            )
            h *= max(finance._MIN_FACTOR, factor)
        else:
            h *= max(finance._MIN_FACTOR, finance._SAFETY * err_norm ** -0.2)
    return out


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Oracle for ``suggest_lag``: the biased sample autocorrelation of
    channel x at lags 0..max_lag, NaN at every lag when x is constant.

    Like the package, x is first scaled by the power of two of its peak
    magnitude, which keeps every ratio's bits, and a constant channel is told
    by its peak-to-peak range.
    """
    x = np.asarray(x, dtype=float).ravel()
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x), initial=0.0))[1])
    if np.ptp(x) == 0.0:
        return np.full(max_lag + 1, np.nan)
    c = x - x.mean()
    denom = float(np.dot(c, c))
    return np.array([float(np.dot(c[: x.size - k], c[k:])) / denom
                     for k in range(max_lag + 1)])


class PerPassSolution(NamedTuple):
    X: np.ndarray
    iterations: list[int]
    supports: list[list[bytes]]  # per column, the support set of every pass (sorted)


def sparse_lstsq_per_pass(A: np.ndarray, Y: np.ndarray, cfg: SolverConfig) -> PerPassSolution:
    """Oracle for ``sparse_lstsq``: every refinement pass solves its support afresh.

    Each pass solves its support set in the column order in which that set
    first came up in the column, so only the reuse of solved sets differs
    from the package. Uses the package's projection. Records the sorted
    support set of each pass, so a test can count the distinct restricted
    subproblems of each column.
    """
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    n = A.shape[1]
    S, V, A_hat, Y_hat, _ = _truncated_projection(A, Y, cfg.delta)
    r = A_hat.shape[0]
    X0 = V[:r].T @ (Y_hat / S[:r, None])

    def support_size(magnitudes: np.ndarray) -> int:
        return min(max(int(np.sum(magnitudes > cfg.epsilon)), 1), r)

    X = np.zeros((n, Y.shape[1]))
    iterations, supports = [], []
    for j in range(Y.shape[1]):
        x_prev = X0[:, j].copy()
        order = np.argsort(-np.abs(x_prev), kind="stable")
        n0 = support_size(np.abs(x_prev))
        x = x_prev
        k = 0
        error = 1.0 + cfg.delta
        first_order: dict[bytes, np.ndarray] = {}
        passes = []
        while k < cfg.max_iter and error > cfg.delta:
            key = np.sort(order[:n0]).tobytes()
            support = first_order.setdefault(key, order[:n0])
            passes.append(key)
            coeffs = np.linalg.lstsq(A_hat[:, support], Y_hat[:, j], rcond=None)[0]
            x = np.zeros(n)
            x[support] = coeffs
            error = float(np.max(np.abs(x - x_prev))) if n else 0.0
            x_prev = x
            order = np.argsort(-np.abs(x), kind="stable")
            n0 = support_size(np.abs(x))
            k += 1
        X[:, j] = x
        iterations.append(k)
        supports.append(passes)
    return PerPassSolution(X, iterations, supports)


def tall_svd_projection(A: np.ndarray, Y: np.ndarray, delta: float) -> _Projection:
    """Oracle for the solver's projection: the economy SVD of A itself.

    Forms U and projects with it, where the package factors [A | Y] by QR
    and takes the SVD of the small triangular factor only.
    """
    A = np.asarray(A, dtype=float)
    Y = np.asarray(Y, dtype=float)
    U, S, V = np.linalg.svd(A, full_matrices=False)
    r = int(np.sum(S > delta))
    if r == 0:
        raise RankZeroError(f"rank_delta(A, {delta:g}) = 0")
    Ur = U[:, :r]
    Y_hat = Ur.T @ Y
    return _Projection(
        S=S, V=V, A_hat=Ur.T @ A, Y_hat=Y_hat,
        deflated=np.linalg.norm(Y - Ur @ Y_hat, axis=0),
    )
