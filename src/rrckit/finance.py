"""Synthetic orbits of a nonlinear dynamic financial model.

The three-variable system couples an interest-rate-like variable x1, an
investment-demand-like variable x2, and a price-index-like variable x3
through savings (s), cost (c), and elasticity (e) parameters. Depending on
the configuration it settles into chaotic or eventually approximately
periodic motion; both regimes feed the identification pipeline with
uniformly sampled training data.

Integration uses a hand-rolled Fehlberg 4(5) embedded pair: fourth-order
propagation, fifth-order error estimate and proportional step control with
safety factor 0.9. The step loop only records the accepted steps'
endpoints; after it, cubic Hermite dense output evaluates the samples of the
uniform grid in vectorized blocks, each sample inside the first step that
ends at or after it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .embedding import TimeSeries
from .errors import StepUnderflowError

__all__ = [
    "FinancialParams",
    "SimulationGrid",
    "financial_rhs",
    "integrate",
    "integrate_ode",
    "uniform_grid",
    "CHAOTIC",
    "PERIODIC",
]


@dataclass(frozen=True)
class FinancialParams:
    """Model parameters and initial conditions (all dimensionless)."""

    s: float
    c: float
    e: float
    x0: float
    y0: float
    z0: float


# Reference configurations: the chaotic regime and the eventually
# approximately periodic regime.
CHAOTIC = FinancialParams(s=3.0, c=0.1, e=1.0, x0=2.0, y0=3.0, z0=2.0)
PERIODIC = FinancialParams(s=0.5, c=0.1, e=0.1, x0=1.0, y0=1.0, z0=1.0)


@dataclass(frozen=True)
class SimulationGrid:
    """Output grid and adaptive tolerances; t_end must be finite and > 0."""

    t_end: float
    samples: int
    rtol: float = 1e-9
    atol: float = 1e-11

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("tolerances must be > 0")


def financial_rhs(state: np.ndarray, params: FinancialParams) -> np.ndarray:
    """Right-hand side (dx1, dx2, dx3) of the financial model."""
    x1, x2, x3 = state
    return np.array(
        [
            x3 + (x2 - params.s) * x1,
            1.0 - params.c * x2 - x1 * x1,
            -x1 - params.e * x3,
        ]
    )


def uniform_grid(t_end: float, samples: int) -> np.ndarray:
    """Timestamps t_k = k * t_end / (samples - 1), endpoint exact."""
    grid = np.arange(samples) * float(t_end) / (samples - 1)
    grid[-1] = float(t_end)
    return grid


# Fehlberg 4(5) tableau: six stages, 4th-order propagated solution, the
# 5th-order weights serve the error estimate.
_C = np.array([0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2])
_A = [
    [],
    [1 / 4],
    [3 / 32, 9 / 32],
    [1932 / 2197, -7200 / 2197, 7296 / 2197],
    [439 / 216, -8.0, 3680 / 513, -845 / 4104],
    [-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40],
]
_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])
_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_STEP_FLOOR = 1e-12  # relative to t_end
_DENSE_BLOCK = 1024  # samples per dense-output pass, so memory stays flat in samples


def _rk_step(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t: float,
    y: np.ndarray,
    h: float,
    f0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One embedded step from (t, y) with f0 = rhs(t, y).

    Returns (y4, err) where y4 is the fourth-order solution and err the
    difference against the fifth-order one.
    """
    k = np.empty((6, y.size))
    k[0] = f0
    for i in range(1, 6):
        yi = y + h * np.dot(np.asarray(_A[i]), k[:i])
        k[i] = rhs(t + _C[i] * h, yi)
    y4 = y + h * (_B4 @ k)
    err = h * ((_B5 - _B4) @ k)
    return y4, err


def _hermite(
    t: np.ndarray, y: np.ndarray, f: np.ndarray, end: np.ndarray, ts: np.ndarray
) -> np.ndarray:
    """Cubic Hermite interpolation, one sample per row.

    Sample k at time ts[k] lies in the step from (t, y, f)[end[k] - 1] to
    (t, y, f)[end[k]]: times, states and derivatives at the step ends.
    Returns (len(ts), n).
    """
    start = end - 1
    h = (t[end] - t[start])[:, None]
    tau = (ts - t[start])[:, None] / h
    h00 = (1 + 2 * tau) * (1 - tau) ** 2
    h10 = tau * (1 - tau) ** 2
    h01 = tau * tau * (3 - 2 * tau)
    h11 = tau * tau * (tau - 1)
    return h00 * y[start] + h10 * (h * f[start]) + h01 * y[end] + h11 * (h * f[end])


def integrate_ode(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    grid: SimulationGrid,
) -> np.ndarray:
    """Adaptive integration of y' = rhs(t, y) with dense output.

    Returns a (samples, len(y0)) array holding the solution on the uniform
    grid of the ``grid`` configuration.

    Raises
    ------
    StepUnderflowError
        When the controller drives the step below 1e-12 * t_end.
    """
    y0 = np.asarray(y0, dtype=float)
    times = uniform_grid(grid.t_end, grid.samples)

    t = 0.0
    y = y0.copy()
    f = rhs(t, y)
    # Accepted step endpoints (t, y, f), one flat row per step from the initial
    # state on; a flat float buffer keeps memory at 8 bytes a value.
    steps = array("d", (t, *y, *f))

    # Initial step from the local derivative scale.
    sc = grid.atol + grid.rtol * np.abs(y)
    d0 = float(np.sqrt(np.mean((y / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f / sc) ** 2)))
    h = 0.01 * d0 / d1 if d1 > 1e-300 else grid.t_end / 1000.0
    h = min(max(h, _STEP_FLOOR * grid.t_end * 10), grid.t_end)

    floor = _STEP_FLOOR * grid.t_end
    while t < grid.t_end:
        if h < floor:
            raise StepUnderflowError(
                f"step {h:.3e} fell below {floor:.3e} at t = {t:.6g}"
            )
        clipped = h >= grid.t_end - t
        h = min(h, grid.t_end - t)
        y_new, err = _rk_step(rhs, t, y, h, f)
        sc = grid.atol + grid.rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean((err / sc) ** 2)))
        if err_norm <= 1.0:
            # land exactly on t_end when the step was clipped to reach it
            t = grid.t_end if clipped else t + h
            y = y_new
            f = rhs(t, y)
            steps.extend((t, *y, *f))
            factor = (
                _MAX_FACTOR
                if err_norm == 0.0
                else min(_MAX_FACTOR, _SAFETY * err_norm ** -0.2)
            )
            h *= max(_MIN_FACTOR, factor)
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)

    n = y0.size
    steps = np.frombuffer(steps).reshape(-1, 1 + 2 * n)
    step_t, step_y, step_f = steps[:, 0], steps[:, 1 : 1 + n], steps[:, 1 + n :]
    # Sample k belongs to the first step ending at or after times[k]; the last
    # step ends at t_end = times[-1], so every sample has one.
    end = np.searchsorted(step_t[1:], times, side="left") + 1
    out = np.empty((grid.samples, n))
    out[0] = y0
    for lo in range(1, grid.samples, _DENSE_BLOCK):
        block = slice(lo, lo + _DENSE_BLOCK)
        out[block] = _hermite(step_t, step_y, step_f, end[block], times[block])
    return out


def integrate(params: FinancialParams, grid: SimulationGrid) -> TimeSeries:
    """Simulate the financial model on a uniform grid.

    Returns a 3-channel series labelled x1, x2, x3 with exact grid
    timestamps attached.
    """
    values = integrate_ode(
        lambda t, y: financial_rhs(y, params),
        np.array([params.x0, params.y0, params.z0]),
        grid,
    )
    return TimeSeries(
        values,
        dt=grid.t_end / (grid.samples - 1),
        labels=["x1", "x2", "x3"],
        times=uniform_grid(grid.t_end, grid.samples),
    )
