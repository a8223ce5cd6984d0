"""Synthetic orbits of a nonlinear dynamic financial model.

The three-variable system couples an interest-rate-like variable x1, an
investment-demand-like variable x2, and a price-index-like variable x3
through savings (s), cost (c), and elasticity (e) parameters. Depending on
the configuration it settles into chaotic or eventually approximately
periodic motion; both regimes feed the identification pipeline with
uniformly sampled training data.

Integration uses a hand-rolled Fehlberg 4(5) embedded pair: fourth-order
propagation, fifth-order error estimate and proportional step control with
safety factor 0.9. The step loop runs in plain Python floats, with no numpy
call inside it: states and derivatives are short lists, and every weighted
sum of the tableau runs left to right. An orbit's bits therefore depend only
on IEEE-754 double arithmetic, not on a BLAS library or its thread count.
The loop only records the accepted steps' endpoints; after it, cubic Hermite
dense output evaluates the samples of the uniform grid in vectorized blocks,
each sample inside the first step that ends at or after it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from typing import Callable, Sequence

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
    """Model parameters and initial conditions (all dimensionless and finite)."""

    s: float
    c: float
    e: float
    x0: float
    y0: float
    z0: float

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value}")


# Reference configurations: the chaotic regime and the eventually
# approximately periodic regime.
CHAOTIC = FinancialParams(s=3.0, c=0.1, e=1.0, x0=2.0, y0=3.0, z0=2.0)
PERIODIC = FinancialParams(s=0.5, c=0.1, e=0.1, x0=1.0, y0=1.0, z0=1.0)


@dataclass(frozen=True)
class SimulationGrid:
    """Output grid and adaptive tolerances; t_end, rtol, atol finite and > 0."""

    t_end: float
    samples: int
    rtol: float = 1e-9
    atol: float = 1e-11

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end}")
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")
        for name in ("rtol", "atol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


def financial_rhs(
    state: Sequence[float], params: FinancialParams
) -> tuple[float, float, float]:
    """Right-hand side (dx1, dx2, dx3) of the financial model."""
    x1, x2, x3 = state
    return (
        x3 + (x2 - params.s) * x1,
        1.0 - params.c * x2 - x1 * x1,
        -x1 - params.e * x3,
    )


def uniform_grid(t_end: float, samples: int) -> np.ndarray:
    """Timestamps t_k = k * t_end / (samples - 1), endpoint exact."""
    grid = np.arange(samples) * float(t_end) / (samples - 1)
    grid[-1] = float(t_end)
    return grid


# Fehlberg 4(5) tableau: six stages, 4th-order propagated solution, the
# 5th-order weights serve the error estimate.
_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)

# The same coefficients as scalars for the unrolled step, stages numbered
# 1..6. Stage 2 carries weight 0 in both solutions and stage 6 in the
# fourth-order one; the step leaves those terms out.
_C2, _C3, _C4, _C5, _C6 = _C[1:]
(
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
) = _A[1:]
_B41, _, _B43, _B44, _B45, _ = _B4
_E1, _, _E3, _E4, _E5, _E6 = (b5 - b4 for b5, b4 in zip(_B5, _B4))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_STEP_FLOOR = 1e-12  # relative to t_end
_DENSE_BLOCK = 1024  # samples per dense-output pass, so memory stays flat in samples


def _rk_step(
    rhs: Callable[[float, list[float]], Sequence[float]],
    t: float,
    y: Sequence[float],
    h: float,
    f: Sequence[float],
) -> tuple[list[float], list[float]]:
    """One embedded step from (t, y) with f = rhs(t, y), in plain floats.

    Returns (y4, err) where y4 is the fourth-order solution and err the
    difference against the fifth-order one. Each weighted sum of stages runs
    left to right.
    """
    k1 = f
    k2 = rhs(t + _C2 * h, [v + h * (_A21 * a) for v, a in zip(y, k1)])
    k3 = rhs(
        t + _C3 * h,
        [v + h * (_A31 * a + _A32 * b) for v, a, b in zip(y, k1, k2)],
    )
    k4 = rhs(
        t + _C4 * h,
        [v + h * (_A41 * a + _A42 * b + _A43 * c) for v, a, b, c in zip(y, k1, k2, k3)],
    )
    k5 = rhs(
        t + _C5 * h,
        [
            v + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
            for v, a, b, c, d in zip(y, k1, k2, k3, k4)
        ],
    )
    k6 = rhs(
        t + _C6 * h,
        [
            v + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
            for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)
        ],
    )
    y4 = [
        v + h * (_B41 * a + _B43 * c + _B44 * d + _B45 * e)
        for v, a, c, d, e in zip(y, k1, k3, k4, k5)
    ]
    err = [
        h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * g)
        for a, c, d, e, g in zip(k1, k3, k4, k5, k6)
    ]
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
    rhs: Callable[[float, list[float]], Sequence[float]],
    y0: Sequence[float],
    grid: SimulationGrid,
) -> np.ndarray:
    """Adaptive integration of y' = rhs(t, y) with dense output.

    ``rhs(t, y)`` receives the state as a list of n floats and returns the n
    derivatives as a sequence of floats (a tuple or list, not an array
    expression: the step loop does plain float arithmetic on them). Returns
    a (samples, n) array holding the solution on the uniform grid of the
    ``grid`` configuration.

    Raises
    ------
    StepUnderflowError
        When the controller drives the step below 1e-12 * t_end.
    """
    y0 = np.asarray(y0, dtype=float)
    n = y0.size
    if n == 0:
        raise ValueError("y0 must hold at least one value")
    times = uniform_grid(grid.t_end, grid.samples)
    t_end, rtol, atol = grid.t_end, grid.rtol, grid.atol

    t = 0.0
    y = y0.tolist()
    f = rhs(t, y)
    # Accepted step endpoints (t, y, f), one flat row per step from the initial
    # state on; a flat float buffer keeps memory at 8 bytes a value.
    steps = array("d", (t, *y, *f))

    # Initial step from the local derivative scale. Squares are written v * v:
    # a float ** raises on overflow, where v * v gives inf.
    s0 = s1 = 0.0
    for v, dv in zip(y, f):
        sc = atol + rtol * abs(v)
        q0, q1 = v / sc, dv / sc
        s0 += q0 * q0
        s1 += q1 * q1
    d0, d1 = math.sqrt(s0 / n), math.sqrt(s1 / n)
    h = 0.01 * d0 / d1 if d1 > 1e-300 else t_end / 1000.0
    if not math.isfinite(h):  # inf / inf when the tolerances are near the float minimum
        h = t_end / 1000.0
    h = min(max(h, _STEP_FLOOR * t_end * 10), t_end)

    floor = _STEP_FLOOR * t_end
    while t < t_end:
        if not h >= floor:  # a NaN step counts as below the floor
            raise StepUnderflowError(
                f"step {h:.3e} fell below {floor:.3e} at t = {t:.6g}"
            )
        clipped = h >= t_end - t
        h = min(h, t_end - t)
        y_new, err = _rk_step(rhs, t, y, h, f)
        acc = 0.0
        for e, a, b in zip(err, y, y_new):
            q = e / (atol + rtol * max(abs(a), abs(b)))
            acc += q * q
        err_norm = math.sqrt(acc / n)
        if err_norm <= 1.0:
            # land exactly on t_end when the step was clipped to reach it
            t = t_end if clipped else t + h
            y = y_new
            f = rhs(t, y)
            steps.extend((t, *y, *f))
            # err_norm ** -0.2 raises at 0.0, so a zero error takes the cap
            factor = (
                _MAX_FACTOR
                if err_norm == 0.0
                else min(_MAX_FACTOR, _SAFETY * err_norm ** -0.2)
            )
            h *= max(_MIN_FACTOR, factor)
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)

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
        (params.x0, params.y0, params.z0),
        grid,
    )
    return TimeSeries(
        values,
        dt=grid.t_end / (grid.samples - 1),
        labels=["x1", "x2", "x3"],
        times=uniform_grid(grid.t_end, grid.samples),
    )
