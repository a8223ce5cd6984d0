"""Financial ODE right-hand side and the adaptive integrator."""

import math

import numpy as np
import pytest

import rrckit as rk
from rrckit import finance
from rrckit.errors import StepUnderflowError
from rrckit.finance import financial_rhs, integrate_ode, uniform_grid

from testutil import integrate_ode_per_sample, rk45_fixed


class TestRhs:
    def test_partial_equilibrium(self):
        out = rk.financial_rhs(np.array([0.0, 10.0, 0.0]), rk.FinancialParams(3, 0.1, 1, 0, 0, 0))
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0], atol=1e-14)

    def test_hand_arithmetic_at_chaotic_ic(self):
        out = rk.financial_rhs(np.array([2.0, 3.0, 2.0]), rk.FinancialParams(3, 0.1, 1, 0, 0, 0))
        np.testing.assert_allclose(out, [2.0, -3.3, -4.0], atol=1e-14)

    def test_origin_image(self):
        out = rk.financial_rhs(np.zeros(3), rk.FinancialParams(0.7, 0.3, 2.0, 0, 0, 0))
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-14)


class TestIntegrator:
    def test_exponential_endpoint(self):
        grid = rk.SimulationGrid(t_end=1.0, samples=11, rtol=1e-9, atol=1e-11)
        vals = integrate_ode(lambda t, y: -y, np.array([1.0]), grid)
        assert abs(vals[-1, 0] - math.exp(-1.0)) <= 1e-8

    def test_dense_output_interior(self):
        grid = rk.SimulationGrid(t_end=1.0, samples=21, rtol=1e-10, atol=1e-12)
        vals = integrate_ode(lambda t, y: -y, np.array([1.0]), grid)
        ts = uniform_grid(1.0, 21)
        errs = np.abs(vals[:, 0] - np.exp(-ts))
        assert errs.max() <= 1e-7

    def test_fixed_step_order_four(self):
        coarse = abs(rk45_fixed(lambda t, y: -y, np.array([1.0]), 1.0, 20)[0] - math.exp(-1))
        fine = abs(rk45_fixed(lambda t, y: -y, np.array([1.0]), 1.0, 40)[0] - math.exp(-1))
        assert coarse / fine >= 8.0

    def test_grid_fidelity(self):
        grid = rk.SimulationGrid(t_end=7.3, samples=101)
        series = rk.integrate(rk.PERIODIC, grid)
        expected = np.array([k * 7.3 / 100 for k in range(101)])
        expected[-1] = 7.3
        np.testing.assert_array_equal(series.times, expected)

    def test_determinism(self):
        grid = rk.SimulationGrid(t_end=30.0, samples=500)
        a = rk.integrate(rk.CHAOTIC, grid)
        b = rk.integrate(rk.CHAOTIC, grid)
        assert np.array_equal(a.values, b.values)

    def test_step_underflow(self):
        # y' = y^2 from y(0)=1 blows up at t=1, inside [0, 2]
        grid = rk.SimulationGrid(t_end=2.0, samples=10)
        with pytest.raises(StepUnderflowError):
            integrate_ode(lambda t, y: y * y, np.array([1.0]), grid)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            rk.SimulationGrid(t_end=0.0, samples=10)
        with pytest.raises(ValueError):
            rk.SimulationGrid(t_end=1.0, samples=1)
        with pytest.raises(ValueError):
            rk.SimulationGrid(t_end=1.0, samples=10, rtol=0.0)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_non_finite_t_end_rejected(self, t_end):
        # an infinite t_end makes the step floor infinite and the controller never ends
        with pytest.raises(ValueError, match="t_end"):
            rk.SimulationGrid(t_end=t_end, samples=10)


class TestRegimes:
    def test_chaotic_orbit_bounded(self):
        grid = rk.SimulationGrid(t_end=120.0, samples=12000)
        series = rk.integrate(rk.CHAOTIC, grid)
        assert series.values.shape == (12000, 3)
        assert np.max(np.abs(series.values)) < 50.0

    def test_periodic_orbit_eventually_cyclic(self):
        grid = rk.SimulationGrid(t_end=120.0, samples=12000)
        series = rk.integrate(rk.PERIODIC, grid)
        x1 = series.values[:, 0]
        times = series.times
        tail = x1[times > 60.0]
        # successive cycle maxima of x1 agree within 5%
        peaks = [
            tail[i]
            for i in range(1, tail.size - 1)
            if tail[i] >= tail[i - 1] and tail[i] > tail[i + 1] and tail[i] > 0
        ]
        assert len(peaks) >= 3
        for a, b in zip(peaks, peaks[1:]):
            assert abs(b - a) <= 0.05 * abs(a)


def _rhs(params):
    return lambda t, y: financial_rhs(y, params)


def _step_ends(monkeypatch, rhs, y0, grid):
    """Integrate once and return the ends of the steps that carry samples."""
    seen = []

    def recording_hermite(t, y, f, end, ts):
        seen.append(t[end])
        return hermite(t, y, f, end, ts)

    hermite = finance._hermite
    with monkeypatch.context() as patch:
        patch.setattr(finance, "_hermite", recording_hermite)
        integrate_ode(rhs, y0, grid)
    return np.unique(np.concatenate(seen))


class TestDenseOutputOracle:
    """One vectorized dense-output pass equals per-sample interpolation bit for bit."""

    @pytest.mark.parametrize(
        "params, samples",
        [(rk.CHAOTIC, 12000), (rk.PERIODIC, 12000), (rk.CHAOTIC, 2)],
        ids=["chaotic", "periodic", "chaotic-2-samples"],
    )
    def test_orbit_matches_per_sample_oracle(self, params, samples):
        grid = rk.SimulationGrid(t_end=120.0, samples=samples)
        y0 = np.array([params.x0, params.y0, params.z0])
        expected = integrate_ode_per_sample(_rhs(params), y0, grid)
        assert np.array_equal(integrate_ode(_rhs(params), y0, grid), expected)

    def test_sample_on_a_step_end(self, monkeypatch):
        # The steps do not depend on the sample grid below t_end, so an interior
        # step end s of a [0, 30] run is also a step end of a [0, 2s] run, whose
        # three-sample grid puts its middle sample exactly on s.
        rhs, y0 = _rhs(rk.CHAOTIC), np.array([2.0, 3.0, 2.0])
        ends = _step_ends(monkeypatch, rhs, y0, rk.SimulationGrid(t_end=30.0, samples=3000))
        s = float(ends[ends.size // 2])
        grid = rk.SimulationGrid(t_end=2 * s, samples=3)
        assert uniform_grid(grid.t_end, grid.samples)[1] == s
        assert s in _step_ends(monkeypatch, rhs, y0, grid)
        expected = integrate_ode_per_sample(rhs, y0, grid)
        assert np.array_equal(integrate_ode(rhs, y0, grid), expected)

    def test_step_underflow_unchanged(self):
        grid = rk.SimulationGrid(t_end=2.0, samples=10)
        messages = []
        for integrator in (integrate_ode, integrate_ode_per_sample):
            with pytest.raises(StepUnderflowError) as info:
                integrator(lambda t, y: y * y, np.array([1.0]), grid)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
