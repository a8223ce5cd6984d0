"""Financial ODE right-hand side and the adaptive integrator."""

import math

import numpy as np
import pytest

import rrckit as rk
from rrckit import finance
from rrckit.errors import StepUnderflowError
from rrckit.finance import financial_rhs, integrate_ode, uniform_grid

from testutil import integrate_ode_per_sample, rk45_fixed, rk_step_numpy


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
        vals = integrate_ode(lambda t, y: [-v for v in y], np.array([1.0]), grid)
        assert abs(vals[-1, 0] - math.exp(-1.0)) <= 1e-8

    def test_dense_output_interior(self):
        grid = rk.SimulationGrid(t_end=1.0, samples=21, rtol=1e-10, atol=1e-12)
        vals = integrate_ode(lambda t, y: [-v for v in y], np.array([1.0]), grid)
        ts = uniform_grid(1.0, 21)
        errs = np.abs(vals[:, 0] - np.exp(-ts))
        assert errs.max() <= 1e-7

    def test_fixed_step_order_four(self):
        def decay(t, y):
            return [-v for v in y]

        coarse = abs(rk45_fixed(decay, np.array([1.0]), 1.0, 20)[0] - math.exp(-1))
        fine = abs(rk45_fixed(decay, np.array([1.0]), 1.0, 40)[0] - math.exp(-1))
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
            integrate_ode(lambda t, y: [v * v for v in y], np.array([1.0]), grid)

    def test_zero_initial_derivative(self, monkeypatch):
        # y' = t is 0 at t = 0, so the first step is t_end / 1000, not one scaled
        # by the derivative. The embedded pair and the cubic interpolant are
        # exact on y = 1 + t^2 / 2.
        steps = []

        def recording(rhs, t, y, h, f):
            steps.append(h)
            return rk_step(rhs, t, y, h, f)

        rk_step = finance._rk_step
        monkeypatch.setattr(finance, "_rk_step", recording)
        grid = rk.SimulationGrid(t_end=2.0, samples=21)
        vals = integrate_ode(lambda t, y: [t], [1.0], grid)
        assert steps[0] == 2.0 / 1000
        np.testing.assert_allclose(vals[:, 0], 1 + uniform_grid(2.0, 21) ** 2 / 2,
                                   rtol=0, atol=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            rk.SimulationGrid(t_end=0.0, samples=10)
        with pytest.raises(ValueError):
            rk.SimulationGrid(t_end=1.0, samples=1)
        with pytest.raises(ValueError):
            rk.SimulationGrid(t_end=1.0, samples=10, rtol=0.0)
        with pytest.raises(ValueError, match="y0"):
            integrate_ode(lambda t, y: [], [], rk.SimulationGrid(t_end=1.0, samples=10))

    @pytest.mark.parametrize("field", ["rtol", "atol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_tolerance_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            rk.SimulationGrid(t_end=1.0, samples=10, **{field: value})

    def test_rhs_gets_a_list_of_floats(self):
        seen = []

        def rhs(t, y):
            seen.append(type(y) is list and all(type(v) is float for v in y))
            return financial_rhs(y, rk.CHAOTIC)

        integrate_ode(rhs, np.array([2.0, 3.0, 2.0]), rk.SimulationGrid(t_end=1.0, samples=11))
        assert seen and all(seen)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_non_finite_t_end_rejected(self, t_end):
        # an infinite t_end makes the step floor infinite and the controller never ends
        with pytest.raises(ValueError, match="t_end"):
            rk.SimulationGrid(t_end=t_end, samples=10)


class TestParams:
    @pytest.mark.parametrize("field", ["s", "c", "e", "x0", "y0", "z0"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_field_rejected(self, field, value):
        values = {**dict(s=3.0, c=0.1, e=1.0, x0=2.0, y0=3.0, z0=2.0), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            rk.FinancialParams(**values)


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
                integrator(lambda t, y: [v * v for v in y], np.array([1.0]), grid)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def _recording(step, starts):
    """``step`` that appends the start time of every attempted step to ``starts``."""

    def recorded(rhs, t, y, h, f):
        starts.append(t)
        return step(rhs, t, y, h, f)

    return recorded


class TestFloatStep:
    """The plain-float step against the numpy formulation of the same tableau."""

    @pytest.mark.parametrize("params", [rk.CHAOTIC, rk.PERIODIC], ids=["chaotic", "periodic"])
    def test_step_matches_numpy_oracle(self, params):
        rng = np.random.default_rng(90)
        orbit = rk.integrate(params, rk.SimulationGrid(t_end=120.0, samples=1200)).values
        rhs = _rhs(params)
        for _ in range(500):
            y = (orbit[rng.integers(orbit.shape[0])] + 0.1 * rng.standard_normal(3)).tolist()
            h = float(10 ** rng.uniform(-4, -0.5))
            f = rhs(0.0, y)
            y4, err = finance._rk_step(rhs, 0.0, y, h, f)
            y4_oracle, err_oracle = rk_step_numpy(rhs, 0.0, y, h, f)
            assert np.max(np.abs(np.subtract(y4, y4_oracle))) <= 1e-14 * np.max(np.abs(y4_oracle))
            # err is a difference of two nearly equal solutions; its rounding
            # is relative to the size of the step's increment, h |f|
            assert np.max(np.abs(np.subtract(err, err_oracle))) <= 1e-14 * h * np.max(np.abs(f))

    def test_orbit_matches_numpy_step_oracle(self, monkeypatch):
        grid = rk.SimulationGrid(t_end=120.0, samples=12000)
        rhs, y0 = _rhs(rk.CHAOTIC), np.array([2.0, 3.0, 2.0])
        starts, oracle_starts = [], []
        monkeypatch.setattr(finance, "_rk_step", _recording(finance._rk_step, starts))
        values = integrate_ode(rhs, y0, grid)
        expected = integrate_ode_per_sample(
            rhs, y0, grid, step=_recording(rk_step_numpy, oracle_starts)
        )
        # A rejected step is retried from the same time and an accepted one
        # moves it on, so the distinct start times count the accepted steps.
        assert len(set(starts)) == len(set(oracle_starts)) == 2435
        # Rounding differences grow with the chaotic orbit; up to t = 40 they
        # stay near 1e-13.
        early = uniform_grid(grid.t_end, grid.samples) <= 40.0
        np.testing.assert_allclose(values[early], expected[early], rtol=0, atol=1e-11)
