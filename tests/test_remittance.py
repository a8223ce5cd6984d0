"""Remittance panel fits, exposure measure, synthetic generator oracles."""

import numpy as np
import pytest

import rrckit as rk
from rrckit.errors import DegenerateChannelError, DimensionMismatchError
from rrckit.linalg import _column_norms

SOLVER = rk.SolverConfig(delta=1e-6, epsilon=1e-4, max_iter=100)


class TestExposureMeasure:
    def test_perfect_fit_is_zero(self):
        rng = np.random.default_rng(60)
        D = rng.standard_normal((12, 4)) + 5.0
        np.testing.assert_array_equal(rk.exposure(D, D), np.zeros(4))

    def test_unit_offset_gives_one(self):
        rng = np.random.default_rng(61)
        D = rng.standard_normal((9, 3)) + 4.0
        peaks = np.max(np.abs(D), axis=0)
        fitted = D + peaks[None, :]
        np.testing.assert_allclose(rk.exposure(D, fitted), np.ones(3), rtol=1e-12)

    def test_hand_arithmetic_single_channel(self):
        observed = np.array([[1.0], [2.0]])
        fitted = np.array([[1.0], [0.0]])
        value = rk.exposure(observed, fitted)[0]
        assert value == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(62)
        observed = rng.standard_normal((10, 3)) + 3.0
        fitted = observed + 0.1 * rng.standard_normal((10, 3))
        base = rk.exposure(observed, fitted)
        lam = np.array([2.0, 0.5, 11.0])
        scaled = rk.exposure(observed * lam, fitted * lam)
        np.testing.assert_allclose(scaled, base, rtol=1e-12)

    @pytest.mark.parametrize("power", [600, 1000, -1000])
    def test_power_of_two_scaling_changes_no_bit(self, power):
        # Unscaled, the squares overflow to inf (2**600 and up) or underflow.
        rng = np.random.default_rng(63)
        observed = rng.standard_normal((10, 3)) + 3.0
        fitted = observed + 0.1 * rng.standard_normal((10, 3))
        scale = 2.0**power
        base = rk.exposure(observed, fitted)
        assert np.array_equal(rk.exposure(observed * scale, fitted * scale), base)

    def test_zero_channel_degenerate(self):
        observed = np.zeros((5, 2))
        observed[:, 1] = 1.0
        with pytest.raises(DegenerateChannelError):
            rk.exposure(observed, observed.copy())

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rk.exposure(np.ones((4, 2)), np.ones((4, 3)))


class TestRanking:
    def _report(self, exposures):
        return rk.ExposureReport(
            exposures=np.asarray(exposures, dtype=float),
            fitted=np.zeros((1, len(exposures))),
            eval_start=0,
        )

    def test_descending_top_two(self):
        assert rk.rank_exposures(self._report([0.1, 0.5, 0.3]), 2) == [
            (2, 0.5),
            (3, 0.3),
        ]

    def test_ties_take_lower_index(self):
        assert rk.rank_exposures(self._report([0.2, 0.2, 0.2]), 2) == [
            (1, 0.2),
            (2, 0.2),
        ]

    def test_full_ordering(self):
        out = rk.rank_exposures(self._report([0.3, 0.1, 0.7]), 3)
        assert [i for i, _ in out] == [3, 1, 2]

    def test_k_validated(self):
        with pytest.raises(ValueError):
            rk.rank_exposures(self._report([0.1]), 2)


class TestNonlaggedFit:
    def test_planted_product_map(self):
        # deposits are exactly a 30%-dense product map of the inflows
        rng = np.random.default_rng(63)
        panel, _ = rk.synth_panel(18, 15, 24, seed=63, noise_level=0.0, include_lag=False)
        M = rng.standard_normal((15, 18)) * (rng.random((15, 18)) < 0.3)
        D = panel.R @ M.T
        if np.any(np.max(np.abs(D), axis=0) == 0.0):
            D[:, np.max(np.abs(D), axis=0) == 0.0] += 1.0
        planted = rk.RemittancePanel(R=panel.R, D=D)
        _, report = rk.fit_nonlagged(planted, SOLVER)
        assert np.max(np.abs(report.fitted - D)) <= 1e-8
        assert np.max(report.exposures) <= 1e-8

    def test_constant_deposits_absorbed_by_bias(self):
        panel, _ = rk.synth_panel(6, 4, 16, seed=64, noise_level=0.0, include_lag=False)
        D = np.tile(np.array([3.0, 7.0, 1.5, 9.0]), (16, 1))
        constant = rk.RemittancePanel(R=panel.R, D=D)
        _, report = rk.fit_nonlagged(constant, SOLVER)
        assert np.max(report.exposures) <= 1e-10

    def test_shuffled_time_breaks_fit(self):
        rng = np.random.default_rng(65)
        panel, _ = rk.synth_panel(18, 15, 24, seed=65, noise_level=0.0, include_lag=False)
        _, clean = rk.fit_nonlagged(panel, SOLVER)
        shuffled = rk.RemittancePanel(
            R=panel.R, D=panel.D[rng.permutation(panel.quarters)]
        )
        _, broken = rk.fit_nonlagged(shuffled, SOLVER)
        assert np.all(broken.exposures > clean.exposures + 1e-6)

    def test_too_few_quarters(self):
        with pytest.raises(ValueError):
            rk.fit_nonlagged(
                rk.RemittancePanel(R=np.ones((1, 3)), D=np.ones((1, 2))), SOLVER
            )


class TestLaggedFit:
    def test_planted_lagged_map(self):
        panel, _ = rk.synth_panel(18, 15, 24, seed=66, noise_level=0.0)
        _, report = rk.fit_lagged(panel, SOLVER)
        assert np.max(report.exposures) <= 1e-8
        assert np.max(np.abs(report.fitted - panel.D[1:])) <= 1e-6

    def test_panel_near_1e155_reports_finite_exposures(self):
        # Its squared deviations overflowed: every exposure read inf.
        panel, _ = rk.synth_panel(18, 15, 24, seed=1, noise_level=0.05)
        solver = rk.SolverConfig(delta=1e-10, epsilon=1e-4, max_iter=100)
        _, base = rk.fit_lagged(panel, solver)
        big = rk.RemittancePanel(R=panel.R * 1e155, D=panel.D * 1e155)
        _, report = rk.fit_lagged(big, solver)
        np.testing.assert_allclose(report.exposures, base.exposures, rtol=1e-9)

    def test_zero_lag_component_matches_nonlagged(self):
        panel, _ = rk.synth_panel(18, 15, 24, seed=67, noise_level=0.0, include_lag=False)
        _, lag_report = rk.fit_lagged(panel, SOLVER)
        _, flat_report = rk.fit_nonlagged(panel, SOLVER)
        assert np.max(np.abs(lag_report.fitted - flat_report.fitted[1:])) <= 1e-6

    def test_lagged_never_fits_training_worse(self):
        panel, _ = rk.synth_panel(18, 15, 24, seed=68, noise_level=0.0, include_lag=False)
        lag_model, _ = rk.fit_lagged(panel, SOLVER)
        flat_model, _ = rk.fit_nonlagged(panel, SOLVER)
        assert lag_model.residual_fro <= flat_model.residual_fro + 1e-9

    def test_two_quarters_rejected(self):
        with pytest.raises(ValueError):
            rk.fit_lagged(
                rk.RemittancePanel(R=np.ones((2, 3)), D=np.ones((2, 2))), SOLVER
            )


class TestTrainFraction:
    def test_heldout_rows_never_touch_coefficients(self):
        panel, _ = rk.synth_panel(10, 6, 20, seed=69, noise_level=0.05)
        model, _ = rk.fit_lagged(panel, SOLVER, train_fraction=0.8)
        n_train = int(np.ceil(0.8 * 20))
        perturbed_R = panel.R.copy()
        perturbed_D = panel.D.copy()
        perturbed_R[n_train:] += 100.0
        perturbed_D[n_train:] -= 55.0
        other, _ = rk.fit_lagged(
            rk.RemittancePanel(R=perturbed_R, D=perturbed_D), SOLVER, train_fraction=0.8
        )
        assert np.array_equal(model.M, other.M)

    @pytest.mark.parametrize("fit, start", [(rk.fit_nonlagged, 0), (rk.fit_lagged, 1)])
    def test_residual_is_the_fitted_series_over_the_training_rows(self, fit, start):
        panel, _ = rk.synth_panel(10, 6, 20, seed=71, noise_level=0.05)
        model, report = fit(panel, SOLVER, train_fraction=0.8)
        rows = int(np.ceil(0.8 * 20)) - start
        deviation = report.fitted[:rows] - panel.D[start:][:rows]
        assert model.residual_fro == float(_column_norms(deviation.ravel()))
        assert model.residual_fro == pytest.approx(np.linalg.norm(deviation), rel=1e-12)

    def test_holdout_eval_range(self):
        panel, _ = rk.synth_panel(8, 5, 20, seed=70, noise_level=0.1)
        _, report = rk.fit_nonlagged(panel, SOLVER, train_fraction=0.75, eval_range="holdout")
        n_train = int(np.ceil(0.75 * 20))
        assert report.eval_start == n_train
        assert report.fitted.shape == (20 - n_train, 5)


    def test_empty_training_range(self):
        # ceil(0.2 * 3) = 1 training quarter, which the lagged fit cannot predict.
        panel = rk.RemittancePanel(R=np.ones((3, 2)), D=np.ones((3, 2)))
        with pytest.raises(ValueError, match="training range is empty at this train_fraction"):
            rk.fit_lagged(panel, SOLVER, train_fraction=0.2)

    @pytest.mark.parametrize("fit, eval_range, first", [
        (rk.fit_nonlagged, "all", 1), (rk.fit_lagged, "all", 2),
        (rk.fit_nonlagged, "holdout", 16), (rk.fit_lagged, "holdout", 16),
    ])
    def test_zero_channel_names_the_first_evaluated_quarter(self, fit, eval_range, first):
        panel, _ = rk.synth_panel(8, 5, 20, seed=70, noise_level=0.1)
        D = panel.D.copy()
        D[first - 1 :, 3] = 0.0
        with pytest.raises(DegenerateChannelError) as err:
            fit(rk.RemittancePanel(R=panel.R, D=D), SOLVER, train_fraction=0.75,
                eval_range=eval_range)
        assert (err.value.channel, err.value.first) == (3, first)

    @pytest.mark.parametrize("fit, terms", [
        (rk.fit_nonlagged, ["r1", "r2", "r3", "bias"]),
        (rk.fit_lagged, ["r1", "r2", "r3", "r1[t-1]", "r2[t-1]", "r3[t-1]", "bias"]),
    ])
    def test_terms_name_the_columns(self, fit, terms):
        panel, _ = rk.synth_panel(3, 4, 12, seed=72)
        model, _ = fit(panel, SOLVER)
        assert model.terms == terms
        assert model.M.shape == (4, len(terms))

    @pytest.mark.parametrize("fit", [rk.fit_nonlagged, rk.fit_lagged])
    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"eval_range": "train"},
                     "eval_range must be 'all' or 'holdout', got 'train'", id="unknown-range"),
        pytest.param({"eval_range": "holdout", "train_fraction": 1.0},
                     "no held-out quarters at this train_fraction", id="empty-holdout"),
    ])
    def test_evaluation_range_checked_before_the_solve(self, monkeypatch, fit, kwargs,
                                                       message):
        def forbidden(*args, **kwargs):
            raise AssertionError("panel solved before its evaluation range was checked")

        monkeypatch.setattr(rk.remittance, "sparse_lstsq", forbidden)
        panel, _ = rk.synth_panel(8, 5, 20, seed=70, noise_level=0.1)
        with pytest.raises(ValueError, match=message):
            fit(panel, SOLVER, **kwargs)


class TestSynthPanel:
    def test_shapes_match_domain(self):
        panel, planted = rk.synth_panel(18, 15, 24, seed=71)
        assert panel.R.shape == (24, 18)
        assert panel.D.shape == (24, 15)
        assert planted["M0"].shape == (15, 18)

    def test_seed_determinism(self):
        a, _ = rk.synth_panel(9, 7, 16, seed=72)
        b, _ = rk.synth_panel(9, 7, 16, seed=72)
        assert np.array_equal(a.R, b.R) and np.array_equal(a.D, b.D)

    def test_remittances_positive(self):
        panel, _ = rk.synth_panel(18, 15, 24, seed=73)
        assert np.all(panel.R > 0.0)

    def test_noise_perturbs(self):
        clean, _ = rk.synth_panel(5, 4, 12, seed=74, noise_level=0.0)
        noisy, _ = rk.synth_panel(5, 4, 12, seed=74, noise_level=0.1)
        assert not np.array_equal(clean.D, noisy.D)
