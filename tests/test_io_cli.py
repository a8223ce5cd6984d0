"""CSV formats and the command-line surface: flags, exit codes, determinism."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rrckit as rk
from rrckit import cli
from rrckit.cli import main
from rrckit.io import read_timeseries_csv, write_timeseries_csv


def run_cli(*argv):
    return main(list(argv))


def run_cli_process(*argv, **env):
    """``python -m rrckit.cli`` in a fresh process, with extra environment variables."""
    src = str(Path(rk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "rrckit.cli", *argv],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=60,
    )


class TestCsvRoundTrip:
    def test_values_survive_bitwise(self, tmp_path):
        rng = np.random.default_rng(80)
        ts = rk.TimeSeries(
            rng.standard_normal((37, 3)) * 10.0 ** rng.integers(-8, 8, size=(37, 3)),
            dt=0.25,
            labels=["a", "b", "c"],
        )
        path = tmp_path / "series.csv"
        write_timeseries_csv(path, ts)
        back = read_timeseries_csv(path)
        assert np.array_equal(back.values, ts.values)
        assert back.labels == ["a", "b", "c"]
        assert back.dt == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "ts",
        [
            rk.TimeSeries(
                np.random.default_rng(81).standard_normal((2500, 3))
                * 10.0 ** np.random.default_rng(82).integers(-300, 300, size=(2500, 3)),
                labels=["a", "b b", 'c,"d"'],
                times=np.linspace(-1.0, 7.0, 2500),
            ),
            rk.TimeSeries(np.array([0.0, -0.0, 5e-324, 1.0 / 3.0, -2.5e300]), dt=0.1),
        ],
        ids=["three-channels", "one-channel"],
    )
    def test_bytes_match_csv_writer(self, tmp_path, ts):
        # The writer's own row format against csv.writer with one call per cell.
        path, reference = tmp_path / "series.csv", tmp_path / "reference.csv"
        write_timeseries_csv(path, ts)
        labels = ts.labels or [f"x{j+1}" for j in range(ts.n)]
        times = ts.times if ts.times is not None else np.arange(ts.T) * ts.dt
        with reference.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t"] + labels)
            for k in range(ts.T):
                writer.writerow([f"{float(v):.17g}" for v in [times[k], *ts.values[k]]])
        data = path.read_bytes()
        assert data == reference.read_bytes()
        assert data.count(b"\r\n") == ts.T + 1

    def test_non_utf8_error_names_path_and_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"t,x\r\n0,1\r\n1,\xff\r\n")
        with pytest.raises(ValueError) as info:
            read_timeseries_csv(path)
        assert str(info.value).startswith(f"{path}:3: 'utf-8' codec can't decode byte 0xff")

    def test_non_utf8_byte_past_the_first_decode_block(self, tmp_path):
        # The header read decodes the first block; this byte is decoded later,
        # inside the table parse, and still named by its line.
        path = tmp_path / "late.csv"
        rows = [b"t,x\r\n"] + [b"%d,%d.5\r\n" % (k, k) for k in range(5000)]
        rows[4001] = b"4000,\xff\r\n"
        path.write_bytes(b"".join(rows))
        with pytest.raises(ValueError) as info:
            read_timeseries_csv(path)
        assert str(info.value).startswith(f"{path}:4002: 'utf-8' codec can't decode byte 0xff")

    def test_error_line_counts_skipped_blank_lines(self, tmp_path):
        path = tmp_path / "gappy.csv"
        path.write_text("t,x\n0,1\n\n1,2\n2,inf\n")
        with pytest.raises(ValueError, match=r"gappy\.csv:5: non-finite value inf in column 'x'"):
            read_timeseries_csv(path)

    def test_values_match_per_cell_float(self, tmp_path):
        # np.loadtxt against Python's float() on every cell, the parse the
        # reader's error path still uses; short and hand-written spellings too.
        rng = np.random.default_rng(83)
        cells = [
            f"{v:.17g}" for v in rng.standard_normal(600) * 10.0 ** rng.integers(-300, 300, 600)
        ] + [f"{v:.5f}" for v in rng.standard_normal(300)] + [
            "1e5", "-0", "+1.5", " 2.25 ", "5e-324", "1.7976931348623157e308", '"3.5"',
        ] * 3
        path = tmp_path / "cells.csv"
        rows = [f"{k},{a},{b}" for k, (a, b) in enumerate(zip(cells[::2], cells[1::2]))]
        path.write_text("t,a,b\n" + "\n".join(rows) + "\n")
        with path.open(newline="") as handle:
            reference = np.array([[float(v) for v in row] for row in list(csv.reader(handle))[1:]])
        back = read_timeseries_csv(path)
        assert np.array_equal(back.times, reference[:, 0])
        assert np.array_equal(back.values, reference[:, 1:])
        assert np.array_equal(np.signbit(back.values), np.signbit(reference[:, 1:]))

    @pytest.mark.parametrize("body", ["", "\n\n"])
    def test_no_data_rows_without_warning(self, tmp_path, recwarn, body):
        path = tmp_path / "empty.csv"
        path.write_text("t,x\n" + body)
        with pytest.raises(ValueError, match=r"empty\.csv: no data rows"):
            read_timeseries_csv(path)
        assert not recwarn.list

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662", "\uff11\uff12"])
    def test_cell_float_reads_but_table_does_not(self, tmp_path, cell):
        # float() reads digit separators and non-ASCII digits; the table
        # parser does not, and the error names the line.
        path = tmp_path / "sep.csv"
        path.write_text(f"t,x\n0,1\n1,{cell}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"sep\.csv:3: could not convert string to float: '{cell}'"):
            read_timeseries_csv(path)

    def test_falling_times_read_back_with_negative_dt(self, tmp_path):
        path = tmp_path / "falling.csv"
        write_timeseries_csv(path, rk.TimeSeries(np.ones(3), times=[2.0, 1.0, 0.0]))
        assert read_timeseries_csv(path).dt == -1.0

    def test_times_spanning_past_float_maximum_read_back(self, tmp_path, capsys):
        # Their span, t[-1] - t[0], overflowed: a raw RuntimeWarning, then dt = inf.
        path = tmp_path / "wide.csv"
        path.write_text("t,x\n-1e308,1\n0,2\n1e308,3\n")
        assert read_timeseries_csv(path).dt == 1e308
        assert run_cli("suggest-lag", "--input", str(path)) == 0
        assert capsys.readouterr().err == ""

    def test_step_past_float_maximum_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "span.csv"
        path.write_text("t,x\n-1e308,1\n1e308,3\n")
        message = r"span\.csv: the time step from -1e\+308 to 1e\+308 exceeds the float maximum"
        with pytest.raises(ValueError, match=message):
            read_timeseries_csv(path)
        assert run_cli("suggest-lag", "--input", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "span.csv: the time step" in err

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_timeseries_csv(path)


class TestSimulate:
    def test_chaotic_preset_shape(self, tmp_path, capsys):
        out = tmp_path / "orbit.csv"
        assert run_cli("simulate", "--regime", "chaotic", "--samples", "200",
                       "--t-end", "12", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3"
        assert len(lines) == 201
        assert "rows=200" in capsys.readouterr().out

    def test_explicit_params(self, tmp_path):
        out = tmp_path / "orbit.csv"
        code = run_cli("simulate", "--params", "0.5,0.1,0.1", "--ic", "1,1,1",
                       "--samples", "50", "--t-end", "5", "--out", str(out))
        assert code == 0
        assert read_timeseries_csv(out).values.shape == (50, 3)

    def test_missing_out_is_usage_error(self, capsys):
        assert run_cli("simulate", "--regime", "chaotic") == 2

    def test_missing_regime_and_params(self, tmp_path):
        assert run_cli("simulate", "--out", str(tmp_path / "x.csv")) == 2

    def test_malformed_params(self, tmp_path):
        assert run_cli("simulate", "--params", "1,2", "--ic", "1,1,1",
                       "--out", str(tmp_path / "x.csv")) == 2

    def test_grid_defaults(self):
        from rrckit.cli import build_parser

        args = build_parser().parse_args(
            ["simulate", "--regime", "chaotic", "--out", "x.csv"]
        )
        assert args.samples == 12000 and args.t_end == 120.0


@pytest.fixture(scope="module")
def orbit_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "orbit.csv"
    grid = rk.SimulationGrid(t_end=30.0, samples=600)
    write_timeseries_csv(path, rk.integrate(rk.CHAOTIC, grid))
    return path


class TestTrain:
    def test_trains_and_reports(self, orbit_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = run_cli("train", "--input", str(orbit_csv), "--lag", "2",
                       "--order", "2", "--delta", "1e-8", "--epsilon", "1e-8",
                       "--train-frac", "0.5", "--seed", "3", "--out", str(model_path))
        assert code == 0
        out = capsys.readouterr().out
        for key in ("rank=", "nnz=", "residual_fro=", "rows=300", "seed=3"):
            assert key in out
        assert "rng=" not in out
        model = rk.load_model(model_path)
        assert model.L == 2 and model.p == 2

    def test_max_iter_one_is_recorded(self, orbit_csv, tmp_path):
        # The smallest cap the solver accepts trains and is written to the model file.
        model_path = tmp_path / "m.json"
        assert run_cli("train", "--input", str(orbit_csv), "--lag", "2", "--max-iter", "1",
                       "--out", str(model_path)) == 0
        assert json.loads(model_path.read_text())["diagnostics"]["max_iter"] == 1

    def test_nu_flag_is_gone(self, orbit_csv, tmp_path):
        assert run_cli("train", "--input", str(orbit_csv), "--lag", "2", "--nu", "1",
                       "--out", str(tmp_path / "m.json")) == 2

    def test_invalid_lag(self, orbit_csv, tmp_path):
        assert run_cli("train", "--input", str(orbit_csv), "--lag", "0",
                       "--out", str(tmp_path / "m.json")) == 2

    def test_missing_input(self, tmp_path):
        assert run_cli("train", "--input", str(tmp_path / "nope.csv"), "--lag", "1",
                       "--out", str(tmp_path / "m.json")) == 2

    def test_rank_zero_exit_names_delta(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        write_timeseries_csv(data, rk.TimeSeries(np.linspace(0, 1, 30)))
        code = run_cli("train", "--input", str(data), "--lag", "1",
                       "--order", "1", "--delta", "1e9",
                       "--out", str(tmp_path / "m.json"))
        assert code == 1
        assert "1e+09" in capsys.readouterr().err

    @pytest.mark.parametrize("target", [False, True], ids=["autoregressive", "target"])
    def test_overflowing_features_name_the_channel(self, tmp_path, target):
        # Degree-2 monomials of a 1e200 channel overflow; the fit used to go
        # on and fail in the SVD after a raw RuntimeWarning.
        t = np.arange(60) * 0.1
        path = tmp_path / "huge.csv"
        write_timeseries_csv(path, rk.TimeSeries(
            np.column_stack([1e200 * np.cos(0.3 * t), np.cos(0.3 * t)]),
            dt=0.1, labels=["a", "b"],
        ))
        argv = ["train", "--input", str(path), "--lag", "2", "--order", "2",
                "--out", str(tmp_path / "m.json")]
        if target:
            argv += ["--target", str(path)]
        proc = run_cli_process(*argv)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: order-2 features overflow: channel a reaches 1e+200; rescale it\n"
        )

    def test_series_near_float_maximum_trains(self, tmp_path):
        # The residual norms of a 1e160 series overflowed: two raw
        # RuntimeWarnings, then exit 2 on an inf the model file cannot hold.
        orbit = tmp_path / "chaotic.csv"
        assert run_cli("simulate", "--regime", "chaotic", "--out", str(orbit)) == 0
        series = read_timeseries_csv(orbit)
        scaled = tmp_path / "scaled.csv"
        write_timeseries_csv(scaled, rk.TimeSeries(series.values[:3000] * 1e160,
                                                   dt=series.dt, labels=series.labels))
        model_path = tmp_path / "m.json"
        proc = run_cli_process("train", "--input", str(scaled), "--lag", "2",
                               "--order", "1", "--out", str(model_path))
        assert (proc.returncode, proc.stderr) == (0, "")
        # The constant feature does not scale with the series, so the reference
        # is the same fit at 1e150, whose norms never overflowed.
        base = rk.train_autoregressive(rk.TimeSeries(series.values[:3000] * 1e150),
                                       rk.EmbeddingConfig(L=2, p=1),
                                       rk.SolverConfig(delta=1e-8))
        diagnostics = rk.load_model(model_path).diagnostics
        np.testing.assert_allclose(diagnostics.relative_residual,
                                   base.diagnostics.relative_residual, rtol=1e-9)

    @pytest.mark.parametrize("rows, channels", [(300, 3), (600, 2)], ids=["rows", "channels"])
    def test_target_shape_mismatch_is_usage_error(self, orbit_csv, tmp_path, capsys,
                                                  rows, channels):
        data = read_timeseries_csv(orbit_csv)
        target = tmp_path / "target.csv"
        write_timeseries_csv(target, rk.TimeSeries(data.values[:rows, :channels], dt=data.dt))
        model_path = tmp_path / "m.json"
        code = run_cli("train", "--input", str(orbit_csv), "--target", str(target),
                       "--lag", "1", "--out", str(model_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "600x3" in err and f"{rows}x{channels}" in err
        assert not model_path.exists()

    def test_target_split_shorter_than_lag_is_usage_error(self, orbit_csv, tmp_path, capsys):
        # --train-frac 0.005 keeps int(0.005 * 600) = 3 rows, fewer than the lag of 4.
        model_path = tmp_path / "m.json"
        code = run_cli("train", "--input", str(orbit_csv), "--target", str(orbit_csv),
                       "--lag", "4", "--train-frac", "0.005", "--out", str(model_path))
        assert code == 2
        assert capsys.readouterr().err == (
            "error: training split of 3 rows too short for lag 4\n")
        assert not model_path.exists()

    def test_paired_target(self, orbit_csv, tmp_path):
        target = tmp_path / "target.csv"
        data = read_timeseries_csv(orbit_csv)
        write_timeseries_csv(target, rk.TimeSeries(2.0 * data.values, dt=data.dt))
        code = run_cli("train", "--input", str(orbit_csv), "--target", str(target),
                       "--lag", "1", "--order", "1", "--out", str(tmp_path / "m.json"))
        assert code == 0


class TestForecast:
    @pytest.fixture()
    def trained(self, orbit_csv, tmp_path):
        model_path = tmp_path / "model.json"
        assert run_cli("train", "--input", str(orbit_csv), "--lag", "2",
                       "--order", "2", "--delta", "1e-8", "--epsilon", "1e-8",
                       "--train-frac", "0.5", "--out", str(model_path)) == 0
        return model_path

    def test_single_step_matches_transform(self, trained, orbit_csv, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        assert run_cli("forecast", "--model", str(trained), "--seed-data",
                       str(orbit_csv), "--horizon", "1", "--out", str(out)) == 0
        predicted = read_timeseries_csv(out).values[0]
        model = rk.load_model(trained)
        data = read_timeseries_csv(orbit_csv)
        window = rk.delay_embed(data, model.L, data.T)
        _, y_sel = rk.transform(model, window)
        assert np.array_equal(predicted, y_sel)

    def test_uneven_seed_times_count_steps_from_one(self, trained, orbit_csv, tmp_path):
        # A seed file whose times are not evenly spaced has no time step, so the
        # forecast's time column counts the steps.
        data = read_timeseries_csv(orbit_csv)
        seed = tmp_path / "uneven.csv"
        times = np.arange(10.0) ** 2
        write_timeseries_csv(seed, rk.TimeSeries(data.values[:10], times=times))
        out = tmp_path / "fc.csv"
        assert run_cli("forecast", "--model", str(trained), "--seed-data", str(seed),
                       "--horizon", "4", "--out", str(out)) == 0
        predicted = read_timeseries_csv(out)
        np.testing.assert_array_equal(predicted.times, [1.0, 2.0, 3.0, 4.0])
        assert predicted.dt == 1.0

    def test_zero_horizon_rejected(self, trained, orbit_csv, tmp_path):
        assert run_cli("forecast", "--model", str(trained), "--seed-data",
                       str(orbit_csv), "--horizon", "0",
                       "--out", str(tmp_path / "fc.csv")) == 2

    def test_truth_metrics_lines(self, trained, orbit_csv, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        assert run_cli("forecast", "--model", str(trained), "--seed-data",
                       str(orbit_csv), "--horizon", "5", "--truth", str(orbit_csv),
                       "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        assert "nrmse_x1=" in stdout and "nrmse_x3=" in stdout

    def test_degenerate_truth_fails_before_any_output(self, trained, orbit_csv, tmp_path,
                                                      capsys):
        # Every input is checked before the first output is written.
        data = read_timeseries_csv(orbit_csv)
        values = data.values.copy()
        values[:, 1] = 0.0
        truth = tmp_path / "truth.csv"
        write_timeseries_csv(truth, rk.TimeSeries(values, dt=data.dt, labels=data.labels))
        out = tmp_path / "fc.csv"
        capsys.readouterr()
        code = run_cli("forecast", "--model", str(trained), "--seed-data", str(orbit_csv),
                       "--horizon", "5", "--truth", str(truth), "--out", str(out))
        assert code == 1
        assert capsys.readouterr() == ("", "error: truth channel x2 is zero in all of its "
                                           "first 5 rows\n")
        assert not out.exists()

    def test_truth_zero_only_in_the_compared_rows(self, trained, orbit_csv, tmp_path, capsys):
        # The horizon's rows are all that is compared, and the error says so.
        data = read_timeseries_csv(orbit_csv)
        values = data.values.copy()
        values[:10, 1] = 0.0
        truth = tmp_path / "truth.csv"
        write_timeseries_csv(truth, rk.TimeSeries(values, dt=data.dt, labels=data.labels))
        out = tmp_path / "fc.csv"
        capsys.readouterr()
        code = run_cli("forecast", "--model", str(trained), "--seed-data", str(orbit_csv),
                       "--horizon", "10", "--truth", str(truth), "--out", str(out))
        assert code == 1
        assert capsys.readouterr() == ("", "error: truth channel x2 is zero in all of its "
                                           "first 10 rows\n")
        assert not out.exists()

    def test_blowup_reports_step(self, tmp_path, capsys):
        data = tmp_path / "double.csv"
        write_timeseries_csv(data, rk.TimeSeries(2.0 ** np.arange(24)))
        model_path = tmp_path / "m.json"
        assert run_cli("train", "--input", str(data), "--lag", "1", "--order", "1",
                       "--delta", "1e-10", "--out", str(model_path)) == 0
        code = run_cli("forecast", "--model", str(model_path), "--seed-data",
                       str(data), "--horizon", "500", "--out", str(tmp_path / "fc.csv"))
        assert code == 1
        assert "step" in capsys.readouterr().err


class TestExposure:
    @pytest.fixture()
    def panel_csvs(self, tmp_path):
        panel, _ = rk.synth_panel(18, 15, 24, seed=90, noise_level=0.0)
        remit = tmp_path / "remit.csv"
        deposits = tmp_path / "deposits.csv"
        write_timeseries_csv(
            remit, rk.TimeSeries(panel.R, labels=[f"r{j+1}" for j in range(18)])
        )
        write_timeseries_csv(
            deposits, rk.TimeSeries(panel.D, labels=[f"d{j+1}" for j in range(15)])
        )
        return remit, deposits

    def test_planted_panel_all_exposures_tiny(self, panel_csvs, tmp_path, capsys):
        remit, deposits = panel_csvs
        out = tmp_path / "report.csv"
        code = run_cli("exposure", "--remittances", str(remit), "--deposits",
                       str(deposits), "--lagged", "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "institution,exposure,rank"
        assert len(rows) == 16  # header + one row per institution
        values = [float(line.split(",")[1]) for line in rows[1:]]
        assert max(values) <= 1e-8
        assert (tmp_path / "report_adjacency.csv").exists()
        assert (tmp_path / "report_fitted.csv").exists()

    def test_panel_near_float_maximum_reports_finite_residual(self, tmp_path):
        # Its residual norm overflowed: two raw RuntimeWarnings and
        # residual_fro=inf.
        panel, _ = rk.synth_panel(18, 15, 24, seed=5, noise_level=0.05)
        exposures = []
        for scale in (1.0, 1e200):
            remit, deposits = tmp_path / "remit.csv", tmp_path / "deposits.csv"
            write_timeseries_csv(remit, rk.TimeSeries(panel.R * scale))
            write_timeseries_csv(deposits, rk.TimeSeries(panel.D * scale))
            out = tmp_path / "report.csv"
            proc = run_cli_process("exposure", "--remittances", str(remit), "--deposits",
                                   str(deposits), "--lagged", "--out", str(out))
            assert (proc.returncode, proc.stderr) == (0, "")
            report = dict(line.split("=", 1) for line in proc.stdout.splitlines())
            assert np.isfinite(float(report["residual_fro"]))
            with out.open(newline="") as handle:
                exposures.append([float(row["exposure"]) for row in csv.DictReader(handle)])
        np.testing.assert_allclose(exposures[1], exposures[0], rtol=1e-9)

    def test_two_quarter_lagged_panel_rejected(self, tmp_path):
        remit = tmp_path / "r.csv"
        deposits = tmp_path / "d.csv"
        write_timeseries_csv(remit, rk.TimeSeries(np.ones((2, 3)) + np.arange(2)[:, None]))
        write_timeseries_csv(deposits, rk.TimeSeries(np.ones((2, 2)) + np.arange(2)[:, None]))
        assert run_cli("exposure", "--remittances", str(remit), "--deposits",
                       str(deposits), "--lagged", "--out", str(tmp_path / "o.csv")) == 2

    def test_holdout_eval_range_flag(self, panel_csvs, tmp_path):
        remit, deposits = panel_csvs
        out = tmp_path / "holdout.csv"
        code = run_cli("exposure", "--remittances", str(remit), "--deposits",
                       str(deposits), "--train-frac", "0.8",
                       "--eval-range", "holdout", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 16

    def test_degenerate_channel_names_column(self, panel_csvs, tmp_path, capsys):
        remit, deposits = panel_csvs
        data = read_timeseries_csv(deposits)
        values = data.values.copy()
        values[:, 4] = 0.0
        bad = tmp_path / "bad_deposits.csv"
        write_timeseries_csv(bad, rk.TimeSeries(values, labels=data.labels))
        code = run_cli("exposure", "--remittances", str(remit), "--deposits",
                       str(bad), "--out", str(tmp_path / "o.csv"))
        assert code == 1
        assert "d5" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, zero_rows, quarters", [
        (["--eval-range", "holdout"], slice(23, 24), "24 to 24"),
        (["--eval-range", "holdout", "--lagged"], slice(23, 24), "24 to 24"),
        (["--eval-range", "all", "--lagged"], slice(1, 24), "2 to 24"),
    ], ids=["holdout", "lagged-holdout", "lagged-all"])
    def test_degenerate_channel_names_the_evaluated_quarters(self, tmp_path, capsys, flags,
                                                             zero_rows, quarters):
        # x2 is nonzero in a quarter the exposures do not compare; the error
        # used to call it identically zero.
        panel, _ = rk.synth_panel(18, 15, 24, seed=5)
        values = panel.D.copy()
        values[zero_rows, 1] = 0.0
        remit, deposits = tmp_path / "remit.csv", tmp_path / "deposits.csv"
        write_timeseries_csv(remit, rk.TimeSeries(panel.R))
        write_timeseries_csv(deposits, rk.TimeSeries(values))
        outputs = tmp_path / "outputs"
        outputs.mkdir()
        code = run_cli("exposure", "--remittances", str(remit), "--deposits", str(deposits),
                       "--train-frac", "0.95", *flags, "--out", str(outputs / "o.csv"))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: deposits channel x2 is zero in all of its evaluated quarters, {quarters}\n"
        )
        assert not list(outputs.iterdir())


class TestSuggestLag:
    def test_white_noise(self, tmp_path, capsys):
        rng = np.random.default_rng(91)
        path = tmp_path / "noise.csv"
        write_timeseries_csv(path, rk.TimeSeries(rng.standard_normal(400)))
        assert run_cli("suggest-lag", "--input", str(path)) == 0
        assert "suggested_lag=1" in capsys.readouterr().out

    def test_cosine_period_forty(self, tmp_path, capsys):
        path = tmp_path / "cos.csv"
        write_timeseries_csv(
            path, rk.TimeSeries(np.cos(2 * np.pi * np.arange(400) / 40.0))
        )
        assert run_cli("suggest-lag", "--input", str(path)) == 0
        assert "suggested_lag=8" in capsys.readouterr().out

    def test_constant_channel_warns(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        values = np.column_stack([np.full(50, 1.0), np.sin(np.arange(50.0))])
        write_timeseries_csv(path, rk.TimeSeries(values, labels=["flat", "wave"]))
        assert run_cli("suggest-lag", "--input", str(path)) == 0
        captured = capsys.readouterr()
        assert "lag_flat=1" in captured.out
        assert "warning" in captured.err and "flat" in captured.err

    def test_constant_channel_with_rounding_mean_reports_one(self, tmp_path, capsys):
        # The mean of 400 samples of 7.77 rounds; the channel was warned about
        # as constant and still reported at lag 253.
        t = np.arange(400) * 0.1
        values = np.column_stack([np.full(400, 7.77), np.cos(2 * np.pi * t / 4)])
        path = tmp_path / "const.csv"
        write_timeseries_csv(path, rk.TimeSeries(values, dt=0.1, labels=["a", "b"]))
        assert run_cli("suggest-lag", "--input", str(path)) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith("warning: channel a is constant")
        assert captured.err.count("\n") == 1
        assert captured.out.splitlines() == ["lag_a=1", "lag_b=8", "suggested_lag=8"]

    def test_channel_near_float_maximum_warns_nothing(self, tmp_path, capsys):
        # The constancy test took the channel's unscaled range, which
        # overflowed; the suite turns that RuntimeWarning into a failure.
        t = np.arange(400) * 0.1
        b = np.cos(2 * np.pi * t / 4)
        path = tmp_path / "huge.csv"
        write_timeseries_csv(path, rk.TimeSeries(np.column_stack([1.5e308 * b, b]),
                                                 dt=0.1, labels=["a", "b"]))
        assert run_cli("suggest-lag", "--input", str(path)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == ["lag_a=8", "lag_b=8", "suggested_lag=8"]

    def test_too_short(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_timeseries_csv(path, rk.TimeSeries(np.array([1.0, 2.0])))
        assert run_cli("suggest-lag", "--input", str(path)) == 2


class TestDeterminism:
    def test_simulate_bytes_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("simulate", "--regime", "periodic", "--samples", "150",
                           "--t-end", "10", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_bytes_independent_of_blas_threads(self, tmp_path):
        # The integrator does plain float arithmetic, so no BLAS call decides
        # an orbit's bits.
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"orbit_{threads}.csv"
            proc = run_cli_process("simulate", "--regime", "chaotic", "--out", str(out),
                                   OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_p2_coupling_independent_of_blas_threads(self, tmp_path):
        # The README's chaotic L=3, p=2 model: its file and train's report are
        # byte-identical at one and two OpenBLAS threads, and so are a
        # 1000-step forecast --truth from its training split and its report.
        # Its residual norms used to take a BLAS dot product, whose last
        # digits moved.
        orbit = tmp_path / "chaotic.csv"
        assert run_cli("simulate", "--regime", "chaotic", "--out", str(orbit)) == 0
        lines = orbit.read_text(encoding="utf-8").splitlines(keepends=True)
        seed, truth = tmp_path / "seed.csv", tmp_path / "truth.csv"
        seed.write_text("".join(lines[:6001]), encoding="utf-8")
        truth.write_text(lines[0] + "".join(lines[6001:7001]), encoding="utf-8")
        out, predicted = tmp_path / "model.json", tmp_path / "forecast.csv"
        runs = []
        for threads in ("1", "2"):
            train = run_cli_process("train", "--input", str(orbit), "--lag", "3",
                                    "--order", "2", "--train-frac", "0.5",
                                    "--out", str(out), OPENBLAS_NUM_THREADS=threads)
            assert train.returncode == 0, train.stderr
            fc = run_cli_process("forecast", "--model", str(out), "--seed-data", str(seed),
                                 "--horizon", "1000", "--truth", str(truth),
                                 "--out", str(predicted), OPENBLAS_NUM_THREADS=threads)
            assert fc.returncode == 0, fc.stderr
            runs.append((out.read_bytes(), train.stdout,
                         predicted.read_bytes(), fc.stdout))
        assert runs[0] == runs[1]

    def test_noisy_p2_fit_independent_of_blas_threads(self, tmp_path):
        # The README's p=2 fit of the noisy orbit (sigma 1e-4, noise seed 7) that
        # test_model's noisy held-out test rolls out: its W_hat and a 1000-step
        # rollout from a held-out window are byte-identical at 1 and 2 threads.
        script = (
            "import hashlib, numpy as np, rrckit as rk\n"
            "from testutil import noisy_orbit\n"
            "orbit = rk.integrate(rk.CHAOTIC, rk.SimulationGrid(t_end=120.0, samples=12000))\n"
            "train = rk.TimeSeries(noisy_orbit(orbit.values[:6000], 1e-4, 7))\n"
            "model = rk.train_autoregressive(train, rk.EmbeddingConfig(L=3, p=2),\n"
            "    rk.SolverConfig(delta=1e-8, epsilon=1e-8, max_iter=50))\n"
            "rollout = rk.forecast(model, rk.delay_embed(orbit, 3, 8000), 1000)\n"
            "print(hashlib.sha256(model.W_hat.tobytes() + rollout.values.tobytes()).hexdigest())\n"
        )
        paths = [str(Path(rk.__file__).resolve().parents[1]), str(Path(__file__).parent)]
        digests = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                     "PYTHONPATH": os.pathsep.join(paths)},
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout)
        assert digests[0] == digests[1]

    def test_train_and_forecast_bytes_identical(self, orbit_csv, tmp_path):
        models, forecasts = [], []
        for tag in ("a", "b"):
            model_path = tmp_path / f"model_{tag}.json"
            fc_path = tmp_path / f"fc_{tag}.csv"
            assert run_cli("train", "--input", str(orbit_csv), "--lag", "3",
                           "--order", "2", "--delta", "1e-10", "--train-frac", "0.5",
                           "--seed", "11", "--out", str(model_path)) == 0
            assert run_cli("forecast", "--model", str(model_path), "--seed-data",
                           str(orbit_csv), "--horizon", "20", "--out", str(fc_path)) == 0
            models.append(model_path.read_bytes())
            forecasts.append(fc_path.read_bytes())
        assert models[0] == models[1]
        assert forecasts[0] == forecasts[1]

    def test_exposure_bytes_identical(self, tmp_path):
        panel, _ = rk.synth_panel(8, 5, 20, seed=92, noise_level=0.02)
        remit, deposits = tmp_path / "r.csv", tmp_path / "d.csv"
        write_timeseries_csv(remit, rk.TimeSeries(panel.R))
        write_timeseries_csv(deposits, rk.TimeSeries(panel.D))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"rep_{tag}.csv"
            assert run_cli("exposure", "--remittances", str(remit), "--deposits",
                           str(deposits), "--lagged", "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _defect_csv(source, dest, line_no, edit):
    """Copy a CSV with the cells of one (1-based) line replaced by edit(cells)."""
    lines = source.read_text().splitlines()
    lines[line_no - 1] = ",".join(edit(lines[line_no - 1].split(",")))
    dest.write_text("\n".join(lines) + "\n")
    return dest


@pytest.fixture(scope="module")
def boundary_inputs(orbit_csv, tmp_path_factory):
    d = tmp_path_factory.mktemp("boundary")
    model = d / "model.json"
    assert run_cli("train", "--input", str(orbit_csv), "--lag", "2", "--order", "2",
                   "--delta", "1e-8", "--train-frac", "0.5", "--out", str(model)) == 0
    panel, _ = rk.synth_panel(6, 4, 12, seed=93, noise_level=0.0)
    write_timeseries_csv(d / "remit.csv", rk.TimeSeries(panel.R))
    write_timeseries_csv(d / "deposits.csv", rk.TimeSeries(panel.D))
    write_timeseries_csv(d / "two_quarters.csv", rk.TimeSeries(panel.D[:2]))
    (d / "a_directory").mkdir()
    model_lag3 = d / "model_lag3.json"
    assert run_cli("train", "--input", str(orbit_csv), "--lag", "3", "--order", "1",
                   "--train-frac", "0.5", "--out", str(model_lag3)) == 0
    orbit = read_timeseries_csv(orbit_csv)
    two_rows, two_channels = d / "two_rows.csv", d / "two_channels.csv"
    write_timeseries_csv(two_rows, rk.TimeSeries(orbit.values[:2], dt=orbit.dt))
    write_timeseries_csv(two_channels, rk.TimeSeries(orbit.values[:, :2], dt=orbit.dt))
    return {
        "orbit": orbit_csv,
        "model": model,
        "remit": d / "remit.csv",
        "deposits": d / "deposits.csv",
        "directory": d / "a_directory",
        "ragged": _defect_csv(orbit_csv, d / "ragged.csv", 6, lambda c: c[:-1]),
        "abc": _defect_csv(orbit_csv, d / "abc.csv", 8, lambda c: c[:2] + ["abc"] + c[3:]),
        "nan": _defect_csv(orbit_csv, d / "nan.csv", 10, lambda c: c[:3] + ["nan"]),
        "latin1": _non_utf8_csv(orbit_csv, d / "latin1.csv", 7),
        "model_lag3": model_lag3,
        "two_rows": two_rows,
        "two_channels": two_channels,
        "two_quarters": d / "two_quarters.csv",
    }


def _non_utf8_csv(source, dest, line_no):
    """Copy of source with byte 0xff (not UTF-8) leading line line_no."""
    lines = source.read_bytes().splitlines(keepends=True)
    lines[line_no - 1] = b"\xff" + lines[line_no - 1]
    dest.write_bytes(b"".join(lines))
    return dest


_TRAIN = ["train", "--input", "{orbit}", "--lag", "2"]
_FORECAST = ["forecast", "--model", "{model}", "--seed-data", "{orbit}", "--horizon", "5"]
_EXPOSURE = ["exposure", "--remittances", "{remit}", "--deposits", "{deposits}", "--lagged"]

# (case, argv, fragment of the stderr line). Every case is a usage error (exit 2);
# "{out}" is a writable path and "{missing}" a directory that does not exist.
BOUNDARY_CASES = [
    ("simulate-out-in-missing-dir",
     ["simulate", "--regime", "chaotic", "--samples", "50", "--t-end", "5",
      "--out", "{missing}/o.csv"], "No such file or directory"),
    ("train-out-in-missing-dir", _TRAIN + ["--out", "{missing}/o.json"],
     "No such file or directory"),
    ("forecast-out-in-missing-dir", _FORECAST + ["--out", "{missing}/o.csv"],
     "No such file or directory"),
    ("exposure-out-in-missing-dir", _EXPOSURE + ["--out", "{missing}/o.csv"],
     "No such file or directory"),
    ("input-is-directory", ["train", "--input", "{directory}", "--lag", "2",
                            "--out", "{out}"], "Is a directory"),
    ("model-is-directory", ["forecast", "--model", "{directory}", "--seed-data",
                            "{orbit}", "--horizon", "5", "--out", "{out}"],
     "Is a directory"),
    ("missing-truth", _FORECAST + ["--truth", "{missing}/truth.csv", "--out", "{out}"],
     "No such file or directory"),
    ("epsilon-nan", _TRAIN + ["--epsilon", "nan", "--out", "{out}"], "epsilon"),
    ("train-max-iter-zero", _TRAIN + ["--max-iter", "0", "--out", "{out}"],
     "error: max_iter must be >= 1, got 0"),
    ("exposure-max-iter-zero", _EXPOSURE + ["--max-iter", "0", "--out", "{out}"],
     "error: max_iter must be >= 1, got 0"),
    ("t-end-inf", ["simulate", "--regime", "chaotic", "--t-end", "inf", "--out", "{out}"],
     "t_end"),
    ("grid-spacing-underflows", ["simulate", "--regime", "chaotic", "--t-end", "5e-324",
                                 "--samples", "3", "--out", "{out}"], "t_end"),
    ("grid-times-overflow", ["simulate", "--regime", "chaotic", "--t-end", "1e308",
                             "--samples", "4", "--out", "{out}"], "t_end"),
    ("ic-inf", ["simulate", "--params", "3,0.1,1", "--ic", "inf,3,2", "--out", "{out}"],
     "x0 must be finite, got inf"),
    ("ic-nan", ["simulate", "--params", "3,0.1,1", "--ic", "nan,3,2", "--out", "{out}"],
     "x0 must be finite, got nan"),
    ("params-nan", ["simulate", "--params", "nan,0.1,1", "--ic", "2,3,2", "--out", "{out}"],
     "s must be finite, got nan"),
    ("ragged-row", ["train", "--input", "{ragged}", "--lag", "2", "--out", "{out}"],
     "ragged.csv:6: expected 4 fields, got 3"),
    ("non-numeric-cell", ["train", "--input", "{abc}", "--lag", "2", "--out", "{out}"],
     "abc.csv:8: could not convert string to float: 'abc'"),
    ("non-finite-cell", ["train", "--input", "{nan}", "--lag", "2", "--out", "{out}"],
     "nan.csv:10: non-finite value nan in column 'x3'"),
    ("non-utf8-input", ["suggest-lag", "--input", "{latin1}"],
     "latin1.csv:7: 'utf-8' codec can't decode byte 0xff"),
    ("seed-shorter-than-lag",
     ["forecast", "--model", "{model_lag3}", "--seed-data", "{two_rows}", "--horizon", "5",
      "--out", "{out}"], "seed data has 2 rows, model needs at least 3"),
    ("seed-channel-count",
     ["forecast", "--model", "{model}", "--seed-data", "{two_channels}", "--horizon", "5",
      "--out", "{out}"], "seed data has 2 channels, model expects 3"),
    ("truth-channel-count", _FORECAST + ["--truth", "{two_channels}", "--out", "{out}"],
     "truth has 2 channels, model expects 3"),
    ("params-without-ic", ["simulate", "--params", "3,0.1,1", "--out", "{out}"],
     "--params requires --ic"),
    ("no-regime-or-params", ["simulate", "--out", "{out}"],
     "choose --regime or give explicit --params/--ic"),
    *[(f"train-frac-{frac}", _TRAIN + ["--train-frac", frac, "--out", "{out}"],
       "--train-frac must lie in (0, 1]") for frac in ("0", "1.5", "nan")],
    ("exposure-row-counts-differ",
     ["exposure", "--remittances", "{remit}", "--deposits", "{two_quarters}",
      "--out", "{out}"], "remittances have 12 rows but deposits have 2"),
    ("exposure-adjacency-out-in-missing-dir",
     _EXPOSURE + ["--out", "{out}", "--adjacency-out", "{missing}/a.csv"],
     "No such file or directory"),
    ("exposure-fitted-out-in-missing-dir",
     _EXPOSURE + ["--out", "{out}", "--fitted-out", "{missing}/f.csv"],
     "No such file or directory"),
    # Two tables in one file would leave only the last one written.
    ("exposure-adjacency-out-is-out", _EXPOSURE + ["--out", "{out}", "--adjacency-out", "{out}"],
     "--out and --adjacency-out both name"),
    ("exposure-fitted-out-is-out",
     _EXPOSURE + ["--out", "{out}", "--fitted-out", "{missing}/../outputs/out"],
     "--out and --fitted-out both name"),
]


@pytest.mark.parametrize(
    "argv, fragment", [case[1:] for case in BOUNDARY_CASES],
    ids=[case[0] for case in BOUNDARY_CASES],
)
def test_boundary_input_fails_cleanly(boundary_inputs, tmp_path, capsys, argv, fragment):
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    paths = dict(boundary_inputs, out=outputs / "out", missing=tmp_path / "no-such-dir")
    assert run_cli(*[arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err
    assert not list(outputs.iterdir())  # a failing command writes no output file


# The integrator's tolerances and the rollout guard are fixed, so simulate and
# forecast take no flag for them: each such flag is an unknown argument.
@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--regime", "chaotic", "--samples", "50", "--t-end", "5", "--rtol", "1e-9",
      "--out", "{out}"], "--rtol"),
    (["simulate", "--regime", "chaotic", "--samples", "50", "--t-end", "5", "--atol", "1e-11",
      "--out", "{out}"], "--atol"),
    (_FORECAST + ["--guard-factor", "1e6", "--out", "{out}"], "--guard-factor"),
], ids=["rtol", "atol", "guard-factor"])
def test_removed_flags_are_usage_errors(boundary_inputs, tmp_path, capsys, argv, flag):
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    paths = dict(boundary_inputs, out=outputs / "out")
    assert run_cli(*[arg.format(**paths) for arg in argv]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"rrckit: error: unrecognized arguments: {flag} {argv[argv.index(flag) + 1]}"]
    assert not list(outputs.iterdir())


# (case, argv, the two flags the error names). "{x}" is a copy of input x in a
# fresh directory; "{data}" is that directory.
OVERWRITE_CASES = [
    ("train-out-is-input", ["train", "--input", "{orbit}", "--lag", "2", "--out", "{orbit}"],
     "--input and --out"),
    ("train-out-is-target", ["train", "--input", "{orbit}", "--target", "{target}", "--lag", "2",
                             "--out", "{target}"], "--target and --out"),
    ("forecast-out-is-model", _FORECAST + ["--out", "{model}"], "--model and --out"),
    ("forecast-out-is-seed-data", _FORECAST + ["--out", "{data}/../data/orbit.csv"],
     "--seed-data and --out"),
    ("forecast-out-is-truth", _FORECAST + ["--truth", "{target}", "--out", "{target}"],
     "--truth and --out"),
    ("exposure-out-is-remittances", _EXPOSURE + ["--out", "{remit}"], "--remittances and --out"),
    ("exposure-adjacency-out-is-deposits",
     _EXPOSURE + ["--out", "{data}/r.csv", "--adjacency-out", "{deposits}"],
     "--deposits and --adjacency-out"),
    # The default --fitted-out of --out x.csv is x_fitted.csv.
    ("exposure-default-fitted-out-is-remittances",
     ["exposure", "--remittances", "{x_fitted}", "--deposits", "{deposits}", "--out",
      "{data}/x.csv"], "--remittances and --fitted-out"),
]


@pytest.mark.parametrize(
    "argv, flags", [case[1:] for case in OVERWRITE_CASES],
    ids=[case[0] for case in OVERWRITE_CASES],
)
def test_output_naming_an_input_is_refused(boundary_inputs, tmp_path, capsys, argv, flags):
    data = tmp_path / "data"
    data.mkdir()
    sources = {"orbit": "orbit", "target": "orbit", "model": "model", "remit": "remit",
               "deposits": "deposits", "x_fitted": "remit"}
    paths = {"data": data}
    for name, source in sources.items():
        paths[name] = data / (name + boundary_inputs[source].suffix)
        paths[name].write_bytes(boundary_inputs[source].read_bytes())
    before = {f.name: hashlib.md5(f.read_bytes()).hexdigest() for f in data.iterdir()}
    assert run_cli(*[arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags} both name ") and err.count("\n") == 1
    assert {f.name: hashlib.md5(f.read_bytes()).hexdigest() for f in data.iterdir()} == before


def test_reused_parser_answers_as_a_fresh_one(tmp_path, capsys):
    """main parses with one parser per process; a usage error, --help and a
    valid command leave nothing in it that changes the next call."""
    calls = [["simulate", "--samples", "x", "--out", "o.csv"], ["--help"],
             ["simulate", "--regime", "periodic", "--samples", "200", "--t-end", "4",
              "--out", str(tmp_path / "o.csv")]]

    def outcomes(fresh):
        cli._parser.cache_clear()
        results = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            results.append((main(argv), *capsys.readouterr()))
        return results

    reused = outcomes(fresh=False)
    assert cli._parser.cache_info()[:2] == (len(calls) - 1, 1)  # hits, misses
    fresh = outcomes(fresh=True)
    assert [result[0] for result in fresh] == [2, 0, 0]
    assert reused == fresh


# numpy's MemoryError names the size; Python's own carries no message.
@pytest.mark.parametrize("message", ["Unable to allocate 745 GiB for an array", ""])
def test_failed_allocation_is_one_error_line(monkeypatch, tmp_path, capsys, message):
    """A command whose flags ask for more memory than the host has, such as
    ``simulate --samples 100000000000``, exits 1 with one line, not a traceback."""
    def allocate(*args):
        raise MemoryError(message)

    monkeypatch.setattr("rrckit.cli.integrate", allocate)
    out = tmp_path / "o.csv"
    assert run_cli("simulate", "--regime", "chaotic", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: " + (message or "allocation failed"))
    assert err.count("\n") == 1
    assert not out.exists()


class TestHelp:
    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_unknown_command_usage_error(self):
        assert run_cli("frobnicate") == 2
