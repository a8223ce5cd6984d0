"""Self-test of the benchmark's checks.

Runs one operation of each workload with its checks on, then shows that each
check rejects a corrupted output. Run from the repository root with

    python3 -m pytest perfbench/selftest.py -q

(The file is not named ``test_*.py``, so the repository's own test run does
not collect it.)
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from workloads import CheckError, WORKLOADS  # noqa: E402


def one_op(name, **sizes):
    """A prepared workload with a single item, and its checked output."""
    workload = WORKLOADS[name](seed=3)
    for attr, value in sizes.items():
        setattr(workload, attr, value)
    workload.prepare()
    output = workload.run(workload.items[0])
    workload.check(0, output)
    return workload, output


@pytest.fixture(scope="module")
def identify():
    return one_op("identify_p3", segments=1)


@pytest.fixture(scope="module")
def cli():
    workload, output = one_op("cli_pipeline")
    yield workload, output
    workload.close()


def rejects(workload, item, output, match):
    with pytest.raises(CheckError, match=match):
        workload.full_check(item, output)


def with_w_hat(model, W_hat):
    out = copy.copy(model)
    out.W_hat = W_hat
    return out


def test_identify_rejects_perturbed_w_hat(identify):
    workload, model = identify
    W = model.W_hat.copy()
    i, j = np.argwhere(W != 0)[0]
    W[i, j] += 1e-3
    rejects(workload, workload.items[0], with_w_hat(model, W), "certificate bound")


def test_identify_rejects_support_above_rank(identify):
    workload, model = identify
    W = model.W_hat.copy()
    W[0, W[0] == 0] = 1e-300
    rejects(workload, workload.items[0], with_w_hat(model, W), "above the rank")


def test_identify_rejects_wrong_relative_residual(identify):
    workload, model = identify
    bad = copy.copy(model)
    bad.diagnostics = dataclasses.replace(
        model.diagnostics, relative_residual=2 * model.diagnostics.relative_residual)
    rejects(workload, workload.items[0], bad, "relative residual")


def test_identify_later_output_must_equal_first(identify):
    workload, model = identify
    W = model.W_hat.copy()
    W[0, 0] = np.nextafter(W[0, 0], np.inf)
    with pytest.raises(CheckError, match="differs from its checked first output"):
        workload.check(0, with_w_hat(model, W))


@pytest.fixture
def cli_copy(cli, tmp_path):
    workload, run = cli
    target = tmp_path / "copy"
    shutil.copytree(workload.items[0], target)
    return workload, copy.deepcopy(run), target


def test_cli_rejects_wrong_lag(cli_copy):
    workload, run, d = cli_copy
    lag = int(dict(l.split("=") for l in run.stdout["suggest-lag"].split())["suggested_lag"])
    run.stdout["suggest-lag"] = run.stdout["suggest-lag"].replace(
        f"suggested_lag={lag}", f"suggested_lag={lag + 1}")
    rejects(workload, d, run, "suggested lag")


def test_cli_rejects_failed_command(cli_copy):
    workload, run, d = cli_copy
    run.codes["train"] = 1
    rejects(workload, d, run, "exited with 1")


def test_cli_rejects_residual_above_bound(cli_copy):
    workload, run, d = cli_copy
    path = d / "model.json"
    doc = json.loads(path.read_text())
    diag = doc["diagnostics"]
    diag["column_residuals"][0] = 2 * diag["column_bounds"][0]
    path.write_text(json.dumps(doc))
    rejects(workload, d, run, "exceeds its bound")


def test_cli_rejects_wrong_printed_nrmse(cli_copy):
    workload, run, d = cli_copy
    lines = run.stdout["forecast"].splitlines()
    run.stdout["forecast"] = "\n".join(
        f"{l.split('=')[0]}={2 * float(l.split('=')[1])!r}" if l.startswith("nrmse_x2") else l
        for l in lines)
    rejects(workload, d, run, "printed nrmse_x2")


def test_cli_rejects_orbit_off_rk4(cli_copy):
    workload, run, d = cli_copy
    path = d / "orbit.csv"
    lines = path.read_text().splitlines()
    t, x1, x2, x3 = lines[10].split(",")
    lines[10] = ",".join([t, repr(float(x1) + 1e-5), x2, x3])
    path.write_text("\n".join(lines) + "\n")
    rejects(workload, d, run, "differs from RK4")


def edit_forecast(d, rows, delta):
    path = d / "forecast.csv"
    lines = path.read_text().splitlines()
    for k in rows:
        t, *xs = lines[1 + k].split(",")
        lines[1 + k] = ",".join([t] + [repr(float(x) + delta) for x in xs])
    path.write_text("\n".join(lines) + "\n")


def test_cli_rejects_early_forecast_error(cli_copy):
    workload, run, d = cli_copy
    edit_forecast(d, range(20), 1e-4)
    rejects(workload, d, run, "20-step NRMSE")


def test_cli_rejects_forecast_leaving_training_range(cli_copy):
    workload, run, d = cli_copy
    edit_forecast(d, [500], 100.0)
    rejects(workload, d, run, "training range")


def test_cli_rejects_shuffled_ranking(cli_copy):
    workload, run, d = cli_copy
    path = d / "report.csv"
    lines = path.read_text().splitlines()
    first, second = (lines[k].rsplit(",", 1) for k in (1, 2))
    lines[1], lines[2] = f"{first[0]},{second[1]}", f"{second[0]},{first[1]}"
    path.write_text("\n".join(lines) + "\n")
    rejects(workload, d, run, "ranking is not descending")


def test_cli_rejects_wrong_exposure(cli_copy):
    workload, run, d = cli_copy
    path = d / "report.csv"
    lines = path.read_text().splitlines()
    inst, value, rank = lines[1].split(",")
    lines[1] = ",".join([inst, repr(float(value) * (1 + 1e-6)), rank])
    path.write_text("\n".join(lines) + "\n")
    rejects(workload, d, run, "differs from the formula")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
