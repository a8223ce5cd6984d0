"""Command-line front end: simulate, train, forecast, exposure, suggest-lag.

Exit codes: 0 success, 1 runtime or numeric failure (``RRCError``, or a
``MemoryError`` from an allocation the flags ask for), 2 usage
error (``ValueError`` or ``OSError``: a rejected flag value, a missing,
unreadable or unwritable path, a malformed CSV). Inputs are validated by the
library types that own them; :func:`main` is the one place that turns an
exception into an exit code. All diagnostics print as key=value lines on
stdout; errors go to stderr. Every command is deterministic given its flags
and seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .embedding import (
    EmbeddingConfig,
    TimeSeries,
    delay_embed,
    feature_dim,
    suggest_lag,
)
from .errors import DegenerateChannelError, RRCError
from .finance import CHAOTIC, PERIODIC, FinancialParams, SimulationGrid, integrate
from .io import read_timeseries_csv, write_table_csv, write_timeseries_csv
from .linalg import SolverConfig
from .model import forecast, load_model, save_model, train_autoregressive, train_rrc
from .remittance import (
    RemittancePanel,
    exposure as exposure_measure,
    fit_lagged,
    fit_nonlagged,
    rank_exposures,
)

USAGE_ERROR = 2
RUNTIME_ERROR = 1


def _parse_triple(text: str, name: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"{name} expects three comma-separated values, got {text!r}")
    return tuple(float(v) for v in parts)  # type: ignore[return-value]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rrckit",
        description="Sparse regressive reservoir computers for dynamic financial time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate the financial model to CSV")
    sim.add_argument("--regime", choices=["chaotic", "periodic"])
    sim.add_argument("--params", help="s,c,e (overrides --regime)")
    sim.add_argument("--ic", help="x0,y0,z0 initial conditions (with --params)")
    sim.add_argument("--samples", type=int, default=12000)
    sim.add_argument("--t-end", type=float, default=120.0)
    sim.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="identify a model from CSV data")
    tr.add_argument("--input", required=True)
    tr.add_argument("--target", help="target CSV; absent means one-step-ahead targets")
    tr.add_argument("--lag", type=int, required=True)
    tr.add_argument("--order", type=int, default=2)
    tr.add_argument("--delta", type=float, default=1e-8)
    tr.add_argument("--epsilon", type=float, default=1e-8)
    tr.add_argument("--max-iter", type=int, default=50)
    tr.add_argument("--train-frac", type=float, default=1.0)
    tr.add_argument(
        "--seed", type=int, default=0,
        help="seed (>= 0), recorded in the model file; does not affect the fit",
    )
    tr.add_argument("--out", required=True)

    fc = sub.add_parser("forecast", help="roll a trained model forward, feeding each "
                        "prediction back as the next sample (a --target model too)")
    fc.add_argument("--model", required=True)
    fc.add_argument("--seed-data", required=True)
    fc.add_argument("--horizon", type=int, required=True)
    fc.add_argument("--truth", help="validation CSV for per-channel NRMSE")
    fc.add_argument("--out", required=True)

    ex = sub.add_parser("exposure", help="fit deposits on remittances and rank exposures")
    ex.add_argument("--remittances", required=True)
    ex.add_argument("--deposits", required=True)
    ex.add_argument("--lagged", action="store_true")
    ex.add_argument("--train-frac", type=float, default=0.95)
    ex.add_argument("--eval-range", choices=["all", "holdout"], default="all")
    ex.add_argument("--delta", type=float, default=1e-10)
    ex.add_argument("--epsilon", type=float, default=1e-4)
    ex.add_argument("--max-iter", type=int, default=100)
    ex.add_argument("--out", required=True)
    ex.add_argument("--adjacency-out")
    ex.add_argument("--fitted-out")

    sl = sub.add_parser("suggest-lag", help="autocorrelation-based lag suggestion")
    sl.add_argument("--input", required=True)

    return parser


_INPUT_FLAGS = ("--input", "--target", "--model", "--seed-data", "--truth", "--remittances",
                "--deposits")


def _check_outputs(args, outputs: dict[str, str]) -> None:
    """Raise ValueError naming both flags if an output path, after os.path.realpath,
    names one of the command's inputs or another of its outputs: writing it
    would destroy that file's contents."""
    flag_of: dict[str, str] = {}
    for flag in _INPUT_FLAGS:
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if path is not None:
            flag_of.setdefault(os.path.realpath(path), flag)
    for flag, path in outputs.items():
        first = flag_of.setdefault(os.path.realpath(path), flag)
        if first != flag:
            raise ValueError(f"{first} and {flag} both name {path}; "
                             "an output needs a file of its own")


def cmd_simulate(args) -> int:
    if args.params is not None:
        if args.ic is None:
            raise ValueError("--params requires --ic")
        s, c, e = _parse_triple(args.params, "--params")
        x0, y0, z0 = _parse_triple(args.ic, "--ic")
        params = FinancialParams(s=s, c=c, e=e, x0=x0, y0=y0, z0=z0)
    elif args.regime == "chaotic":
        params = CHAOTIC
    elif args.regime == "periodic":
        params = PERIODIC
    else:
        raise ValueError("choose --regime or give explicit --params/--ic")
    grid = SimulationGrid(t_end=args.t_end, samples=args.samples)
    series = integrate(params, grid)
    write_timeseries_csv(args.out, series)
    print(f"rows={series.T}")
    print(f"out={args.out}")
    return 0


def cmd_train(args) -> int:
    _check_outputs(args, {"--out": args.out})
    if not 0.0 < args.train_frac <= 1.0:
        raise ValueError("--train-frac must lie in (0, 1]")
    cfg = EmbeddingConfig(L=args.lag, p=args.order)
    solver = SolverConfig(
        delta=args.delta, max_iter=args.max_iter, epsilon=args.epsilon
    )

    data = read_timeseries_csv(args.input)
    n_train = max(1, int(args.train_frac * data.T))
    x = TimeSeries(data.values[:n_train], dt=data.dt, labels=data.labels)
    if args.target is None:
        model = train_autoregressive(x, cfg, solver, seed=args.seed)
    else:
        target = read_timeseries_csv(args.target)
        if target.values.shape != data.values.shape:
            raise ValueError(
                f"input is {data.T}x{data.n} (rows x channels) but target is "
                f"{target.T}x{target.n}"
            )
        if n_train < args.lag:
            raise ValueError(
                f"training split of {n_train} rows too short for lag {args.lag}"
            )
        y = TimeSeries(target.values[:n_train], dt=target.dt, labels=target.labels)
        model = train_rrc(x, y, cfg, solver, seed=args.seed)

    save_model(model, args.out)
    diag = model.diagnostics
    print(f"rows={n_train}")
    print(f"channels={model.n}")
    print(f"features={feature_dim(model.n * model.L, model.p)}")
    print(f"compressed_features={model.W_hat.shape[1]}")
    print(f"rank={diag.rank}")
    print(f"nnz={diag.nnz}")
    print(f"residual_fro={diag.residual_fro:.17g}")
    print(f"relative_residual={diag.relative_residual:.17g}")
    print(f"seed={diag.seed}")
    print(f"out={args.out}")
    return 0


def cmd_forecast(args) -> int:
    _check_outputs(args, {"--out": args.out})
    model = load_model(args.model)
    seed_data = read_timeseries_csv(args.seed_data)
    if seed_data.T < model.L:
        raise ValueError(
            f"seed data has {seed_data.T} rows, model needs at least {model.L}"
        )
    if seed_data.n != model.n:
        raise ValueError(
            f"seed data has {seed_data.n} channels, model expects {model.n}"
        )
    truth = read_timeseries_csv(args.truth) if args.truth else None
    if truth is not None and truth.n != model.n:
        raise ValueError(f"truth has {truth.n} channels, model expects {model.n}")
    window = delay_embed(seed_data, model.L, seed_data.T)
    predicted = forecast(model, window, args.horizon)
    if truth is not None:
        steps = min(args.horizon, truth.T)
        try:
            nrmse = exposure_measure(truth.values[:steps], predicted.values[:steps])
        except DegenerateChannelError as exc:
            raise RRCError(
                f"truth channel {truth.labels[exc.channel]} is zero in all of its "
                f"first {steps} rows"
            ) from exc

    if seed_data.dt is not None:
        t0 = float(seed_data.times[-1])
        times = t0 + (np.arange(args.horizon) + 1) * seed_data.dt
    else:
        times = (np.arange(args.horizon) + 1).astype(float)
    out_series = TimeSeries(
        predicted.values, dt=seed_data.dt, labels=seed_data.labels, times=times
    )
    write_timeseries_csv(args.out, out_series)
    print(f"steps={args.horizon}")
    print(f"out={args.out}")

    if truth is not None:
        for label, value in zip(truth.labels, nrmse):
            print(f"nrmse_{label}={value:.17g}")
    return 0


def cmd_exposure(args) -> int:
    out = Path(args.out)
    tables = {
        "--out": args.out,
        "--adjacency-out": args.adjacency_out or str(out.with_name(out.stem + "_adjacency.csv")),
        "--fitted-out": args.fitted_out or str(out.with_name(out.stem + "_fitted.csv")),
    }
    _check_outputs(args, tables)
    adjacency_path, fitted_path = tables["--adjacency-out"], tables["--fitted-out"]

    remit = read_timeseries_csv(args.remittances)
    deposits = read_timeseries_csv(args.deposits)
    if remit.T != deposits.T:
        raise ValueError(
            f"remittances have {remit.T} rows but deposits have {deposits.T}"
        )
    panel = RemittancePanel(R=remit.values, D=deposits.values)
    solver = SolverConfig(
        delta=args.delta, max_iter=args.max_iter, epsilon=args.epsilon
    )
    fit = fit_lagged if args.lagged else fit_nonlagged
    try:
        model, report = fit(
            panel, solver, train_fraction=args.train_frac, eval_range=args.eval_range
        )
    except DegenerateChannelError as exc:
        raise RRCError(f"deposits channel {deposits.labels[exc.channel]} is zero in all of its "
                       f"evaluated quarters, {exc.first} to {panel.quarters}") from exc

    ranking = rank_exposures(report, k=panel.institutions)
    rank_of = {inst: pos + 1 for pos, (inst, _) in enumerate(ranking)}
    report_rows = [
        [j + 1, float(report.exposures[j]), rank_of[j + 1]]
        for j in range(panel.institutions)
    ]

    adjacency_rows = [
        [int(i) + 1, model.terms[int(j)], float(model.M[i, j])]
        for i, j in zip(*np.nonzero(model.M))
    ]

    fitted_header = (
        ["quarter"]
        + [f"obs_{label}" for label in deposits.labels]
        + [f"fit_{label}" for label in deposits.labels]
    )
    start = report.eval_start
    fitted_rows = [
        [start + k + 1, *map(float, deposits.values[start + k]), *map(float, row)]
        for k, row in enumerate(report.fitted)
    ]

    # All three tables or none: a failed write removes the ones written before it.
    written = []
    try:
        for path, header, rows in [
            (args.out, ["institution", "exposure", "rank"], report_rows),
            (adjacency_path, ["institution", "source", "weight"], adjacency_rows),
            (fitted_path, fitted_header, fitted_rows),
        ]:
            write_table_csv(path, header, rows)
            written.append(path)
    except OSError:
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise

    print(f"model={model.kind}")
    print(f"rank={model.rank}")
    print(f"nnz={model.nnz}")
    print(f"residual_fro={model.residual_fro:.17g}")
    for inst, value in ranking[: min(4, len(ranking))]:
        print(f"top_exposure_{inst}={value:.17g}")
    print(f"out={args.out}")
    print(f"adjacency_out={adjacency_path}")
    print(f"fitted_out={fitted_path}")
    return 0


def cmd_suggest_lag(args) -> int:
    data = read_timeseries_csv(args.input)
    lags, suggestion, constant = suggest_lag(data)
    for j, (label, lag) in enumerate(zip(data.labels, lags)):
        if j in constant:
            print(
                f"warning: channel {label} is constant; autocorrelation undefined, "
                f"reporting lag 1",
                file=sys.stderr,
            )
        print(f"lag_{label}={lag}")
    print(f"suggested_lag={suggestion}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "forecast": cmd_forecast,
    "exposure": cmd_exposure,
    "suggest-lag": cmd_suggest_lag,
}


# One parser per process: parsing leaves no state in it.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except RRCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return RUNTIME_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
