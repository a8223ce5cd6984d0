#!/usr/bin/env python3
"""Benchmark of rrckit: one workload per process, metrics as JSON.

Usage (from the repository root):

    python3 perfbench/run.py --workload identify_p3 --seed 1 --seconds 60 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see README.md). Results and traces go to ``perfbench/out/``.
Exit codes: 0 success, 1 a check failed, 2 usage or environment error.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS thread, pinned before numpy loads: with two threads the same fit
# takes different solver paths and the thread pool start lands in a timing.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("identify_p3", "cli_pipeline")
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="rrckit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def measure(workload, seconds, tracer=None):
    """Whole rounds over the workload's items for about ``seconds`` of op time.

    A further round starts only if it is expected to fit in ``seconds``;
    at least one round runs. With a tracer, every round runs twice, first
    untraced and then traced, so that both see the same host conditions.
    Returns (untraced op durations, traced op durations, attempted, failed).
    """
    from rrckit import RRCError

    durations = {None: [], tracer: []}
    attempted, failed, busy = 0, 0, 0.0
    while True:
        round_start = busy
        for active in (None, tracer) if tracer else (None,):
            if active:
                active.install()
            outputs = []
            try:
                for index, item in enumerate(workload.items):
                    attempted += 1
                    t0 = time.perf_counter()
                    try:
                        with active.operation() if active else nullcontext():
                            outputs.append((index, workload.run(item)))
                        durations[active].append(time.perf_counter() - t0)
                    except (RRCError, ValueError) as exc:
                        failed += 1
                        print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                    busy += time.perf_counter() - t0
            finally:
                if active:
                    active.uninstall()
            # Checks run after the round so their work stays out of the ops' caches.
            for index, output in outputs:
                workload.check(index, output)
        if busy + (busy - round_start) > seconds:
            return durations[None], durations[tracer], attempted, failed


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def run(args) -> dict:
    """Set up, measure and check one workload; raises CheckError on a failed check."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy  # noqa: F401
    import rrckit  # noqa: F401

    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    workload = WORKLOADS[args.workload](args.seed)
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.prepare()
            warmup = workload.run(workload.items[0])
            setups.append(time.perf_counter() - t0)
            workload.check(0, warmup)
        setup_s = import_s + statistics.median(setups)

        if not args.trace:
            durations, _, attempted, failed = measure(workload, args.seconds)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (len(durations) / sum(durations), "1/s"),
                "op_s_p50": (statistics.median(durations), "s"),
                "op_s_p75": (percentile(durations, 75), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
            extra = {"durations": durations, "setups_s": setups, "import_s": import_s}
        else:
            metrics, attempted, failed, extra = traced(workload, args)
    finally:
        workload.close()
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
    }


def traced(workload, args):
    """Rounds alternately untraced and traced; layer metrics from the traced ones."""
    from tracer import COUNT_METRICS, SHARE_METRICS, Tracer, layer_metrics

    tracer = Tracer()
    plain, traced_durations, attempted, failed = measure(workload, args.seconds, tracer)
    layers = layer_metrics(tracer.per_operation())
    untraced = statistics.median(plain)
    layers["trace.untraced_op_s"] = untraced
    layers["trace.overhead_share"] = (layers["trace.op_s"] - untraced) / untraced

    def unit(key):
        if key in SHARE_METRICS or key == "trace.overhead_share":
            return "share"
        if key in COUNT_METRICS or key == "trace.spans":
            return "bytes" if key.endswith("_bytes") else "count"
        return "s"

    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"trace_{args.workload}_s{args.seed}.npz")
    metrics = {k: (v, unit(k)) for k, v in sorted(layers.items())}
    extra = {"durations": plain, "traced_durations": traced_durations}
    return metrics, attempted, failed, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rrckit" / "__init__.py").is_file():
        print(f"error: rrckit sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except AssertionError as exc:  # workloads.CheckError
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    import numpy

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        **result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
