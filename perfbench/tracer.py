"""Span tracer that times calls into rrckit from outside the package.

Every function named in a module's ``__all__`` (plus ``rrckit.cli.main``) is
replaced by a wrapper, in every rrckit module that holds a reference to it,
so calls between rrckit modules are traced too. ``numpy.linalg.svd`` and
``numpy.linalg.lstsq`` are wrapped as the boundary to the library. Spans are
recorded only inside an operation opened with :meth:`Tracer.operation`, kept
in memory, and turned into per-operation layer figures at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager

import numpy as np

RRCKIT_MODULES = (
    "rrckit",
    "rrckit.linalg",
    "rrckit.embedding",
    "rrckit.compression",
    "rrckit.model",
    "rrckit.finance",
    "rrckit.remittance",
    "rrckit.io",
    "rrckit.cli",
)

# Span name -> layer metric. A span name missing here falls into
# "<module>.other_s", so layer self times always add up to the op time.
LAYER_OF = {
    "finance.integrate": "finance.integrate_s",
    "finance.integrate_ode": "finance.integrate_s",
    "finance.financial_rhs": "finance.integrate_s",
    "finance.uniform_grid": "finance.integrate_s",
    "finance.rk45_fixed": "finance.integrate_s",
    "io.read_timeseries_csv": "io.read_csv_s",
    "io.write_timeseries_csv": "io.write_csv_s",
    "io.write_table_csv": "io.write_csv_s",
    "io.format_float": "io.write_csv_s",
    "embedding.build_data_matrices": "embedding.build_data_matrices_s",
    "embedding.eth_map": "embedding.eth_map_s",
    "embedding.kron_power": "embedding.eth_map_s",
    "embedding.suggest_lag": "embedding.suggest_lag_s",
    "embedding.autocorrelation": "embedding.suggest_lag_s",
    "compression.compression_matrix": "compression.compression_matrix_s",
    "compression.compression_matrix_exact": "compression.compression_matrix_s",
    "compression.compress": "compression.compress_s",
    "compression.decompress": "compression.compress_s",
    "numpy.linalg.svd": "linalg.svd_s",
    "numpy.linalg.lstsq": "linalg.lstsq_s",
    "linalg.sparse_lstsq": "linalg.sparse_lstsq_s",
    "linalg.rank_delta": "linalg.sparse_lstsq_s",
    "linalg.truncated_projector": "linalg.sparse_lstsq_s",
    "linalg.heaviside_delta": "linalg.sparse_lstsq_s",
    "model.train_rrc": "model.train_rrc_s",
    "model.train_autoregressive": "model.train_rrc_s",
    "model.selector_matrix": "model.train_rrc_s",
    "model.forecast": "model.forecast_s",
    "model.transform": "model.transform_s",
    "model.save_model": "model.save_model_s",
    "model.load_model": "model.load_model_s",
    "remittance.fit_lagged": "remittance.fit_s",
    "remittance.fit_nonlagged": "remittance.fit_s",
    "remittance.predict": "remittance.fit_s",
    "remittance.exposure": "remittance.exposure_s",
    "remittance.rank_exposures": "remittance.rank_exposures_s",
    "cli.main": "cli.main_s",
}

# Calls counted per operation.
COUNTED = {
    "numpy.linalg.svd": "linalg.svd_calls",
    "numpy.linalg.lstsq": "linalg.lstsq_calls",
    "compression.compress": "compression.compress_calls",
    "model.transform": "model.transform_calls",
}


def _file_size(path) -> int:
    return os.path.getsize(os.fspath(path))


# Span name -> function(args, result) giving {counter: amount}; counters
# sum over an operation. Ratios are formed from these sums.
def _probe_compress(args, result):
    return {"rows_in": args[1].shape[0], "rows_out": result.shape[0]}


def _probe_sparse_lstsq(args, result):
    cap = args[2].max_iter
    return {
        "columns": len(result.iterations_per_column),
        "converged": sum(k < cap for k in result.iterations_per_column),
    }


PROBES = {
    "compression.compress": _probe_compress,
    "linalg.sparse_lstsq": _probe_sparse_lstsq,
    "embedding.build_data_matrices": lambda a, r: {"embedding.feature_bytes": r.H0.nbytes},
    "io.read_timeseries_csv": lambda a, r: {"io.csv_bytes": _file_size(a[0])},
    "io.write_timeseries_csv": lambda a, r: {"io.csv_bytes": _file_size(a[0])},
    "io.write_table_csv": lambda a, r: {"io.csv_bytes": _file_size(a[0])},
    "model.save_model": lambda a, r: {"model.json_bytes": _file_size(a[1])},
    "model.load_model": lambda a, r: {"model.json_bytes": _file_size(a[0])},
}

TIME_METRICS = sorted(set(LAYER_OF.values()) | {"embedding.other_s"})
COUNT_METRICS = sorted(COUNTED.values()) + [
    "io.csv_bytes",
    "embedding.feature_bytes",
    "model.json_bytes",
]
SHARE_METRICS = ["compression.useful_row_share", "linalg.converged_share"]


class Tracer:
    """Collects spans (name, start, end, parent, operation) in memory."""

    def __init__(self):
        self.names: list[str] = ["op"]
        self.spans: list[list] = []   # [name_id, start, end, parent, op, info]
        self.stack: list[int] = []
        self.op_index = -1
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] | None = None   # id(original) -> wrapper
        self._numpy: dict[str, object] = {}

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap the traced functions everywhere rrckit refers to them."""
        modules = [importlib.import_module(name) for name in RRCKIT_MODULES]
        if self._wrappers is None:
            self._wrappers = {}
            for module in modules[1:]:
                short = module.__name__.split(".", 1)[1]
                names = ["main"] if short == "cli" else list(module.__all__)
                for name in names:
                    fn = getattr(module, name)
                    if inspect.isfunction(fn) and id(fn) not in self._wrappers:
                        self._wrappers[id(fn)] = self._wrap(fn, f"{short}.{name}")
            for name in ("svd", "lstsq"):
                self._numpy[name] = self._wrap(
                    getattr(np.linalg, name), f"numpy.linalg.{name}")
        wrappers = self._wrappers
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        for name, wrapper in self._numpy.items():
            self._patch(np.linalg, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside an operation: benchmark checks, set-up
                return fn(*args, **kwargs)
            record = [name_id, clock(), 0.0, stack[-1], self.op_index, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if probe is not None:
                record[5] = probe(args, result)
            return result

        return wrapper

    # -- operations ---------------------------------------------------
    @contextmanager
    def operation(self):
        """Open the root span of one timed operation."""
        self.op_index += 1
        record = [0, 0.0, 0.0, -1, self.op_index, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    # -- results ------------------------------------------------------
    def per_operation(self) -> list[dict[str, float]]:
        """Layer self times, counts and counters of each operation."""
        n_ops = self.op_index + 1
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        ops = [dict() for _ in range(n_ops)]
        for idx, (name_id, start, end, _parent, op, info) in enumerate(self.spans):
            stats = ops[op]
            self_time = end - start - child_time[idx]
            name = self.names[name_id]
            if name == "op":
                stats["trace.op_s"] = end - start
                stats["trace.unattributed_s"] = self_time
                continue
            stats["trace.spans"] = stats.get("trace.spans", 0) + 1
            layer = LAYER_OF.get(name, name.split(".")[0] + ".other_s")
            stats[layer] = stats.get(layer, 0.0) + self_time
            stats["trace.layers_s"] = stats.get("trace.layers_s", 0.0) + self_time
            if name in COUNTED:
                stats[COUNTED[name]] = stats.get(COUNTED[name], 0) + 1
            for key, amount in (info or {}).items():
                stats[key] = stats.get(key, 0) + amount
        for stats in ops:
            stats["compression.useful_row_share"] = _ratio(
                stats.get("rows_out", 0), stats.get("rows_in", 0)
            )
            stats["linalg.converged_share"] = _ratio(
                stats.get("converged", 0), stats.get("columns", 0)
            )
        return ops

    def save(self, path) -> None:
        """Write every span as columns of a compressed .npz file."""
        spans = self.spans
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array([s[0] for s in spans], dtype=np.int32),
            start=np.array([s[1] for s in spans]),
            end=np.array([s[2] for s in spans]),
            parent=np.array([s[3] for s in spans], dtype=np.int64),
            op=np.array([s[4] for s in spans], dtype=np.int32),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ops: list[dict[str, float]]) -> dict[str, float]:
    """Per-operation medians of every layer metric (0 where never called)."""
    keys = TIME_METRICS + COUNT_METRICS + SHARE_METRICS + [
        "trace.op_s", "trace.layers_s", "trace.unattributed_s", "trace.spans"
    ]
    return {
        key: float(np.median([stats.get(key, 0.0) for stats in ops])) for key in keys
    }
