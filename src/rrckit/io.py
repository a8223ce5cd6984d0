"""Delimited-text formats: time-series CSV and small report tables.

Time-series CSV: UTF-8, one header line (``t`` plus channel labels), one row
per sample, first column the time index. Values print with up to 17
significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .embedding import TimeSeries

__all__ = [
    "format_float",
    "write_timeseries_csv",
    "read_timeseries_csv",
    "write_table_csv",
]


def format_float(value: float) -> str:
    return f"{float(value):.17g}"


def _default_times(ts: TimeSeries) -> np.ndarray:
    if ts.times is not None:
        return ts.times
    if ts.dt is not None:
        return np.arange(ts.T) * ts.dt
    return np.arange(ts.T, dtype=float)


def write_timeseries_csv(path: str | Path, ts: TimeSeries) -> None:
    labels = ts.labels if ts.labels is not None else [f"x{j+1}" for j in range(ts.n)]
    times = _default_times(ts)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t"] + list(labels))
        for k in range(ts.T):
            writer.writerow(
                [format_float(times[k])] + [format_float(v) for v in ts.values[k]]
            )


def read_timeseries_csv(path: str | Path) -> TimeSeries:
    """Read a time-series CSV; blank lines are skipped.

    Raises ``ValueError`` naming ``path:line`` for a row whose field count
    differs from the header's, a cell that does not parse as a float, and a
    non-finite cell.
    """
    with Path(path).open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValueError(f"{path}: expected a header with a time column and data")
        labels = [name.strip() for name in header[1:]]
        line_numbers, rows = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{reader.line_num}: expected {len(header)} fields, "
                    f"got {len(row)}"
                )
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            line_numbers.append(reader.line_num)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.array(rows)
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        k, j = bad[0]
        raise ValueError(
            f"{path}:{line_numbers[k]}: non-finite value {table[k, j]} in column {header[j]!r}"
        )
    times_arr = np.ascontiguousarray(table[:, 0])
    values = np.ascontiguousarray(table[:, 1:])
    dt = None
    if len(rows) > 1:
        diffs = np.diff(times_arr)
        if np.allclose(diffs, diffs[0], rtol=1e-9, atol=0.0):
            dt = float((times_arr[-1] - times_arr[0]) / (len(rows) - 1))
    return TimeSeries(values, dt=dt, labels=labels, times=times_arr)


def write_table_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Small report table; floats take the 17-significant-digit form."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format_float(v) if isinstance(v, float) else v for v in row]
            )
