"""Delimited-text formats: time-series CSV and small report tables.

Time-series CSV: UTF-8, one header line (``t`` plus channel labels), one row
per sample, first column the time index. Values print with up to 17
significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import numpy as np

from .embedding import TimeSeries

__all__ = [
    "write_timeseries_csv",
    "read_timeseries_csv",
    "write_table_csv",
]


def _default_times(ts: TimeSeries) -> np.ndarray:
    if ts.times is not None:
        return ts.times
    if ts.dt is not None:
        return np.arange(ts.T) * ts.dt
    return np.arange(ts.T, dtype=float)


# Rows formatted per block, so memory stays flat in the series length.
_WRITE_BLOCK_ROWS = 1024


def write_timeseries_csv(path: str | Path, ts: TimeSeries) -> None:
    labels = ts.labels if ts.labels is not None else [f"x{j+1}" for j in range(ts.n)]
    times = _default_times(ts)
    # csv.writer's default dialect: comma-separated, CRLF line ends; the
    # 17-significant-digit cells never need quoting.
    row_format = ",".join(["%.17g"] * (ts.n + 1)) + "\r\n"
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(["t"] + list(labels))
        for start in range(0, ts.T, _WRITE_BLOCK_ROWS):
            stop = start + _WRITE_BLOCK_ROWS
            block = np.column_stack((times[start:stop], ts.values[start:stop]))
            handle.writelines(row_format % tuple(row) for row in block.tolist())


def read_timeseries_csv(path: str | Path) -> TimeSeries:
    """Read a time-series CSV; blank lines are skipped.

    Raises ``ValueError`` naming ``path:line`` for a byte sequence that is not
    UTF-8, a row whose field count differs from the header's, a cell that
    does not parse as a float, and a non-finite cell.
    """
    try:
        with Path(path).open("r", newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle), None)
            if header is None or len(header) < 2:
                raise ValueError(
                    f"{path}: expected a header with a time column and data"
                )
            table = _parse_rows(handle, len(header))
            if table is None:
                raise _row_error(path, header)
    except UnicodeDecodeError:
        raise _not_utf8_error(path) from None
    labels = [name.strip() for name in header[1:]]
    times_arr = np.ascontiguousarray(table[:, 0])
    values = np.ascontiguousarray(table[:, 1:])
    dt = None
    if len(table) > 1:
        diffs = np.diff(times_arr)
        if np.allclose(diffs, diffs[0], rtol=1e-9, atol=0.0):
            dt = float((times_arr[-1] - times_arr[0]) / (len(table) - 1))
    return TimeSeries(values, dt=dt, labels=labels, times=times_arr)


def _parse_rows(handle, fields: int) -> np.ndarray | None:
    """The rows after the header as one finite (rows, fields) table, else None."""
    with warnings.catch_warnings():
        # An empty body is reported by :func:`_row_error`, with the path.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            table = np.loadtxt(
                handle, delimiter=",", comments=None, quotechar='"', ndmin=2
            )
        except UnicodeDecodeError:
            raise
        except ValueError:
            return None
    if table.shape[0] and table.shape[1] == fields and np.all(np.isfinite(table)):
        return table
    return None


def _row_error(path: str | Path, header: list[str]) -> ValueError:
    """The error for rows :func:`_parse_rows` rejected or that hold a non-finite cell.

    Re-reads the rows with ``csv`` to name the line: the first row of the
    wrong length or with a cell :func:`_cell` rejects, else the first
    non-finite cell. This runs only on the failure path.
    """
    rows, line_numbers = [], []
    with Path(path).open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                return ValueError(
                    f"{path}:{reader.line_num}: expected {len(header)} fields, "
                    f"got {len(row)}"
                )
            try:
                rows.append([_cell(v) for v in row])
            except ValueError as exc:
                return ValueError(f"{path}:{reader.line_num}: {exc}")
            line_numbers.append(reader.line_num)
    for line, row in zip(line_numbers, rows):
        for name, value in zip(header, row):
            if not math.isfinite(value):
                return ValueError(
                    f"{path}:{line}: non-finite value {value} in column {name!r}"
                )
    if not rows:
        return ValueError(f"{path}: no data rows")
    return ValueError(f"{path}: a cell is not a plain decimal number")


def _cell(text: str) -> float:
    """One CSV cell by np.loadtxt's rule: float() without "_" or non-ASCII digits."""
    if "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def _not_utf8_error(path: str | Path) -> ValueError:
    """The error for a file that is not UTF-8, naming the line of its first bad byte.

    The text stream decodes in blocks, so the offending line is found again
    from the raw bytes; this runs only on the failure path.
    """
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return ValueError(f"{path}:{line}: {exc}")
    return ValueError(f"{path}: not UTF-8")  # the file changed between the reads


def write_table_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Small report table; floats take the 17-significant-digit form."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
