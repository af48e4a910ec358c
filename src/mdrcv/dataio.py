"""Dataset CSV ingest/emit.

Format: header row ``X1,...,Xn,Y``; factor cells are integers in 0..q,
labels are -1 or +1.  Row order is the record order (folds depend on it).
"""

from __future__ import annotations

import csv
import warnings

import numpy as np

from .errors import ValidationError
from .model import MAX_LEVEL, Dataset, FactorSpace


# Rows per ``tolist()``: a whole-table call would hold every row as a list at once.
CSV_BLOCK_ROWS = 1024


def write_dataset_csv(dataset: Dataset, path) -> None:
    table = np.column_stack([dataset.x, dataset.y])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"X{i}" for i in range(1, dataset.space.n + 1)] + ["Y"])
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            writer.writerows(table[start : start + CSV_BLOCK_ROWS].tolist())


def ingest_csv(path, q: int | None = None) -> Dataset:
    """Read a dataset CSV; the max level q is inferred from the data unless
    given.  Malformed rows are reported with their file line number.

    The rows of a seekable file are first read by one ``np.loadtxt`` call
    and checked column by column.  If that read or a check fails, the row
    loop reads them again and names the first bad row.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            n = len(header) - 1
            expected = [f"X{i}" for i in range(1, n + 1)] + ["Y"]
            if n < 1 or header != expected:
                raise ValidationError(
                    f"{path}: header must be X1,...,Xn,Y; got {','.join(header)}"
                )
            table = _loadtxt_rows(fh, n, q) if fh.seekable() else None
            if table is None:
                if fh.seekable():  # the failed read consumed the rows
                    fh.seek(0)
                    reader = csv.reader(fh)
                    next(reader)
                table = _read_rows(path, reader, n, q)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:  # e.g. a field past csv's size limit
        raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from None
    xs, ys = table
    inferred_q = max(1, int(np.max(xs)))
    if q is not None and q != inferred_q:
        warnings.warn(
            f"{path}: configured q={q} differs from the largest observed "
            f"level ({inferred_q})",
            stacklevel=2,
        )
    final_q = q if q is not None else inferred_q
    return Dataset(FactorSpace(n, final_q), xs, ys)


def _loadtxt_rows(fh, n: int, q: int | None) -> tuple[np.ndarray, np.ndarray] | None:
    """(x, y) int64 arrays of the rest of the file when ``np.loadtxt`` reads
    it as plain integers and every row passes the row loop's checks, else
    None.  ``comments=None``: the row loop rejects ``#`` rows."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            table = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError, Warning):
        return None
    if table.shape[0] == 0 or table.shape[1] != n + 1:
        return None
    xs, ys = table[:, :n], table[:, n]
    top = MAX_LEVEL if q is None else min(q, MAX_LEVEL)
    if not np.all((ys == -1) | (ys == 1)) or xs.min() < 0 or xs.max() > top:
        return None
    return xs, ys


def _read_rows(path, reader, n: int, q: int | None) -> tuple[list, list]:
    """(x rows, labels) read row by row; the first malformed row raises
    with its file line number."""
    xs: list[list[int]] = []
    ys: list[int] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != n + 1:
            raise ValidationError(
                f"{path}, row {line_no}: expected {n + 1} cells, got {len(row)}"
            )
        try:
            values = [int(c) for c in row]
        except ValueError:
            raise ValidationError(
                f"{path}, row {line_no}: non-integer cell in {row!r}"
            ) from None
        x, y = values[:n], values[n]
        if y not in (-1, 1):
            raise ValidationError(
                f"{path}, row {line_no}: label must be -1 or +1, got {y}"
            )
        if any(not 0 <= v <= MAX_LEVEL for v in x):
            raise ValidationError(
                f"{path}, row {line_no}: level outside 0..{MAX_LEVEL} in {x}"
            )
        if q is not None and any(v > q for v in x):
            raise ValidationError(
                f"{path}, row {line_no}: factor value exceeds q={q} in {x}"
            )
        xs.append(x)
        ys.append(y)
    if not xs:
        raise ValidationError(f"{path}: no data rows")
    return xs, ys
