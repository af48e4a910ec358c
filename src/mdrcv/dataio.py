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


def ingest_csv(path) -> Dataset:
    """Read a dataset CSV, a UTF-8 BOM skipped; q is its largest level, at
    least 1.  One ``np.loadtxt`` call parses a seekable file's rows and
    ``Dataset`` judges them; if either fails, the row loop reads the rows
    again and names the first bad one by its line number.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
            if fh.seekable():
                table = _loadtxt_rows(fh, n)
                if table is not None:
                    try:
                        return _dataset(table)
                    except ValidationError:
                        pass  # the row loop names the bad row
                fh.seek(0)  # the parse consumed the rows
                reader = csv.reader(fh)
                next(reader)
            line_nos, rows = _read_rows(path, reader, n)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:  # e.g. a field past csv's size limit
        raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from None
    try:
        return _dataset(np.array(rows))  # object dtype when a cell is past int64
    except ValidationError:
        # q is the file's largest level, so only a level past MAX_LEVEL exceeds
        # it: each record is judged at q = MAX_LEVEL alike
        space = FactorSpace(n, MAX_LEVEL)
        for line_no, row in zip(line_nos, rows):
            try:
                Dataset(space, [row[:n]], row[n:])
            except ValidationError as exc:
                raise ValidationError(f"{path}, row {line_no}: {exc} in {row}") from None
        raise


def _dataset(table: np.ndarray) -> Dataset:
    """``Dataset`` of a (records, n + 1) table, q its largest level (>= 1)."""
    xs, ys = table[:, :-1], table[:, -1]
    return Dataset(FactorSpace(xs.shape[1], max(1, int(xs.max()))), xs, ys)


def _loadtxt_rows(fh, n: int) -> np.ndarray | None:
    """The rest of the file as one int64 (records, n + 1) table when
    ``np.loadtxt`` reads it as plain integers, else None.
    ``comments=None``: the row loop rejects ``#`` rows."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            table = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    except (ValueError, OverflowError, Warning):
        return None
    return table if table.shape[0] and table.shape[1] == n + 1 else None


def _read_rows(path, reader, n: int) -> tuple[list[int], list[list[int]]]:
    """(file line numbers, integer rows) read row by row; the first row
    that is not n + 1 integers raises with its line number."""
    line_nos: list[int] = []
    rows: list[list[int]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != n + 1:
            raise ValidationError(
                f"{path}, row {line_no}: expected {n + 1} cells, got {len(row)}"
            )
        try:
            rows.append([int(c) for c in row])
        except ValueError:
            raise ValidationError(
                f"{path}, row {line_no}: non-integer cell in {row!r}"
            ) from None
        line_nos.append(line_no)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return line_nos, rows
