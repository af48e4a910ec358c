"""Dataset CSV ingest/emit.

Format: header row ``X1,...,Xn,Y``; factor cells are integers in 0..q,
labels are -1 or +1.  Row order is the record order (folds depend on it).
"""

from __future__ import annotations

import csv
import io
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
    least 1.  One ``np.loadtxt`` call parses the rows, quoted cells too, and
    ``Dataset`` judges them; if either refuses, ``_name_bad_row`` names the
    first bad row.  A pipe is read into memory, so the walk can re-read it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            if not fh.seekable():
                fh = io.StringIO(fh.read(), newline="")
            reader = csv.reader(fh)
            header = [h.strip() for h in next(reader, [])]
            n = len(header) - 1
            if n < 1 or header != [f"X{i}" for i in range(1, n + 1)] + ["Y"]:
                got = ",".join(header) or "no header"
                raise ValidationError(f"{path}: header must be X1,...,Xn,Y; got {got}")
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # a loadtxt warning refuses the file
                    table = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2,
                                       comments=None, quotechar='"')
                xs = table[:, :-1]
                return Dataset(FactorSpace(n, max(1, xs.max())), xs, table[:, -1])
            except UserWarning:  # loadtxt's "input contained no data"
                raise ValidationError(f"{path}: no data rows") from None
            except (ValueError, OverflowError, Warning, ValidationError) as exc:
                fh.seek(0)
                reader = csv.reader(fh)  # a csv.Error names its line below
                _name_bad_row(path, reader, n)
                line = "\\n".join(str(exc).splitlines())  # a quoted cell may hold a newline
                raise ValidationError(f"{path}: {line}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:  # e.g. a field past csv's size limit
        raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from None


def _name_bad_row(path, reader, n: int) -> None:
    """Walk the rows after the header and raise naming the first with the
    wrong cell count, a cell ``int()`` cannot read, or a record ``Dataset``
    refuses; return if no row is bad."""
    # q is the file's largest level: each record is judged at q = MAX_LEVEL
    space = FactorSpace(n, MAX_LEVEL)
    block: list[tuple[int, list[int]]] = []  # (line number, cells) not yet judged
    next(reader)
    try:
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                if len(row) != n + 1:
                    raise ValueError(f"expected {n + 1} cells, got {len(row)}")
                block.append((line_no, [int(c) for c in row]))
            except ValueError as exc:
                bad = exc if len(row) != n + 1 else f"non-integer cell in {row!r}"
                raise ValidationError(f"{path}, row {line_no}: {bad}") from None
            if len(block) == CSV_BLOCK_ROWS:
                _judge(path, space, block)
    finally:  # the rows before a fault, or before the end, are judged first
        _judge(path, space, block)


def _judge(path, space: FactorSpace, block: list[tuple[int, list[int]]]) -> None:
    """Name the block's first record ``Dataset`` refuses, if any; empty it."""
    try:
        Dataset(space, [c[:-1] for _, c in block], [c[-1] for _, c in block])
    except ValidationError:
        for line_no, cells in block:
            try:
                Dataset(space, [cells[:-1]], cells[-1:])
            except ValidationError as exc:
                raise ValidationError(f"{path}, row {line_no}: {exc} in {cells}") from None
    block.clear()
