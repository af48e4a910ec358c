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


# Rows per block of the writer and of ``_name_bad_row``'s judge: a
# whole-table pass would hold every row's text, or every row, at once.
CSV_BLOCK_ROWS = 1024


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Write the bytes ``csv.writer`` writes: ``\\r\\n`` line ends, no
    quoting.  Each value's text, followed by ``,`` in a factor column and by
    ``\\r\\n`` in the label column, is a row of one NUL-padded text table;
    a block of rows gathers its cells from it, drops the padding and makes
    one write."""
    x, y, n = dataset.x, dataset.y, dataset.space.n
    lo, hi = min(int(x.min()), int(y.min())), max(int(x.max()), int(y.max()))
    values = [str(v).encode() for v in range(lo, hi + 1)]
    text = np.array([v + b"," for v in values] + [v + b"\r\n" for v in values])
    cells = text.view(np.uint8).reshape(len(text), text.itemsize)
    with open(path, "wb") as fh:
        fh.write(",".join([f"X{i}" for i in range(1, n + 1)] + ["Y"]).encode() + b"\r\n")
        for a in range(0, len(y), CSV_BLOCK_ROWS):
            b = min(a + CSV_BLOCK_ROWS, len(y))
            # offsets into the text table in intp: int16 - lo wraps at MAX_LEVEL
            rows = np.empty((b - a, n + 1), dtype=np.intp)
            rows[:, :n] = x[a:b]
            rows[:, n] = y[a:b]
            rows[:, n] += len(values)  # the label column's texts end the row
            rows -= lo
            block = np.take(cells, rows.ravel(), axis=0).ravel()
            fh.write(block[block != 0])


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
