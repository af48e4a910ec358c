"""Exhaustive ranking of factor subsets by cross-validated error."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estimator import DEFAULT_SCHEDULE, EpsilonSchedule, cv_error_stack, row_keys
from .model import Dataset, FactorSubset, _integer, cylinder_count

# Exhaustive enumeration only: caps C(n, r), the subsets one search scores.
MAX_SEARCH_SUBSETS = 2**18
# Count-table entries scored per ``cv_error_stack`` call.
BLOCK_ENTRIES = 2**16
# A count pass's fixed cost in records keyed: numpy's calls, the matmul's
# set-up and the copy into the scoring block, about 9 us of key work.
PASS_RECORDS = 4096


def enumerate_subsets(n: int, r: int) -> np.ndarray:
    """All r-subsets of {1..n}: the lexicographic rows of a read-only (C(n, r), r) int32 array."""
    if (n := _integer("n", n)) < (r := _integer("r", r)) or r < 1:
        raise ValidationError(f"need 1 <= r <= n, got r={r}, n={n}")
    count = math.comb(n, r)
    if count > MAX_SEARCH_SUBSETS:
        raise ValidationError(
            f"C({n}, {r}) = {count} subsets exceed the search budget {MAX_SEARCH_SUBSETS}"
        )
    rows = itertools.combinations(range(1, n + 1), r)
    subsets = np.fromiter(rows, np.dtype((np.int32, r)), count)
    subsets.flags.writeable = False
    return subsets


@dataclass(frozen=True, eq=False)
class SearchReport:
    """All candidate subsets of one size, ranked by estimated error: row i of the
    read-only (C, r) int32 ``subsets`` scored the float64 ``values[i]``, ascending."""

    r: int
    n_folds: int
    subsets: np.ndarray
    values: np.ndarray

    @property
    def entries(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """(indices, value) pairs, ascending, built on each read."""
        return tuple(zip(map(tuple, self.subsets.tolist()), self.values.tolist()))

    @property
    def selected(self) -> FactorSubset:
        return FactorSubset(tuple(self.subsets[0].tolist()))

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "n_folds": self.n_folds,
            "tie_tolerance": 0.0,  # only exact ties are broken, lexicographically
            "ranking": [
                {"indices": s, "estimated_error": v}
                for s, v in zip(self.subsets.tolist(), self.values.tolist())
            ],
            "selected": self.subsets[0].tolist(),
        }


def rank_subsets(
    dataset: Dataset,
    r: int,
    n_folds: int,
    schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
) -> SearchReport:
    """Evaluate every r-subset on the same dataset and folds, ascending.

    The selected subset attains the smallest estimated error; exact ties
    go to the lexicographically smallest index tuple.

    No multiplicity correction is applied: each subset's estimate converges
    to its exact error almost surely, so all candidates can be compared on
    a single common event of probability one rather than through per-subset
    confidence adjustments.
    """
    candidates = enumerate_subsets(dataset.space.n, r)
    values = _cv_errors(dataset, candidates, n_folds, schedule.value(len(dataset)))
    # stable on lexicographic candidates: exact ties keep index order
    order = np.argsort(values, kind="stable")
    subsets, values = candidates[order], values[order]
    subsets.flags.writeable = values.flags.writeable = False
    return SearchReport(_integer("r", r), _integer("n_folds", n_folds), subsets, values)


def _block_codes(columns: np.ndarray, size: int, levels: int, dtype) -> list[np.ndarray]:
    """Each block's code: the factors in consecutive blocks of ``size``,
    each record's ``sum_i (q+1)^(size-1-i) * x[f_i]`` in ``dtype``, the last
    block padded with digits 0.  Blocks of one are the factor rows as they are."""
    if size == 1:
        return list(columns)
    codes = []
    for lo in range(0, len(columns), size):
        code = np.zeros(columns.shape[1], dtype)
        for f in range(lo, lo + size):
            code *= levels
            if f < len(columns):
                code += columns[f]
        codes.append(code)
    return codes


def _indicator(levels: int, digits: int, cs: range | None, ds: range) -> np.ndarray:
    """0/1 float64 (levels^digits, pairs * levels^t) pair indicator over the
    codes of ``digits`` base-``levels`` digits, first-major: per pair of a
    digit c in ``cs`` and a digit d > c in ``ds``, in that order, the column
    block whose row a has its 1 at the cell (digit c of a, digit d of a);
    without ``cs`` (r = 1), per digit d in ``ds``, at digit d of a alone."""
    picks = [(d,) for d in ds] if cs is None else [(c, d) for c in cs for d in ds if d > c]
    digit = np.arange(levels**digits)[:, None] // levels ** np.arange(digits - 1, -1, -1) % levels
    t = len(picks[0])
    cell = digit[:, np.array(picks)] @ levels ** np.arange(t - 1, -1, -1)
    return (cell[..., None] == np.arange(levels**t)).reshape(len(digit), -1).astype(np.float64)


def _passes(n: int, r: int, b: int) -> int:
    """The joint tables ``_cv_errors`` counts over all r-subsets of n factors
    in blocks of b.  For r = 1, one per block.  Else, per prefix with last
    factor p, per block B1 that holds a first factor c > p: one per later
    block, and one more for pairs inside B1 if it holds any."""
    if r == 1:
        return -(-n // b)
    blocks, fixed = -(-n // b), r - 2
    return sum(
        (math.comb(p - 1, fixed - 1) if fixed else 1)  # prefixes whose last factor is p
        * sum(blocks - 1 - i + (max(i * b, p) + 1 < min(i * b + b, n))
              for i in range(p // b, (n - 2) // b + 1))
        for p in (range(fixed, n - 1) if fixed else (0,))
    )


def _block_size(head: int, levels: int, n_records: int, n: int, r: int) -> int:
    """Factors per block, from the sizes alone: the b of least estimated
    cost among those whose joint table of head * (q+1)^(t*b) bins, t = min(r, 2)
    block positions, holds at most BLOCK_ENTRIES (b = 1 always qualifies).

    The estimate, in records keyed, charges each of the ``_passes`` tables
    N + PASS_RECORDS plus half a record per bin, and each of the C(n, r)
    subsets a 32nd of one per multiply-add of its share of the matmul,
    bins * (q+1)^t; b = 1 has no matmul."""
    fixed, t = max(r - 2, 0), min(r, 2)
    best = None
    for b in range(1, n - fixed + 1):
        bins = head * levels ** (t * b)
        if b > 1 and bins > BLOCK_ENTRIES:
            break
        cost = _passes(n, r, b) * (n_records + PASS_RECORDS + bins / 2)
        if b > 1:
            cost += bins * levels**t * math.comb(n, r) / 32
        if best is None or cost < best[0]:
            best = cost, b
    return best[1]


def _cv_errors(
    dataset: Dataset, subsets: np.ndarray, n_folds: int, eps: float
) -> np.ndarray:
    """``cv_prediction_error`` values of the lexicographic (C, r) rows of
    ``subsets``, all on one dataset's folds, bit for bit.

    A subset's count row is ``dataset_counts``'s: record key ``row * cells
    + code``, with the ``row_keys`` row ``2 * fold + [y = +1]`` and the cell
    code ``sum_j (q+1)^(r-1-j) * x[m_j]``.  The first r-2 positions, a
    prefix, are kept as partial sums, recomputed from the first position
    that moved.  The last two, c < d after the prefix's last factor p, come
    from blocks of b consecutive factors, each with its Horner code of b
    levels built once per search (the last block padded with 0 digits).
    For a block B1 that holds a c > p, the lead key ``(row, prefix cell,
    levels of B1)`` is the prefix sum plus B1's scaled code; per later
    block B2, one add of B2's code and one ``np.bincount`` fill the joint
    (head, (q+1)^(2b)) table of ``(row, prefix cell, levels of B1, levels
    of B2)``, head = 2K (q+1)^(r-2), and the lead key's own joint serves
    the pairs inside B1.  One float64 matmul with a 0/1 ``_indicator``
    gives the count row of each ``prefix + (c, d)`` with c in B1, d in B2:
    exact, as every count is an integer <= N < 2^53.  At b = 1 the joint
    is the count row.  r = 1 has no B1: a block's joint over ``(row,
    levels of B2)`` gives one count row per factor.

    A joint costs one add and one bincount, mostly the pass over N keys,
    for up to b^2 subsets, plus head * (q+1)^(2b+2) multiply-adds per
    subset; ``_block_size`` picks b.  Keys have the columns' int16 dtype
    wherever the joint's keys fit.  Memory beside the data: r-2 prefix
    sums, two keys, the factor columns transposed, one code per block of
    b > 1, a joint of at most ``BLOCK_ENTRIES`` bins (one count row at
    b = 1), the indicators, and the scoring block, whose count rows, each
    with its subset's row, one ``cv_error_stack`` call scores.
    """
    q, n, r = dataset.space.q, dataset.space.n, subsets.shape[1]
    levels = q + 1
    fixed = max(r - 2, 0)  # prefix positions; the last one or two come from blocks
    head = 2 * n_folds * levels**fixed
    cells = cylinder_count(r, q)
    width = 2 * n_folds * cells  # one count row
    b = _block_size(head, levels, len(dataset), n, r)
    span = levels ** (b * (r - fixed))  # joint cells per head row: one block or two
    # keys of the columns' dtype where they fit: adds that mix dtypes run slower
    dtype = np.promote_types(dataset.x.dtype, np.min_scalar_type(-head * span)).type
    columns = np.ascontiguousarray(dataset.x.T)  # factor rows; strided columns add 2x slower
    codes = _block_codes(columns, b, levels, dtype)
    folds = row_keys(dataset.y, n_folds)
    base = (folds * (levels**fixed * span)).astype(dtype)
    weights = [dtype(levels ** (fixed - 1 - j) * span) for j in range(fixed)]
    partial = np.empty((fixed, len(dataset)), dtype)  # partial[j]: key over positions 0..j
    lead, key = np.empty((2, len(dataset)), dtype)
    scale = dtype(levels**b)
    indicator = functools.cache(functools.partial(_indicator, levels))

    # a table adds at most ``most`` count rows, so the block, scored once
    # fewer are free, never splits one
    most = b if r == 1 else b * b
    block = np.empty((min(len(subsets), max(1, BLOCK_ENTRIES // width) + most - 1), width), np.int64)
    where = np.empty(len(block), np.intp)  # the subset row of each count row
    values = np.empty(len(subsets))
    filled = 0
    shape = (-1, n_folds, 2, cells)
    moved = subsets[1:, :fixed] != subsets[:-1, :fixed]  # prefix positions changed from the row above
    bounds = [0, *(np.flatnonzero(moved.any(axis=1)) + 1).tolist()]
    for lo in bounds:  # one run of rows per prefix
        for j in range(int(moved[lo - 1].argmax()) if lo else 0, fixed):
            column = columns[subsets[lo, j] - 1]
            np.add(base if j == 0 else partial[j - 1], column * weights[j], out=partial[j])
        prefix = partial[-1] if fixed else base
        p = int(subsets[lo, fixed - 1]) if fixed else 0  # c and d run over p+1..n
        for i1 in range(p // b, (n - 2) // b + 1) if r > 1 else [None]:
            tables = []  # (B2 code or None, indicator or None, joint column step, subset rows)
            if i1 is None:  # r = 1: subset d is row d - 1
                source = prefix
                for i2, code in enumerate(codes):
                    rows = range(i2 * b, min(i2 * b + b, n))
                    m = indicator(b, None, range(len(rows))) if b > 1 else None
                    tables.append((code, m, 1, rows))
            else:
                source = np.multiply(codes[i1], scale, out=lead)
                source += prefix
                top = min(i1 * b + b, n)
                cs = range(max(i1 * b, p) + 1, min(top, n - 1) + 1)  # first factors in B1
                # the row of subset (prefix, c, d) is start[c - cs[0]] + d
                start = [lo + (c - p - 1) * (2 * n - c - p) // 2 - c - 1 for c in cs]
                digits = range(cs[0] - 1 - i1 * b, cs[-1] - i1 * b)
                if b > 1 and cs[0] < top:  # pairs within B1: the lead key alone
                    rows = [s + d for c, s in zip(cs, start) for d in range(c + 1, top + 1)]
                    tables.append((None, indicator(b, digits, range(top - i1 * b)), levels**b, rows))
                for i2 in range(i1 + 1, len(codes)):
                    ds = range(i2 * b + 1, min(i2 * b + b, n) + 1)
                    m = indicator(2 * b, digits, range(b, b + len(ds))) if b > 1 else None
                    tables.append((codes[i2], m, 1, [s + d for s in start for d in ds]))
            for code, m, step, rows in tables:
                k = len(rows)
                joint = np.bincount(
                    source if code is None else np.add(source, code, out=key), minlength=head * span
                )
                if m is None:  # the joint is the count row
                    block[filled] = joint
                else:
                    counts = joint.reshape(head, -1)[:, ::step].astype(np.float64) @ m
                    block[filled : filled + k].reshape(k, head, -1)[...] = \
                        counts.reshape(head, k, -1).transpose(1, 0, 2)
                where[filled : filled + k] = rows
                filled += k
                if filled > len(block) - most:
                    values[where[:filled]] = cv_error_stack(block[:filled].reshape(shape), eps)[0]
                    filled = 0
    if filled:
        values[where[:filled]] = cv_error_stack(block[:filled].reshape(shape), eps)[0]
    return values
