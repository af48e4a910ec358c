"""Exhaustive ranking of factor subsets by cross-validated error."""

from __future__ import annotations

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
# Table work per record that ``_group_size`` lets one bincount's group of
# last factors take, so that the bincount's pass over the records stays
# the larger cost.
GROUP_BUDGET = 1


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


def _group_size(head: int, levels: int, n_records: int, most: int) -> int:
    """Last factors counted per bincount: the largest g <= ``most`` with
    ``head * levels^(g+1) * (g+1) <= GROUP_BUDGET * n_records``, at least 1.
    The left side bounds the joint table's work: its head * levels^g bins
    and the marginal matmul's head * levels^g * g * levels multiply-adds."""
    g = 1
    while g < most and head * levels ** (g + 2) * (g + 2) <= GROUP_BUDGET * n_records:
        g += 1
    return g


def _marginal_indicator(levels: int, g: int) -> np.ndarray:
    """g 0/1 float64 matrices (levels^g, levels): in matrix i, row c, a joint
    cell of g last factors with base-``levels`` digits first-major, has a 1
    in column l where digit i of c is l."""
    digits = np.arange(levels**g) // levels ** np.arange(g - 1, -1, -1)[:, None] % levels
    return (digits[..., None] == np.arange(levels)).astype(np.float64)


def _cv_errors(
    dataset: Dataset, subsets: np.ndarray, n_folds: int, eps: float
) -> np.ndarray:
    """``cv_prediction_error`` values of the lexicographic (C, r) rows of
    ``subsets``, all on one dataset's folds, bit for bit.

    A record's count key is ``dataset_counts``'s ``row * cells + code``,
    with the ``row_keys`` row ``2 * fold + [y = +1]`` and the cell code
    ``sum_j (q+1)^(r-1-j) * x[m_j]``.  The first r-1 positions, a subset's
    prefix, are kept as partial sums.  Each run of rows with one prefix
    recomputes them from the first position that moved, and its subsets,
    which differ only in their last factor, are counted g at a time.
    Last factors d_1 < ... < d_g share one key per record, the mixed-radix
    ``(2 * fold + [y = +1], prefix cell, x[d_1], ..., x[d_g])``: the prefix
    sum plus one Horner step (``key *= q+1; key += x[d_i]``) per further
    last factor.  One ``np.bincount`` of it fills the joint (head, (q+1)^g)
    table, with head = 2K (q+1)^(r-1).  Subset d_i's count row is that
    table's marginal over the other g-1 last factors, and all g marginals
    come from one float64 matmul with the g stacked ``_marginal_indicator``
    matrices, in count-row layout.  The matmul is exact: every partial sum
    is an integer count <= N < 2^53.  A group takes 2g-1 vector ops, so a
    subset costs about two of them plus 1/g of a bincount, whose cost is
    mostly its pass over the N keys whatever the table width.  A group of
    one is its own table: at g = 1 a subset costs one add and one bincount.
    ``_group_size`` picks g from the sizes alone.

    Count rows fill a block, and each block is scored by one
    ``cv_error_stack`` call.
    """
    q, r = dataset.space.q, subsets.shape[1]
    levels = q + 1
    cells = cylinder_count(r, q)
    head = 2 * n_folds * cells // levels
    width = head * levels
    g = _group_size(head, levels, len(dataset), dataset.space.n - r + 1)
    # keys of the columns' dtype where they fit: adds that mix dtypes run slower
    dtype = np.promote_types(dataset.x.dtype, np.min_scalar_type(-head * levels**g)).type
    base = (row_keys(dataset.y, n_folds) * cells).astype(dtype)
    columns = np.ascontiguousarray(dataset.x.T)  # factor rows; strided columns add 2x slower
    weights = [dtype(levels ** (r - 1 - j)) for j in range(r - 1)]
    partial = np.empty((r - 1, len(dataset)), dtype)  # partial[j]: key over positions 0..j
    key = np.empty(len(dataset), dtype)
    indicators = {k: _marginal_indicator(levels, k) for k in range(2, g + 1)}
    block = np.empty((min(len(subsets), max(1, BLOCK_ENTRIES // width)), width), np.int64)
    values = np.empty(len(subsets))
    done = row = 0
    moved = subsets[1:, :-1] != subsets[:-1, :-1]  # prefix positions changed from the row above
    bounds = [0, *(np.flatnonzero(moved.any(axis=1)) + 1).tolist(), len(subsets)]
    for lo, hi in zip(bounds, bounds[1:]):  # one run of rows per prefix
        for j in range(int(moved[lo - 1].argmax()) if lo else 0, r - 1):
            column = columns[subsets[lo, j] - 1]
            np.add(base if j == 0 else partial[j - 1], column * weights[j], out=partial[j])
        lasts = subsets[lo:hi, -1].tolist()
        for first in range(0, len(lasts), g):
            chunk = lasts[first : first + g]
            k = len(chunk)
            np.add(partial[-1] if r > 1 else base, columns[chunk[0] - 1], out=key)
            for d in chunk[1:]:
                key *= levels
                key += columns[d - 1]
            # a tuple: iterating a 2-D array would cost a lone subset about 1 us more
            rows = (np.bincount(key, minlength=head * levels**k),)
            if k > 1:
                marginals = rows[0].reshape(head, -1).astype(np.float64) @ indicators[k]
                rows = marginals.reshape(k, width)
            for counts in rows:
                block[row] = counts
                row += 1
                if row == len(block) or done + row == len(subsets):
                    stack = block[:row].reshape(-1, n_folds, 2, cells)
                    values[done : done + row] = cv_error_stack(stack, eps)[0]
                    done, row = done + row, 0
    return values
