"""Exhaustive ranking of factor subsets by cross-validated error."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estimator import (
    DEFAULT_SCHEDULE,
    EpsilonSchedule,
    cv_error_stack,
    fold_index,
    fold_partition,
)
from .model import Dataset, FactorSubset, cylinder_count

# Exhaustive enumeration only: caps C(n, r), the subsets one search scores.
MAX_SEARCH_SUBSETS = 2**18
# Count-table entries scored per ``cv_error_stack`` call.
BLOCK_ENTRIES = 2**16


def enumerate_subsets(n: int, r: int) -> list[tuple[int, ...]]:
    """All r-element index tuples of {1..n}, lexicographic."""
    if r < 1 or r > n:
        raise ValidationError(f"need 1 <= r <= n, got r={r}, n={n}")
    count = math.comb(n, r)
    if count > MAX_SEARCH_SUBSETS:
        raise ValidationError(
            f"C({n}, {r}) = {count} subsets exceed the search budget {MAX_SEARCH_SUBSETS}"
        )
    return list(itertools.combinations(range(1, n + 1), r))


@dataclass(frozen=True)
class SearchReport:
    """All candidate subsets of one size, ranked by estimated error."""

    r: int
    n_folds: int
    entries: tuple[tuple[tuple[int, ...], float], ...]  # (indices, value), ascending
    selected: FactorSubset

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "n_folds": self.n_folds,
            "tie_tolerance": 0.0,  # only exact ties are broken, lexicographically
            "ranking": [
                {"indices": list(s), "estimated_error": v}
                for s, v in self.entries
            ],
            "selected": list(self.selected.indices),
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
    fold_partition(len(dataset), n_folds)
    values = _cv_errors(dataset, candidates, n_folds, schedule.value(len(dataset)))
    # stable on lexicographic candidates: exact ties keep index order
    floats = values.tolist()
    entries = tuple((candidates[i], floats[i]) for i in np.argsort(values, kind="stable").tolist())
    return SearchReport(r, n_folds, entries, selected=FactorSubset(entries[0][0]))


def _cv_errors(
    dataset: Dataset, subsets: list[tuple[int, ...]], n_folds: int, eps: float
) -> np.ndarray:
    """``cv_prediction_error`` values of r-subsets in lexicographic order,
    all on one dataset's folds, bit for bit.

    A record's count key, label-major inside its fold, is
    ``(2 * fold + [y = +1]) * cells + code`` with the cell code
    ``sum_j (q+1)^(r-1-j) * x[m_j]``.  Keys are kept as partial sums over
    the leading positions, so a subset recomputes only the positions after
    its common prefix with the previous one: one add at the last position,
    whose weight is 1.  Each key is bincounted into a row of a count block,
    and each block is scored by one ``cv_error_stack`` call.
    """
    q, r = dataset.space.q, len(subsets[0])
    cells = cylinder_count(r, q)
    width = n_folds * 2 * cells
    dtype = np.int32 if width < 2**31 else np.int64
    columns = np.ascontiguousarray(dataset.x.T)  # factor rows; strided columns add 2x slower
    base = ((2 * fold_index(len(dataset), n_folds) + (dataset.y == 1)) * cells).astype(dtype)
    weights = [dtype((q + 1) ** (r - 1 - j)) for j in range(r)]
    partial = np.empty((r, len(dataset)), dtype)  # partial[j]: key over positions 0..j
    block = np.empty((min(len(subsets), max(1, BLOCK_ENTRIES // width)), width), np.int64)
    values = np.empty(len(subsets))
    prev: tuple[int, ...] = ()
    for i, m in enumerate(subsets):
        start = next((j for j, (a, b) in enumerate(zip(m, prev)) if a != b), 0)
        for j in range(start, r):
            column = columns[m[j] - 1]
            np.add(
                base if j == 0 else partial[j - 1],
                column if j == r - 1 else column * weights[j],
                out=partial[j],
            )
        prev = m
        row = i % len(block)
        block[row] = np.bincount(partial[-1], minlength=width)
        if row == len(block) - 1 or i == len(subsets) - 1:
            counts = block[: row + 1].reshape(-1, n_folds, 2, cells).swapaxes(-1, -2)
            values[i - row : i + 1] = cv_error_stack(counts, eps)[0]
    return values
