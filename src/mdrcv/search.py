"""Exhaustive ranking of factor subsets by cross-validated error."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ValidationError
from .estimator import DEFAULT_SCHEDULE, EpsilonSchedule, cv_prediction_error
from .model import Dataset, FactorSubset

# Exhaustive enumeration only; these caps keep desk-scale runtimes.
MAX_FACTORS = 20
MAX_SUBSET_SIZE = 4


def enumerate_subsets(n: int, r: int) -> list[FactorSubset]:
    """All r-element subsets of {1..n}, lexicographic."""
    if r < 1 or r > n:
        raise ValidationError(f"need 1 <= r <= n, got r={r}, n={n}")
    return [FactorSubset(c) for c in itertools.combinations(range(1, n + 1), r)]


@dataclass(frozen=True)
class SearchReport:
    """All candidate subsets of one size, ranked by estimated error."""

    r: int
    n_folds: int
    entries: tuple[tuple[FactorSubset, float], ...]  # ascending by value
    selected: FactorSubset

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "n_folds": self.n_folds,
            "tie_tolerance": 0.0,  # only exact ties are broken, lexicographically
            "ranking": [
                {"indices": list(s.indices), "estimated_error": v}
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
    n = dataset.space.n
    if n > MAX_FACTORS or r > MAX_SUBSET_SIZE:
        raise ValidationError(
            f"exhaustive search capped at n <= {MAX_FACTORS}, r <= {MAX_SUBSET_SIZE}"
        )
    candidates = enumerate_subsets(n, r)
    scored = [
        (s, cv_prediction_error(dataset, n_folds, s, schedule).value)
        for s in candidates
    ]
    scored.sort(key=lambda e: (e[1], e[0].indices))
    return SearchReport(
        r=r,
        n_folds=n_folds,
        entries=tuple(scored),
        selected=scored[0][0],
    )
