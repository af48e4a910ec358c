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
    tie_tolerance: float

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "n_folds": self.n_folds,
            "tie_tolerance": self.tie_tolerance,
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
    tie_tolerance: float = 0.0,
    max_factors: int = MAX_FACTORS,
    max_subset_size: int = MAX_SUBSET_SIZE,
) -> SearchReport:
    """Evaluate every r-subset on the same dataset and folds, ascending.

    The selected subset attains the smallest estimated error; ties (exact,
    or within ``tie_tolerance`` of the minimum when it is positive) go to
    the lexicographically smallest index tuple.

    No multiplicity correction is applied: each subset's estimate converges
    to its exact error almost surely, so all candidates can be compared on
    a single common event of probability one rather than through per-subset
    confidence adjustments.
    """
    n = dataset.space.n
    if n > max_factors or r > max_subset_size:
        raise ValidationError(
            f"exhaustive search capped at n <= {max_factors}, r <= {max_subset_size}; "
            f"raise the caps explicitly to override"
        )
    if tie_tolerance < 0:
        raise ValidationError("tie_tolerance must be >= 0")
    candidates = enumerate_subsets(n, r)
    scored = [
        (s, cv_prediction_error(dataset, n_folds, s, schedule).value)
        for s in candidates
    ]
    scored.sort(key=lambda e: (e[1], e[0].indices))
    best_value = scored[0][1]
    selected = scored[0][0]
    if tie_tolerance > 0.0:
        near = [s for s, v in scored if v <= best_value + tie_tolerance]
        selected = min(near, key=lambda s: s.indices)
    return SearchReport(
        r=r,
        n_folds=n_folds,
        entries=tuple(scored),
        selected=selected,
        tie_tolerance=tie_tolerance,
    )
