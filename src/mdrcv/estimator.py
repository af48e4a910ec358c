"""Data-driven estimation: fold partitioning, empirical conditionals,
the regularized prediction rule, the K-fold cross-validated prediction
error, and plug-in estimates of the asymptotic scale.

The estimated error for a dataset of N records split into K folds is

    est = 2 * sum_y (1/K) * sum_k psihat_k(y) * miss_k(y) / #S_k

where fold S_k holds records (k-1)*[N/K]+1 .. k*[N/K] (the last fold runs
to N), psihat_k(y) is the reciprocal label frequency inside S_k (0 when
the label is absent), and miss_k(y) counts records of S_k with label y
predicted wrongly by the rule trained on the complement of S_k.

The trained rule is the regularized cylinder-frequency classifier:
predict +1 iff    freq(Y=1 | cylinder cell of x, complement)  >
                  freq(Y=1, complement) + eps_N,
with the empty-cell convention 0/0 := 0, which makes unseen cells predict
-1 whenever the inflated threshold is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateLabelsError, ValidationError
from .model import (
    Dataset,
    FactorSubset,
    cell_conditionals,
    cylinder_codes,
    cylinder_count,
)

DEFAULT_EPS_C0 = 1.0
DEFAULT_EPS_BETA = 0.25


@dataclass(frozen=True)
class FoldPartition:
    """Deterministic contiguous split of record indices 1..N into K folds.

    Folds 1..K-1 have size [N/K]; the last fold absorbs the remainder.
    """

    n_records: int
    n_folds: int
    folds: tuple[range, ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.folds)


def fold_partition(n_records: int, n_folds: int) -> FoldPartition:
    if n_folds < 2:
        raise ValidationError(f"need at least 2 folds, got {n_folds}")
    if n_folds > n_records:
        raise ValidationError(
            f"cannot split {n_records} records into {n_folds} folds"
        )
    base = n_records // n_folds
    folds = []
    for k in range(1, n_folds + 1):
        start = (k - 1) * base + 1
        stop = k * base + 1 if k < n_folds else n_records + 1
        folds.append(range(start, stop))
    return FoldPartition(n_records, n_folds, tuple(folds))


@dataclass(frozen=True)
class EpsilonSchedule:
    """Threshold inflation eps_N = c0 * N^(-beta).

    Constraints c0 > 0 and 0 < beta < 1/2 guarantee eps_N -> 0 while
    sqrt(N) * eps_N -> infinity, the regime the limit theorems need.
    """

    c0: float = DEFAULT_EPS_C0
    beta: float = DEFAULT_EPS_BETA

    def __post_init__(self) -> None:
        if not np.isfinite(self.c0) or self.c0 <= 0:
            raise ValidationError(f"eps schedule needs c0 > 0, got {self.c0}")
        if not 0.0 < self.beta < 0.5:
            raise ValidationError(
                f"eps schedule needs beta in (0, 1/2), got {self.beta}"
            )

    def value(self, n_records: int) -> float:
        if n_records < 1:
            raise ValidationError("sample size must be positive")
        return self.c0 * float(n_records) ** (-self.beta)


DEFAULT_SCHEDULE = EpsilonSchedule()


@dataclass(frozen=True)
class ErrEstimate:
    """Cross-validated prediction error with its per-fold ingredients."""

    value: float
    eps: float
    fold_penalties: tuple[tuple[float, float], ...]  # (psihat(-1), psihat(+1))
    fold_miss_counts: tuple[tuple[int, int], ...]    # misses for y=-1, y=+1


def fold_cell_counts(
    codes: np.ndarray, positive: np.ndarray, n_folds: int, cells: int
) -> np.ndarray:
    """Record counts per (fold, cylinder cell, label), shape (K, cells, 2).

    Label column 0 is y = -1 and column 1 is y = +1.  Folds are the
    contiguous blocks of ``fold_partition``; ``n_folds=1`` counts the whole
    sample as a single fold.
    """
    n = len(codes)
    if not 1 <= n_folds <= n:
        raise ValidationError(f"cannot split {n} records into {n_folds} folds")
    fold = np.minimum(np.arange(n) // (n // n_folds), n_folds - 1)
    key = (fold * cells + codes) * 2 + positive
    return np.bincount(key, minlength=n_folds * cells * 2).reshape(n_folds, cells, 2)


def _dataset_counts(
    dataset: Dataset, subset: FactorSubset, n_folds: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell codes, positive-label mask and ``fold_cell_counts`` of a dataset."""
    subset.validate_for(dataset.space)
    codes = cylinder_codes(dataset.x, subset, dataset.space.q)
    positive = dataset.y == 1
    cells = cylinder_count(subset, dataset.space.q)
    return codes, positive, fold_cell_counts(codes, positive, n_folds, cells)


def _trained_rule(train: np.ndarray, eps: float) -> np.ndarray:
    """Cells the regularized rule predicts +1 after training on the
    (..., cells, 2) label counts ``train``."""
    tot = train.sum(axis=-1)
    gamma = train[..., 1].sum(axis=-1) / tot.sum(axis=-1)
    return cell_conditionals(tot, train[..., 1]) > (gamma + eps)[..., None]


def cv_prediction_error(
    dataset: Dataset,
    n_folds: int,
    subset: FactorSubset,
    schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
) -> ErrEstimate:
    """K-fold cross-validated prediction error of the regularized rule.

    Per fold, predictions are trained on the complement and penalties are
    estimated on the fold itself.
    """
    n = len(dataset)
    sizes = fold_partition(n, n_folds).sizes()
    eps = schedule.value(n)
    _, _, counts = _dataset_counts(dataset, subset, n_folds)
    # fold k's rule is trained on every count outside fold k
    plus = _trained_rule(counts.sum(axis=0) - counts, eps)
    miss_neg = (counts[..., 0] * plus).sum(axis=1).tolist()
    miss_pos = (counts[..., 1] * ~plus).sum(axis=1).tolist()
    fold_misses = tuple(zip(miss_neg, miss_pos))
    fold_penalties = tuple(
        tuple(size / c if c else 0.0 for c in labels)
        for size, labels in zip(sizes, counts.sum(axis=1).tolist())
    )

    # Combine in the formula's order: outer sum over labels, inner over folds.
    value = 0.0
    for col in (0, 1):
        acc = 0.0
        for k in range(n_folds):
            acc += fold_penalties[k][col] * fold_misses[k][col] / sizes[k]
        value += acc / n_folds
    value *= 2.0

    return ErrEstimate(
        value=value,
        eps=eps,
        fold_penalties=fold_penalties,
        fold_miss_counts=fold_misses,
    )


def influence_values(
    dataset: Dataset,
    subset: FactorSubset,
    schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
) -> np.ndarray:
    """Per-record plug-in influence values.

    Trains the regularized rule on the full sample, then substitutes the
    empirical label frequencies and miss rates for their population
    counterparts.  The returned values sum to exactly zero whenever both
    label classes are present; a missing class raises.
    """
    n = len(dataset)
    codes, positive, counts = _dataset_counts(dataset, subset, 1)
    n_neg, n_pos = counts[0].sum(axis=0).tolist()
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("influence values need both label classes")
    plus = _trained_rule(counts, schedule.value(n))[0]
    rate_pos = int(counts[0, ~plus, 1].sum()) / n_pos
    rate_neg = int(counts[0, plus, 0].sum()) / n_neg

    miss = plus[codes] != positive
    freq = np.where(positive, n_pos / n, n_neg / n)
    rate = np.where(positive, rate_pos, rate_neg)
    return (2.0 / freq) * (miss.astype(np.float64) - rate)


def asymptotic_sd_estimate(influence: np.ndarray) -> float:
    """Plug-in estimate of the CLT scale: the empirical standard deviation
    of one subset's ``influence_values``."""
    return float(np.std(influence))


def asymptotic_covariance_estimate(influences: Sequence[np.ndarray]) -> np.ndarray:
    """Plug-in estimate of the joint influence covariance across subsets,
    from one row of ``influence_values`` per subset."""
    if len(influences) < 1:
        raise ValidationError("need at least one subset")
    rows = np.stack(influences)
    centered = rows - rows.mean(axis=1, keepdims=True)
    c = centered @ centered.T / rows.shape[1]
    return (c + c.T) / 2.0
