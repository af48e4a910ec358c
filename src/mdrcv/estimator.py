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
# Count-table label columns (y = -1, y = +1): a +1 call misses column 0.
_POSITIVE = np.array([False, True])


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


def fold_index(n_records: int, n_folds: int) -> np.ndarray:
    """The 0-based fold of every record under ``fold_partition``: blocks of
    [N/K] records, the last one running to N."""
    return np.minimum(np.arange(n_records) // (n_records // n_folds), n_folds - 1)


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


def fold_cell_counts(
    codes: np.ndarray, positive: np.ndarray, n_folds: int, cells: int
) -> np.ndarray:
    """Record counts per (fold, cylinder cell, label), shape (K, cells, 2),
    or (B, K, cells, 2) from one ``bincount`` over a (B, N) stack of datasets.
    Label column 0 is y = -1 and column 1 is y = +1.  Folds are the
    contiguous blocks of ``fold_partition``; ``n_folds=1`` counts the whole
    sample as a single fold.
    """
    n = codes.shape[-1]
    if not 1 <= n_folds <= n:
        raise ValidationError(f"cannot split {n} records into {n_folds} folds")
    key = fold_index(n, n_folds)  # fold, then the bincount key in place
    if codes.ndim == 2:  # one block of folds per dataset of the stack
        key = key + n_folds * np.arange(codes.shape[0])[:, None]
    key *= cells
    key += codes
    key *= 2
    key += positive
    counts = np.bincount(key.ravel(), minlength=codes.size // n * n_folds * cells * 2)
    return counts.reshape(codes.shape[:-1] + (n_folds, cells, 2))


def dataset_counts(
    dataset: Dataset, subset: FactorSubset, n_folds: int, n_stack: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell codes, positive-label mask and ``fold_cell_counts`` of a dataset,
    or with a leading axis over the ``n_stack`` equal blocks of records it
    holds (the datasets ``sample`` draws from a list of seeds)."""
    subset.validate_for(dataset.space)
    shape = (-1,) if n_stack is None else (n_stack, -1)
    cells = cylinder_count(subset.r, dataset.space.q)
    codes = cylinder_codes(dataset.x, subset, dataset.space.q).reshape(shape)
    positive = (dataset.y == 1).reshape(shape)
    return codes, positive, fold_cell_counts(codes, positive, n_folds, cells)


def _trained_rule(train: np.ndarray, eps: float) -> np.ndarray:
    """Cells the regularized rule predicts +1 after training on the
    (..., cells, 2) label counts ``train``."""
    tot = train.sum(axis=-1)
    gamma = train[..., 1].sum(axis=-1) / tot.sum(axis=-1)
    return cell_conditionals(tot, train[..., 1]) > (gamma + eps)[..., None]


def cv_error_stack(counts: np.ndarray, eps: float) -> tuple[np.ndarray, ...]:
    """(values, penalties, misses) of the CV error of each dataset in a
    (..., K, cells, 2) ``fold_cell_counts`` stack; per fold, the rule is
    trained on the complement and penalties are estimated on the fold.
    Terms combine in the formula's order (outer sum over labels, running
    sum over folds), so stacking leaves every value bit for bit."""
    labels = counts.sum(axis=-2)
    sizes = labels.sum(axis=-1, keepdims=True)
    # fold k's rule is trained on every count outside fold k
    plus = _trained_rule(counts.sum(axis=-3, keepdims=True) - counts, eps)
    misses = (counts * (plus[..., None] != _POSITIVE)).sum(axis=-2)
    penalties = np.divide(sizes, labels, out=np.zeros(labels.shape), where=labels > 0)
    acc = np.cumsum(penalties * misses / sizes, axis=-2)[..., -1, :]
    return (acc / counts.shape[-3]).sum(axis=-1) * 2.0, penalties, misses


def cv_prediction_error(
    dataset: Dataset,
    n_folds: int,
    subset: FactorSubset,
    schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
) -> float:
    """K-fold cross-validated prediction error of the regularized rule:
    ``cv_error_stack`` on the dataset's one count table."""
    fold_partition(len(dataset), n_folds)
    eps = schedule.value(len(dataset))
    _, _, counts = dataset_counts(dataset, subset, n_folds)
    return float(cv_error_stack(counts, eps)[0])


def influence_stack(
    codes: np.ndarray, positive: np.ndarray, full: np.ndarray, eps: float
) -> np.ndarray:
    """``influence_values`` of each dataset in a stack of (..., N) codes
    and labels with full-sample counts (..., cells, 2), read off one value
    per (dataset, cell, label)."""
    n_labels = full.sum(axis=-2)  # (..., 2): records with y = -1, y = +1
    if np.any(n_labels == 0):
        raise DegenerateLabelsError("influence values need both label classes")
    plus = _trained_rule(full, eps)
    miss = plus[..., None] != _POSITIVE
    rate = (full * miss).sum(axis=-2) / n_labels
    freq = n_labels / codes.shape[-1]
    table = (2.0 / freq)[..., None, :] * (miss.astype(np.float64) - rate[..., None, :])
    flat = table.reshape(table.shape[:-2] + (-1,))
    return np.take_along_axis(flat, codes * 2 + positive, axis=-1)


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
    codes, positive, counts = dataset_counts(dataset, subset, 1)
    return influence_stack(codes, positive, counts[0], schedule.value(len(dataset)))


def asymptotic_sd_estimate(influence: np.ndarray) -> float | np.ndarray:
    """Plug-in estimate of the CLT scale: the empirical standard deviation
    of one subset's ``influence_values``, or of each row of a stack."""
    sd = np.std(influence, axis=-1)
    return float(sd) if sd.ndim == 0 else sd


def asymptotic_covariance_estimate(influences: Sequence[np.ndarray]) -> np.ndarray:
    """Plug-in estimate of the joint influence covariance across subsets,
    from one row of ``influence_values`` per subset; a (..., S, N) stack
    gives one symmetrized (S, S) matrix per leading index."""
    rows = np.asarray(influences)
    if rows.ndim < 2 or rows.shape[-2] < 1:
        raise ValidationError("need at least one subset")
    centered = rows - rows.mean(axis=-1, keepdims=True)
    c = centered @ centered.swapaxes(-1, -2) / rows.shape[-1]
    return (c + c.swapaxes(-1, -2)) / 2.0
