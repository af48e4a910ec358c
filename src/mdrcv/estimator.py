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

from .errors import ValidationError
from .model import (
    MAX_RECORDS,
    Dataset,
    FactorSubset,
    _integer,
    _real,
    cell_conditionals,
    cylinder_codes,
    cylinder_count,
)

DEFAULT_EPS_C0 = 1.0
DEFAULT_EPS_BETA = 0.25
# Count-table label rows (y = -1, y = +1): a +1 call misses row 0.
_POSITIVE = np.array([[False], [True]])


def fold_index(n_records: int, n_folds: int) -> np.ndarray:
    """The 0-based fold of every record: folds 1..K-1 are contiguous blocks
    of [N/K] records, and the last one runs to N.  Needs 2 <= K <= N."""
    if (n_folds := _integer("n_folds", n_folds)) < 2:
        raise ValidationError(f"need at least 2 folds, got {n_folds}")
    if n_folds > n_records:
        raise ValidationError(f"cannot split {n_records} records into {n_folds} folds")
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
        for name in ("c0", "beta"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.c0 <= 0:
            raise ValidationError(f"eps schedule needs c0 > 0, got {self.c0}")
        if not 0.0 < self.beta < 0.5:
            raise ValidationError(f"eps schedule needs beta in (0, 1/2), got {self.beta}")

    def value(self, n_records: int) -> float:
        if not 1 <= (n_records := _integer("n_records", n_records)) <= MAX_RECORDS:
            raise ValidationError(f"n_records must be in 1..{MAX_RECORDS}")
        return self.c0 * n_records ** (-self.beta)


DEFAULT_SCHEDULE = EpsilonSchedule()


def fold_rows(n_blocks: int, n_records: int, n_folds: int) -> np.ndarray:
    """The (B, N) count-table rows ``2 * (fold + K * b)`` of y = -1 records
    in B blocks of N: the base ``row_keys`` adds the label bit to."""
    rows = fold_index(n_records, n_folds) + n_folds * np.arange(n_blocks)[:, None]
    rows *= 2
    return rows


def row_keys(y: np.ndarray, base: np.ndarray, out=None) -> np.ndarray:
    """Each record's count-table row ``2 * fold + [y = +1]`` from (..., N)
    labels, offset by ``2K * b`` in block b of the leading axes (flattened),
    so that one ``bincount`` counts every block in its own table: ``base``,
    ``fold_rows`` of at least as many blocks, read at its leading blocks,
    plus the label bit, into ``out`` if given."""
    blocks = y.size // y.shape[-1]
    return np.add(base[:blocks].reshape(y.shape), y == 1, out=out)


def dataset_counts(
    dataset: Dataset, subset: FactorSubset, n_folds: int, rows: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(keys, counts) of a dataset: each record's key ``row * cells + code``
    with its ``row_keys`` row and cylinder code, and one ``bincount`` of the
    keys as a (K, 2, cells) table of (fold, label, cell) counts, label row 0
    being y = -1.  ``rows``, the (B, N) ``row_keys`` of a dataset of B equal
    blocks of records (``sample`` from a list of seeds), kept as it is for
    the next subset, gives both a leading axis over the blocks.  ``out``,
    one int64 per record, receives the keys."""
    subset.validate_for(dataset.space)
    cells = cylinder_count(subset.r, dataset.space.q)
    rows = row_keys(dataset.y, fold_rows(1, len(dataset), n_folds)) if rows is None else rows
    keys = cylinder_codes(dataset.x, subset, dataset.space.q, rows, out)
    counts = np.bincount(keys, minlength=rows.size // rows.shape[-1] * n_folds * 2 * cells)
    return keys.reshape(rows.shape), counts.reshape(rows.shape[:-1] + (n_folds, 2, cells))


def _trained_rule(train: np.ndarray, labels: np.ndarray, eps: float) -> np.ndarray:
    """Cells the regularized rule predicts +1 after training on the
    (..., 2, cells) label counts ``train``, with (..., 2) label totals ``labels``."""
    tot = train[..., 0, :] + train[..., 1, :]
    gamma = labels[..., 1] / (labels[..., 0] + labels[..., 1])
    return cell_conditionals(tot, train[..., 1, :]) > (gamma + eps)[..., None]


def cv_error_stack(counts: np.ndarray, eps: float) -> tuple[np.ndarray, ...]:
    """(values, penalties, misses) of the CV error of each dataset in a
    (..., K, 2, cells) ``dataset_counts`` stack; per fold, the rule is
    trained on the complement and penalties are estimated on the fold.
    Integer counts regroup exactly; float terms combine in the formula's order
    (outer sum over labels, running sum over folds): every value bit for bit."""
    labels = counts.sum(axis=-1)
    sizes = labels.sum(axis=-1, keepdims=True)
    # fold k's rule is trained on every count outside fold k
    train = counts.sum(axis=-3, keepdims=True) - counts
    plus = _trained_rule(train, labels.sum(axis=-2, keepdims=True) - labels, eps)
    misses = np.einsum("...yc,...c->...y", counts, plus)  # records in +1 cells
    misses[..., 1] = labels[..., 1] - misses[..., 1]  # y = +1 misses the other cells
    penalties = cell_conditionals(labels, sizes)
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
    eps = schedule.value(len(dataset))
    return float(cv_error_stack(dataset_counts(dataset, subset, n_folds)[1], eps)[0])


def influence_values(
    keys: np.ndarray, counts: np.ndarray, eps: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-record plug-in influence values of each dataset in a
    ``dataset_counts`` stack, into ``out`` if given: the regularized rule
    trained on the full-sample counts, with the empirical label frequencies
    and miss rates for their population counterparts, read at the records'
    keys.  The values sum to exactly zero and do not depend on the fold
    count, which only keys the records; with one label class the rule flags
    no cell, so all are 0.0, a plug-in scale of 0."""
    full = counts.sum(axis=-3)
    n_labels = full.sum(axis=-1)  # (..., 2): records with y = -1, y = +1
    miss = _trained_rule(full, n_labels, eps)[..., None, :] != _POSITIVE
    misses = (full * miss).sum(axis=-1)
    rate = cell_conditionals(n_labels, misses)
    freq = n_labels / keys.shape[-1]
    scale = cell_conditionals(freq, 2.0)
    table = scale[..., None] * (miss.astype(np.float64) - rate[..., None])
    # every key indexes the table: "clip" only spares take a copy of out
    return np.take(np.broadcast_to(table[..., None, :, :], counts.shape), keys, out=out,
                   mode="clip")


def plugin_moments(influences: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(..., S) sds and (..., S, S) symmetrized covariances of a float64
    (..., S, N) stack of influence rows, bit for bit ``np.std`` and the
    centred ``c @ c.T / N``, from one centring that overwrites the stack."""
    n = influences.shape[-1]
    influences -= influences.sum(axis=-1, keepdims=True) / n
    cov = influences @ influences.swapaxes(-1, -2) / n
    influences *= influences
    return np.sqrt(influences.sum(axis=-1) / n), (cov + cov.swapaxes(-1, -2)) / 2.0


def asymptotic_sd_estimate(influence: np.ndarray) -> float | np.ndarray:
    """Plug-in estimate of the CLT scale: the empirical standard deviation
    of one subset's ``influence_values``, or of each row of a stack."""
    sd = plugin_moments(np.array(influence, dtype=np.float64)[..., None, :])[0][..., 0]
    return float(sd) if sd.ndim == 0 else sd


def asymptotic_covariance_estimate(influences: Sequence[np.ndarray]) -> np.ndarray:
    """Plug-in estimate of the joint influence covariance across subsets,
    from one row of ``influence_values`` per subset; a (..., S, N) stack
    gives one symmetrized (S, S) matrix per leading index."""
    rows = np.array(influences, dtype=np.float64)
    if rows.ndim < 2 or rows.shape[-2] < 1:
        raise ValidationError("need at least one subset")
    return plugin_moments(rows)[1]
