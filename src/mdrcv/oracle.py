"""Exact closed-form quantities on a known distribution.

Every function here enumerates the finite atom table directly, so results
are exact up to float summation.  Nothing in this module looks at data;
the data-driven counterparts live in ``estimator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .model import (
    FactorSpace,
    FactorSubset,
    JointDistribution,
    PenaltyFunction,
    cell_conditionals,
    cylinder_masses,
    label_marginal,
    on_points,
)

# Separates authored exact ties from double-precision rounding noise in
# comparisons against the threshold.
EQUALITY_TOL = 1e-10

BLOCK_POINTS = 2**14  # points per block of an influence reduction: 256 KiB


@dataclass(frozen=True)
class Predictor:
    """A total function {0..q}^n -> {-1,+1}, stored as the boolean mask of
    the points it sends to +1, in the lexicographic point enumeration."""

    space: FactorSpace
    plus: np.ndarray

    def __post_init__(self) -> None:
        plus = np.array(self.plus)
        if plus.dtype != np.bool_ or plus.shape != (self.space.num_points,):
            raise ValidationError("a predictor needs one bool per point of its space")
        plus.flags.writeable = False
        object.__setattr__(self, "plus", plus)

    def plus_set(self) -> set[tuple[int, ...]]:
        ranks = np.flatnonzero(self.plus)
        return set(map(tuple, self.space.points(ranks).tolist()))


@dataclass(frozen=True, eq=False)
class InfluenceTable:
    """An influence variable v(x, y) = lut[plus[x], y], dense as ``np.asarray``,
    with its mean E v and two (num_points, 2) work arrays that the tables of
    one ``subset_oracle`` call share: use those tables from one thread."""

    plus: np.ndarray
    lut: np.ndarray
    mean: float
    buffers: list

    def __array__(self, dtype=None, copy=None):  # numpy casts to dtype
        return np.take(self.lut, self.plus.view(np.int8), axis=0)


def _weighted(weights: np.ndarray, plus: np.ndarray, lut: np.ndarray, out: np.ndarray):
    """``weights * table`` for the dense table v(x, y) = lut[plus[x], y], bit for
    bit, into ``out`` a cache-sized block at a time; "clip" keeps take unbuffered."""
    idx, b = plus.view(np.int8), BLOCK_POINTS
    for a in range(0, idx.size, b):
        np.take(lut, idx[a : a + b], axis=0, out=out[a : a + b], mode="clip")
        np.multiply(weights[a : a + b], out[a : a + b], out=out[a : a + b])
    return out


def balanced_penalty(dist: JointDistribution) -> PenaltyFunction:
    """Inverse class-frequency weights psi(y) = 1 / P(Y=y).

    With these weights the classification threshold equals P(Y=1), so the
    predictor flags exactly the points whose conditional risk exceeds the
    prevalence.
    """
    p_pos = label_marginal(dist, 1)
    return PenaltyFunction(1.0 / (1.0 - p_pos), 1.0 / p_pos)


def _conditionals(dist: JointDistribution, subset, within=None) -> np.ndarray:
    """P(Y=1 | X in C) per cell of the subset (all factors for None), 0 on
    cells without mass, as an array that broadcasts against the point grid."""
    subset = subset or FactorSubset(tuple(range(1, dist.space.n + 1)))
    m = cylinder_masses(dist, subset, within)
    return cell_conditionals(m[..., 0] + m[..., 1], m[..., 1])


def high_risk_set(dist: JointDistribution, psi: PenaltyFunction) -> set[tuple[int, ...]]:
    """Points of the support whose conditional P(Y=1 | X=x) strictly exceeds
    the threshold; the minimal-cardinality error-optimal plus-set.

    Strict inequality is resolved with the EQUALITY_TOL tolerance so that
    authored exact ties stay out of the set regardless of rounding.
    """
    return optimal_predictor(dist, psi).plus_set()


def optimal_predictor(
    dist: JointDistribution,
    psi: PenaltyFunction,
    subset: FactorSubset | None = None,
    within: np.ndarray | None = None,
) -> Predictor:
    """The error-minimizing predictor that looks only at the given factors.

    +1 exactly on support points whose cylinder conditional strictly
    exceeds the threshold; -1 elsewhere, including off the support.
    ``subset=None`` means all factors, i.e. pointwise conditionals.  Each cell
    decides once; ``within``: ``cylinder_masses`` of a superset of the subset.
    """
    # ties resolve to -1: strict inequality, with the tolerance shielding
    # authored exact ties from rounding; psi(+1) = 0 puts the threshold at 1
    above = _conditionals(dist, subset, within) > psi.threshold + EQUALITY_TOL
    return Predictor(dist.space, on_points(dist.space, above) & dist.support_mask())


def _misses(dist: JointDistribution, predictor: Predictor) -> tuple[float, float]:
    """(P(Y=-1, f(X)=+1), P(Y=+1, f(X)=-1))."""
    f = predictor.plus
    return float(dist.probs[f, 0].sum()), float(dist.probs[~f, 1].sum())


def prediction_error(
    dist: JointDistribution, psi: PenaltyFunction, predictor: Predictor, misses=None
) -> float:
    """Expected penalized loss 2 * sum_y psi(y) P(Y=y, f(X) != y); pass
    ``misses`` when the two masses of ``_misses`` are at hand."""
    miss_neg, miss_pos = misses or _misses(dist, predictor)
    return 2.0 * (psi.psi_neg * miss_neg + psi.psi_pos * miss_pos)


def is_significant(dist: JointDistribution, subset: FactorSubset) -> bool:
    """Whether the conditional law of Y given X depends only on these factors.

    True iff P(Y=1 | X=x) equals the subset's cylinder conditional at every
    support point, within EQUALITY_TOL.
    """
    gap = on_points(dist.space, _conditionals(dist, None) - _conditionals(dist, subset))
    return bool(np.all(np.abs(gap[dist.support_mask()]) <= EQUALITY_TOL))


def influence_table(
    dist: JointDistribution, predictor: Predictor, misses=None, buffers=None
) -> InfluenceTable:
    """The influence variable behind the CLT, columns y = -1 and y = +1:

        v(x, y) = (2 / P(Y=y)) * (1{f(x) != y} - P(f(X) != y | Y=y))

    with f the given predictor; the CLT scale of a subset's cross-validated
    error uses its optimal predictor under balanced penalties.  The mean of
    v under the distribution is exactly zero.  ``misses`` as for
    ``prediction_error``; ``buffers``: another table's, to share them.
    """
    p_pos = label_marginal(dist, 1)
    p_neg = 1.0 - p_pos
    miss_neg, miss_pos = misses or _misses(dist, predictor)
    lut = np.empty((2, 2))  # row 1 holds the points f sends to +1
    lut[:, 0] = (2.0 / p_neg) * (np.array([0.0, 1.0]) - miss_neg / p_neg)
    lut[:, 1] = (2.0 / p_pos) * (np.array([1.0, 0.0]) - miss_pos / p_pos)
    buffers = buffers or [np.empty((dist.space.num_points, 2)) for _ in range(2)]
    mean = float(_weighted(dist.probs, predictor.plus, lut, buffers[1]).sum())
    return InfluenceTable(predictor.plus, lut, mean, buffers)


def subset_oracle(
    dist: JointDistribution, subsets: Sequence[FactorSubset]
) -> tuple[tuple[float, ...], list[InfluenceTable]]:
    """Per subset, the exact error of its balanced-penalty optimal predictor
    and that predictor's ``influence_table``: one predictor per subset, its
    cells decided on the table's marginal over the union of the subsets.
    ``run_replications`` takes the errors; ``asymptotic_*`` take the tables.
    """
    for s in subsets:
        s.validate_for(dist.space)
    union = tuple(sorted({i for s in subsets for i in s.indices}))
    within = cylinder_masses(dist, FactorSubset(union)) if union else None
    psi = balanced_penalty(dist)
    errors, tables = [], []
    for s in subsets:
        f = optimal_predictor(dist, psi, s, within)
        misses = _misses(dist, f)
        errors.append(prediction_error(dist, psi, f, misses))
        tables.append(influence_table(dist, f, misses, tables and tables[0].buffers))
    return tuple(errors), tables


def asymptotic_variance(dist: JointDistribution, table: InfluenceTable) -> float:
    """Exact variance of an influence variable given by its ``influence_table``;
    the CLT scale for the cross-validated error of that table's predictor."""
    mean = table.mean
    if abs(mean) > 1e-12:
        raise ValidationError(f"influence variable mean {mean} not zero; table corrupt?")
    d2 = (table.lut - mean) ** 2
    return float(_weighted(dist.probs, table.plus, d2, table.buffers[1]).sum())


def asymptotic_covariance(
    dist: JointDistribution, tables: Sequence[InfluenceTable]
) -> np.ndarray:
    """Exact covariance matrix of several influence variables, one
    ``influence_table`` per subset."""
    if len(tables) < 1:
        raise ValidationError("need at least one subset")
    w, x = tables[0].buffers
    c = np.zeros((len(tables), len(tables)))
    for i, ti in enumerate(tables):
        _weighted(dist.probs, ti.plus, ti.lut - ti.mean, w)  # then (p * d_i) * d_j
        for j, tj in enumerate(tables[i:], start=i):
            c[i, j] = c[j, i] = float(_weighted(w, tj.plus, tj.lut - tj.mean, x).sum())
    return c
