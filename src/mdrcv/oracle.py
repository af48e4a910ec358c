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
)

# Separates authored exact ties from double-precision rounding noise in
# comparisons against the threshold.
EQUALITY_TOL = 1e-10


@dataclass(frozen=True)
class Predictor:
    """A total function {0..q}^n -> {-1,+1}, stored as a table.

    ``values`` follows the lexicographic point enumeration.
    """

    space: FactorSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.int8)
        if v.shape != (self.space.num_points,):
            raise ValidationError(
                f"predictor table must cover all {self.space.num_points} points"
            )
        if not np.all(np.isin(v, (-1, 1))):
            raise ValidationError("predictor values must be -1 or +1")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def plus_set(self) -> set[tuple[int, ...]]:
        ranks = np.flatnonzero(self.values == 1)
        return set(map(tuple, self.space.points(ranks).tolist()))


def balanced_penalty(dist: JointDistribution) -> PenaltyFunction:
    """Inverse class-frequency weights psi(y) = 1 / P(Y=y).

    With these weights the classification threshold equals P(Y=1), so the
    predictor flags exactly the points whose conditional risk exceeds the
    prevalence.
    """
    p_pos = label_marginal(dist, 1)
    return PenaltyFunction(1.0 / (1.0 - p_pos), 1.0 / p_pos)


def _conditional_at_points(
    dist: JointDistribution, subset: FactorSubset | None
) -> np.ndarray:
    """Per point of the table: the cylinder conditional of its cell, 0 on
    cells without mass.  ``subset=None`` reads the pointwise conditional
    straight off the table."""
    if subset is None:
        return cell_conditionals(dist.point_probs(), dist.probs[:, 1])
    tot, pos, codes = cylinder_masses(dist, subset)
    return cell_conditionals(tot, pos)[codes]


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
) -> Predictor:
    """The error-minimizing predictor that looks only at the given factors.

    +1 exactly on support points whose cylinder conditional strictly
    exceeds the threshold; -1 elsewhere, including off the support.
    ``subset=None`` means all factors, i.e. pointwise conditionals.
    """
    cond = _conditional_at_points(dist, subset)
    # ties at the threshold resolve to -1: strict inequality, with the
    # tolerance shielding authored exact ties from rounding noise
    plus = dist.support_mask() & (cond > psi.threshold + EQUALITY_TOL)
    if psi.psi_pos == 0.0:
        plus[:] = False
    values = np.where(plus, 1, -1).astype(np.int8)
    return Predictor(dist.space, values)


def prediction_error(
    dist: JointDistribution, psi: PenaltyFunction, predictor: Predictor
) -> float:
    """Expected penalized loss 2 * sum_y psi(y) P(Y=y, f(X) != y)."""
    f = predictor.values
    miss_neg = float(dist.probs[f == 1, 0].sum())   # true -1, predicted +1
    miss_pos = float(dist.probs[f == -1, 1].sum())  # true +1, predicted -1
    return 2.0 * (psi.psi_neg * miss_neg + psi.psi_pos * miss_pos)


def is_significant(dist: JointDistribution, subset: FactorSubset) -> bool:
    """Whether the conditional law of Y given X depends only on these factors.

    True iff P(Y=1 | X=x) equals the subset's cylinder conditional at every
    support point, within EQUALITY_TOL.
    """
    cell_cond = _conditional_at_points(dist, subset)
    point_cond = _conditional_at_points(dist, None)
    mask = dist.support_mask()
    return bool(np.all(np.abs(point_cond[mask] - cell_cond[mask]) <= EQUALITY_TOL))


def influence_table(dist: JointDistribution, predictor: Predictor) -> np.ndarray:
    """Per-atom values of the influence variable behind the CLT.

    Shape (num_points, 2), columns y = -1 and y = +1:

        v(x, y) = (2 / P(Y=y)) * (1{f(x) != y} - P(f(X) != y | Y=y))

    with f the given predictor; the CLT scale of a subset's cross-validated
    error uses its optimal predictor under balanced penalties.  The mean of
    v under the distribution is exactly zero.
    """
    f = predictor.values
    p_pos = label_marginal(dist, 1)
    p_neg = 1.0 - p_pos
    miss_neg = float(dist.probs[f == 1, 0].sum()) / p_neg
    miss_pos = float(dist.probs[f == -1, 1].sum()) / p_pos
    v = np.empty((dist.space.num_points, 2))
    v[:, 0] = (2.0 / p_neg) * ((f == 1).astype(float) - miss_neg)
    v[:, 1] = (2.0 / p_pos) * ((f == -1).astype(float) - miss_pos)
    return v


def subset_oracle(
    dist: JointDistribution, subsets: Sequence[FactorSubset]
) -> tuple[tuple[float, ...], list[np.ndarray]]:
    """Per subset, the exact error of its balanced-penalty optimal predictor
    and that predictor's ``influence_table``: one predictor per subset.

    ``run_replications`` takes the errors; ``asymptotic_variance`` and
    ``asymptotic_covariance`` take the tables.
    """
    psi = balanced_penalty(dist)
    predictors = [optimal_predictor(dist, psi, s) for s in subsets]
    errors = tuple(prediction_error(dist, psi, f) for f in predictors)
    return errors, [influence_table(dist, f) for f in predictors]


def asymptotic_variance(dist: JointDistribution, table: np.ndarray) -> float:
    """Exact variance of an influence variable given by its ``influence_table``;
    the CLT scale for the cross-validated error of that table's predictor."""
    mean = float((dist.probs * table).sum())
    if abs(mean) > 1e-12:
        raise ValidationError(f"influence variable mean {mean} not zero; table corrupt?")
    var = float((dist.probs * (table - mean) ** 2).sum())
    return var


def asymptotic_covariance(
    dist: JointDistribution, tables: Sequence[np.ndarray]
) -> np.ndarray:
    """Exact covariance matrix of several influence variables, one
    ``influence_table`` per subset."""
    if len(tables) < 1:
        raise ValidationError("need at least one subset")
    means = [float((dist.probs * v).sum()) for v in tables]
    s = len(tables)
    c = np.zeros((s, s))
    for i in range(s):
        for j in range(i, s):
            cij = float(
                (dist.probs * (tables[i] - means[i]) * (tables[j] - means[j])).sum()
            )
            c[i, j] = cij
            c[j, i] = cij
    return c
