"""Exact closed-form quantities on a known distribution.

Every function here enumerates the finite atom table directly, so results
are exact up to float summation.  Nothing in this module looks at data;
the data-driven counterparts live in ``estimator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .model import (
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

# Most float64s one ``.sum()`` call of a replayed pairwise sum adds: 512 KiB.
LEAF_ELEMENTS = 2**16


@dataclass(frozen=True, eq=False)
class InfluenceTable:
    """An influence variable v(x, y) = lut[plus[x], y] with its mean E v.
    The lut is read-only, and so is an ``optimal_predictor`` mask."""

    plus: np.ndarray
    lut: np.ndarray
    mean: float


def _expand(lut: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """The (len(plus), 2) rows lut[plus[x], :] of a two-valued table."""
    return np.take(lut, plus.view(np.int8), axis=0)


def _split(n: int) -> int:
    """Where numpy's pairwise sum of n float64s splits them, or 0 for a leaf.

    numpy splits at ``n2 = n // 2; n2 -= n2 % 8`` down to 128 elements, which
    it adds in an unrolled loop; a replay stops at LEAF_ELEMENTS or there and
    lets ``.sum()`` do the rest, which gives the same bits."""
    if n <= max(LEAF_ELEMENTS, 128):
        return 0
    n2 = n // 2
    return n2 - n2 % 8


def _leaves(n: int) -> list[int]:
    """The leaf lengths of the pairwise tree over n elements, left to right."""
    n2 = _split(n)
    return _leaves(n2) + _leaves(n - n2) if n2 else [n]


def _combine(n: int, leaf_sums) -> float:
    """Add leaf sums (an iterator, left to right) back up the tree over n."""
    n2 = _split(n)
    return _combine(n2, leaf_sums) + _combine(n - n2, leaf_sums) if n2 else next(leaf_sums)


def _table_sums(
    dist: JointDistribution,
    plus_masks: Sequence[np.ndarray],
    terms: Callable[[np.ndarray, list], Iterable[np.ndarray]],
    lengths: Sequence[int],
) -> list[float]:
    """``.sum()`` of each term's values, bit for bit, in one pass over the
    table and without a table-sized array.  ``plus_masks`` are predictors:
    each the bool mask of the points it sends to +1, in rank order.

    ``terms(p, plus)`` yields, for the probs rows ``p`` and the masks' rows
    ``plus`` of one block of points, each term's next values in order; term
    t has ``lengths[t]`` values in all.  The blocks are the leaves of the
    pairwise tree over the flattened (num_points, 2) table, so a term with
    one value per entry sums each block whole; a shorter term carries its
    values over into its own tree's leaves.  Leaf sums add up each tree.
    """
    for f in plus_masks:
        if f.dtype != np.bool_ or f.shape != dist.probs.shape[:1]:
            raise ValidationError("a predictor needs one bool per point of its space")
    todo = [_leaves(n)[::-1] for n in lengths]  # each term's leaves, next last
    sums = [[] for _ in lengths]
    carry = [np.empty(0)] * len(lengths)
    a = 0
    for size in _leaves(dist.probs.size):  # splits of an even length are even
        b = a + size // 2
        for t, v in enumerate(terms(dist.probs[a:b], [m[a:b] for m in plus_masks])):
            v = np.concatenate((carry[t], v.ravel())) if carry[t].size else v.ravel()
            i = 0
            while todo[t] and v.size - i >= todo[t][-1]:
                sums[t].append(v[i : i + todo[t][-1]].sum())
                i += todo[t].pop()
            carry[t] = v[i:] if i < v.size else np.empty(0)  # drop the block
        a = b
    return [float(_combine(n, iter(s))) for n, s in zip(lengths, sums)]


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


def high_risk_set(dist: JointDistribution, psi: PenaltyFunction) -> np.ndarray:
    """Points of the support whose conditional P(Y=1 | X=x) strictly exceeds
    the threshold, the minimal-cardinality error-optimal plus-set, as the
    (k, n) int16 levels of its points in rank order, which is lexicographic.

    Strict inequality is resolved with the EQUALITY_TOL tolerance so that
    authored exact ties stay out of the set regardless of rounding.
    """
    return dist.space.points(np.flatnonzero(optimal_predictor(dist, psi)))


def optimal_predictor(
    dist: JointDistribution,
    psi: PenaltyFunction,
    subset: FactorSubset | None = None,
    within: np.ndarray | None = None,
) -> np.ndarray:
    """The error-minimizing predictor that looks only at the given factors,
    as the read-only bool mask of the points it sends to +1, in rank order.

    +1 exactly on support points whose cylinder conditional strictly
    exceeds the threshold; -1 elsewhere, including off the support.
    ``subset=None`` means all factors, i.e. pointwise conditionals.  Each cell
    decides once; ``within``: ``cylinder_masses`` of a superset of the subset.
    """
    # ties resolve to -1: strict inequality, with the tolerance shielding
    # authored exact ties from rounding; psi(+1) = 0 puts the threshold at 1
    above = _conditionals(dist, subset, within) > psi.threshold + EQUALITY_TOL
    plus = (above & dist.support_mask().reshape(dist.space.grid_shape)).reshape(-1)  # one alloc
    plus.flags.writeable = False
    return plus


def _misses(dist: JointDistribution, plus_masks) -> list[tuple[float, float]]:
    """(P(Y=-1, f(X)=+1), P(Y=+1, f(X)=-1)) per predictor mask, bit for bit
    ``probs[f, 0].sum()`` and ``probs[~f, 1].sum()``: one pass of block gathers."""
    counts = [int(np.count_nonzero(f)) for f in plus_masks]
    P = dist.space.num_points

    def terms(p, plus):
        for f in plus:
            yield p[:, 0][f]
            yield p[:, 1][~f]

    sums = _table_sums(dist, plus_masks, terms, [n for k in counts for n in (k, P - k)])
    return list(zip(sums[::2], sums[1::2]))


def prediction_error(
    dist: JointDistribution, psi: PenaltyFunction, plus: np.ndarray, misses=None
) -> float:
    """Expected penalized loss 2 * sum_y psi(y) P(Y=y, f(X) != y) of the
    predictor f with mask ``plus``; pass ``misses`` when the two masses of
    ``_misses`` are at hand."""
    miss_neg, miss_pos = misses or _misses(dist, [plus])[0]
    return 2.0 * (psi.psi_neg * miss_neg + psi.psi_pos * miss_pos)


def is_significant(dist: JointDistribution, subset: FactorSubset) -> bool:
    """Whether the conditional law of Y given X depends only on these factors.

    True iff P(Y=1 | X=x) equals the subset's cylinder conditional at every
    support point, within EQUALITY_TOL.
    """
    gap = (_conditionals(dist, None) - _conditionals(dist, subset)).reshape(-1)
    return bool(np.all(np.abs(gap[dist.support_mask()]) <= EQUALITY_TOL))


def influence_table(dist: JointDistribution, plus: np.ndarray) -> InfluenceTable:
    """The influence variable behind the CLT, columns y = -1 and y = +1:

        v(x, y) = (2 / P(Y=y)) * (1{f(x) != y} - P(f(X) != y | Y=y))

    with f the predictor with mask ``plus``; the CLT scale of a subset's
    cross-validated error uses its optimal predictor under balanced
    penalties.  The mean of v under the distribution is exactly zero.
    """
    return _influence_tables(dist, [plus], _misses(dist, [plus]))[0]


def _influence_tables(dist: JointDistribution, plus_masks, misses) -> list[InfluenceTable]:
    """``influence_table`` of each mask, given its misses: one pass for the means."""
    p_pos = label_marginal(dist, 1)
    p_neg = 1.0 - p_pos
    luts = []
    for miss_neg, miss_pos in misses:
        lut = np.empty((2, 2))  # row 1 holds the points f sends to +1
        lut[:, 0] = (2.0 / p_neg) * (np.array([0.0, 1.0]) - miss_neg / p_neg)
        lut[:, 1] = (2.0 / p_pos) * (np.array([1.0, 0.0]) - miss_pos / p_pos)
        lut.flags.writeable = False
        luts.append(lut)

    def terms(p, plus):
        return (p * _expand(lut, f) for lut, f in zip(luts, plus))

    means = _table_sums(dist, plus_masks, terms, [dist.probs.size] * len(luts))
    return [InfluenceTable(f, lut, mean) for f, lut, mean in zip(plus_masks, luts, means)]


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
    masks = [optimal_predictor(dist, psi, s, within) for s in subsets]
    misses = _misses(dist, masks)
    errors = tuple(prediction_error(dist, psi, f, m) for f, m in zip(masks, misses))
    return errors, _influence_tables(dist, masks, misses)


def asymptotic_moments(
    dist: JointDistribution, tables: Sequence[InfluenceTable]
) -> tuple[list[float], np.ndarray]:
    """Exact variances and covariance matrix of several influence variables,
    one ``influence_table`` per subset, in one pass over the table: each
    variance is ``sum(p * d**2)`` and each covariance entry, the diagonal
    too, ``sum((p * d_i) * d_j)``, with d = v - E v."""
    if len(tables) < 1:
        raise ValidationError("need at least one subset")
    for t in tables:
        if abs(t.mean) > 1e-12:
            raise ValidationError(f"influence variable mean {t.mean} not zero; table corrupt?")
    devs = [t.lut - t.mean for t in tables]
    pairs = [(i, j) for i in range(len(tables)) for j in range(i, len(tables))]

    def terms(p, plus):
        d = [_expand(dev, f) for dev, f in zip(devs, plus)]
        pd = [p * di for di in d]
        yield from (p * (di * di) for di in d)
        yield from (pd[i] * d[j] for i, j in pairs)

    sums = _table_sums(
        dist, [t.plus for t in tables], terms, [dist.probs.size] * (len(tables) + len(pairs))
    )
    c = np.zeros((len(tables), len(tables)))
    for (i, j), s in zip(pairs, sums[len(tables) :]):
        c[i, j] = c[j, i] = s
    return sums[: len(tables)], c


def asymptotic_variance(dist: JointDistribution, table: InfluenceTable) -> float:
    """Exact variance of an influence variable given by its ``influence_table``;
    the CLT scale for the cross-validated error of that table's predictor."""
    return asymptotic_moments(dist, [table])[0][0]


def asymptotic_covariance(
    dist: JointDistribution, tables: Sequence[InfluenceTable]
) -> np.ndarray:
    """Exact covariance matrix of several influence variables, one
    ``influence_table`` per subset."""
    return asymptotic_moments(dist, tables)[1]
