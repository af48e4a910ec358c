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
    CDF_CHUNK,
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
# The least P(Y=1) whose squared CLT scale (2 / P(Y=1))**2 is finite.
MIN_POSITIVE_MASS = 2.0 / float(np.sqrt(np.finfo(np.float64).max))


@dataclass(frozen=True, eq=False)
class InfluenceTable:
    """An influence variable v(x, y) = lut[plane[x], y] with its mean E v.

    The predictor sends x to +1 iff bit ``bit`` of ``plane[x]`` is set; the
    uint8 plane holds up to 8 predictors, one bit each, and is shared by
    their tables.  The (256, 2) lut repeats, at each byte, the row of the
    predictor's two-valued table that the byte's bit picks.  The lut is
    read-only, and so is a plane that ``subset_oracle`` makes."""

    plane: np.ndarray
    bit: int
    lut: np.ndarray
    mean: float


def _split(n: int, cap: int) -> int:
    """Where numpy's pairwise sum of n float64s splits them, or 0 for a leaf.

    numpy splits at ``n2 = n // 2; n2 -= n2 % 8`` down to 128 elements, which
    it adds in an unrolled loop; a replay stops at ``cap`` or there and lets
    ``.sum()`` do the rest, which gives the same bits."""
    if n <= max(cap, 128):
        return 0
    n2 = n // 2
    return n2 - n2 % 8


def _leaves(n: int, cap: int) -> list[int]:
    """The leaf lengths of the pairwise tree over n elements, left to right."""
    n2 = _split(n, cap)
    return _leaves(n2, cap) + _leaves(n - n2, cap) if n2 else [n]


def _combine(n: int, leaf_sums, cap: int):
    """Add leaf sums (an iterator, left to right) back up the tree over n;
    a leaf sum may be an array, one entry per tree of n values."""
    n2 = _split(n, cap)
    if not n2:
        return next(leaf_sums)
    return _combine(n2, leaf_sums, cap) + _combine(n - n2, leaf_sums, cap)


def _table_sums(
    dist: JointDistribution,
    planes: Sequence[np.ndarray],
    terms: Callable[[np.ndarray, list], Iterable[np.ndarray]],
    lengths: Sequence[int],
) -> list[float]:
    """``.sum()`` of each term's values, bit for bit, in one pass over the
    table and without a table-sized array.  ``planes`` hold predictors, one
    byte per point in rank order (``InfluenceTable``).

    ``terms(p, rows)`` yields, for the probs rows ``p`` and the planes' rows
    ``rows`` of one block of points, each term's next values in order; term
    t has ``lengths[t]`` values in all.  The blocks are the leaves of the
    pairwise tree over the flattened (num_points, 2) table, so a term with
    one value per entry sums each block whole; a shorter term carries its
    values over into its own tree's leaves.  Leaf sums add up each tree.
    Leaves hold at most CDF_CHUNK // len(planes) values, so the memory of
    a pass, about two leaves per predictor, does not grow with their
    number.  The terms of one length climb their trees together: one walk
    adds their leaf sums as arrays, the same adds as one walk per term.
    """
    cap = CDF_CHUNK // max(len(planes), 1)
    trees = {n: _leaves(n, cap) for n in {dist.probs.size, *lengths}}
    todo = [trees[n][::-1] for n in lengths]  # each term's leaves, next last
    sums = [[] for _ in lengths]
    carry = [np.empty(0)] * len(lengths)
    a = 0
    for size in trees[dist.probs.size]:  # splits of an even length are even
        b = a + size // 2
        for t, v in enumerate(terms(dist.probs[a:b], [f[a:b] for f in planes])):
            v = np.concatenate((carry[t], v.ravel())) if carry[t].size else v.ravel()
            i = 0
            while todo[t] and v.size - i >= todo[t][-1]:
                sums[t].append(v[i : i + todo[t][-1]].sum())
                i += todo[t].pop()
            carry[t] = v[i:] if i < v.size else np.empty(0)  # drop the block
        a = b
    out = [0.0] * len(lengths)
    for n in set(lengths):
        ts = [t for t, k in enumerate(lengths) if k == n]
        for t, v in zip(ts, _combine(n, iter(np.array([sums[t] for t in ts]).T), cap)):
            out[t] = float(v)
    return out


def balanced_penalty(dist: JointDistribution) -> PenaltyFunction:
    """Inverse class-frequency weights psi(y) = 1 / P(Y=y).

    With these weights the classification threshold equals P(Y=1), so the
    predictor flags exactly the points whose conditional risk exceeds the
    prevalence.  A P(Y=1) below ``MIN_POSITIVE_MASS`` is refused: its
    influence variances overflow.
    """
    if (p_pos := label_marginal(dist, 1)) < MIN_POSITIVE_MASS:
        raise ValidationError(f"P(Y=1) = {p_pos!r} is below {MIN_POSITIVE_MASS!r}, "
                              "where the squared CLT scale (2 / P(Y=1))**2 overflows")
    return PenaltyFunction(1.0 / (1.0 - p_pos), 1.0 / p_pos)


def _subset_conditionals(
    dist: JointDistribution, subsets: Sequence[FactorSubset]
) -> list[np.ndarray | None]:
    """P(Y=1 | X in C) per cell of each subset, 0 on cells without mass, as
    an array that broadcasts against the point grid, summed down from one
    ``cylinder_masses`` over the union of their factors; None for a subset
    of every factor, which joins no union: its cells are the points."""
    space = dist.space
    for s in subsets:
        s.validate_for(space)
    union = sorted({i for s in subsets if s.r < space.n for i in s.indices})
    masses = cylinder_masses(dist, FactorSubset(tuple(union))) if union else None

    def cells(s: FactorSubset) -> np.ndarray:
        m = masses.sum(axis=tuple(i - 1 for i in union if i not in s.indices), keepdims=True)
        return cell_conditionals(m[..., 0] + m[..., 1], m[..., 1])

    return [cells(s) if s.r < space.n else None for s in subsets]


def _point_slabs(dist: JointDistribution):
    """The pointwise conditional p1 / (p0 + p1) one slab of the point grid at
    a time, over its leading axes, each slab at most CDF_CHUNK // 2 points:
    yields (slab index, P(X=x), P(Y=1 | X=x) with 0 where P(X=x) = 0)."""
    space = dist.space
    table = dist.probs.reshape(space.grid_shape + (2,))
    lead = 0  # leading axes indexed
    while lead < space.n and (space.q + 1) ** (space.n - lead) > CDF_CHUNK // 2:
        lead += 1
    for idx in np.ndindex(space.grid_shape[:lead]):
        p = table[idx]
        tot = p[..., 0] + p[..., 1]
        yield idx, tot, cell_conditionals(tot, p[..., 1])


def high_risk_set(dist: JointDistribution, psi: PenaltyFunction) -> np.ndarray:
    """Points of the support whose conditional P(Y=1 | X=x) strictly exceeds
    the threshold, the minimal-cardinality error-optimal plus-set, as the
    (k, n) int16 levels of its points in rank order, which is lexicographic.

    Strict inequality is resolved with the EQUALITY_TOL tolerance so that
    authored exact ties stay out of the set regardless of rounding.
    """
    return dist.space.points(np.flatnonzero(optimal_predictor(dist, psi)))


def _planes(
    dist: JointDistribution, psi: PenaltyFunction, subsets: Sequence[FactorSubset]
) -> list[np.ndarray]:
    """The optimal predictors of the subsets as read-only uint8 planes, one
    per 8 subsets: bit i % 8 of plane i // 8 is set on the points subset
    i's predictor sends to +1, and every bit is 0 off the support.  Each
    cell decides once, on the table's marginal over the union of the
    subsets, and its decision is OR-ed into its plane by broadcasting over
    the grid; a subset of every factor decides point by point, one
    ``_point_slabs`` slab at a time, and joins no union.  The support is
    applied one slab's worth of points at a time."""
    space = dist.space
    conds = _subset_conditionals(dist, subsets)
    P, step = space.num_points, CDF_CHUNK // 2
    planes = [np.zeros(P, dtype=np.uint8) for _ in range(0, len(subsets), 8)]
    # ties resolve to -1: strict inequality, with the tolerance shielding
    # authored exact ties from rounding; psi(+1) = 0 puts the threshold at 1
    threshold = psi.threshold + EQUALITY_TOL
    for i, cell_cond in enumerate(conds):
        plane = planes[i // 8].reshape(space.grid_shape)
        if cell_cond is None:
            for idx, _, cond in _point_slabs(dist):
                plane[idx] |= np.left_shift(cond > threshold, i % 8, dtype=np.uint8)
        else:
            plane |= np.left_shift(cell_cond > threshold, i % 8, dtype=np.uint8)
    for a in range(0, P, step):
        on = dist.support_mask(a, a + step).view(np.uint8)  # 0/1: no cast buffer
        for plane in planes:
            plane[a : a + step] *= on
    for plane in planes:
        plane.flags.writeable = False
    return planes


def optimal_predictor(
    dist: JointDistribution, psi: PenaltyFunction, subset: FactorSubset | None = None
) -> np.ndarray:
    """The error-minimizing predictor that looks only at the given factors,
    as the read-only bool mask of the points it sends to +1, in rank order.

    +1 exactly on support points whose cylinder conditional strictly
    exceeds the threshold; -1 elsewhere, including off the support.
    ``subset=None`` means every factor, whose cylinder conditional is the
    pointwise one.
    """
    if subset is None:
        subset = FactorSubset(tuple(range(1, dist.space.n + 1)))
    return _planes(dist, psi, [subset])[0].view(np.bool_)  # a plane of bit 0


def _mask_plane(dist: JointDistribution, plus: np.ndarray) -> np.ndarray:
    """A predictor's bool mask as a plane of its own, bit 0, uncopied."""
    plus = np.asarray(plus)
    if plus.dtype != np.bool_ or plus.shape != (dist.space.num_points,):
        raise ValidationError("a predictor needs one bool per point of its space")
    return plus.view(np.uint8)


def _misses(dist: JointDistribution, predictors) -> list[tuple[float, float]]:
    """(P(Y=-1, f(X)=+1), P(Y=+1, f(X)=-1)) per predictor, a (plane, bit)
    pair, bit for bit ``probs[f, 0].sum()`` and ``probs[~f, 1].sum()`` of
    its bool mask f: one pass of block gathers."""
    P, step = dist.space.num_points, CDF_CHUNK // 2
    counts = [
        sum(int(np.count_nonzero(plane[a : a + step] & (1 << bit))) for a in range(0, P, step))
        for plane, bit in predictors
    ]

    def terms(p, rows):
        for (_, bit), r in zip(predictors, rows):
            f = (r & (1 << bit)).astype(np.bool_)
            yield p[:, 0][f]
            yield p[:, 1][~f]

    sums = _table_sums(dist, [plane for plane, _ in predictors], terms,
                       [n for k in counts for n in (k, P - k)])
    return list(zip(sums[::2], sums[1::2]))


def prediction_error(
    dist: JointDistribution, psi: PenaltyFunction, plus: np.ndarray | None, misses=None
) -> float:
    """Expected penalized loss 2 * sum_y psi(y) P(Y=y, f(X) != y) of the
    predictor f with mask ``plus``; pass ``misses`` when the two masses of
    ``_misses`` are at hand, and ``plus`` is not read."""
    miss_neg, miss_pos = misses or _misses(dist, [(_mask_plane(dist, plus), 0)])[0]
    return 2.0 * (psi.psi_neg * miss_neg + psi.psi_pos * miss_pos)


def significance(dist: JointDistribution, subsets: Sequence[FactorSubset]) -> list[bool]:
    """Per subset, whether the conditional law of Y given X depends only on
    its factors.

    True iff P(Y=1 | X=x) equals the subset's cylinder conditional at every
    support point, within EQUALITY_TOL.  The cylinder conditionals come
    from one marginal over the union of the subsets, as the predictors'
    do; one ``_point_slabs`` walk compares them with the pointwise one and
    stops once every subset has failed.  A subset of every factor is True
    unread, as its cylinder conditional is the pointwise one.
    """
    conds = _subset_conditionals(dist, subsets)
    grid = dist.space.grid_shape
    held = {i: np.broadcast_to(c, grid) for i, c in enumerate(conds) if c is not None}
    for idx, tot, cond in _point_slabs(dist) if held else ():
        on = tot > 0.0
        held = {i: c for i, c in held.items()
                if np.all(np.abs(cond - c[idx])[on] <= EQUALITY_TOL)}
        if not held:
            break
    return [c is None or i in held for i, c in enumerate(conds)]


def influence_table(dist: JointDistribution, plus: np.ndarray) -> InfluenceTable:
    """The influence variable behind the CLT, columns y = -1 and y = +1:

        v(x, y) = (2 / P(Y=y)) * (1{f(x) != y} - P(f(X) != y | Y=y))

    with f the predictor with mask ``plus``; the CLT scale of a subset's
    cross-validated error uses its optimal predictor under balanced
    penalties.  The mean of v under the distribution is exactly zero.
    """
    predictor = [(_mask_plane(dist, plus), 0)]
    return _influence_tables(dist, predictor, _misses(dist, predictor))[0]


def _influence_tables(dist: JointDistribution, predictors, misses) -> list[InfluenceTable]:
    """``influence_table`` of each (plane, bit) predictor, given its misses:
    one pass for the means."""
    p_pos = label_marginal(dist, 1)
    p_neg = 1.0 - p_pos
    luts = []
    for (_, bit), (miss_neg, miss_pos) in zip(predictors, misses):
        lut = np.empty((2, 2))  # row 1 holds the points f sends to +1
        lut[:, 0] = (2.0 / p_neg) * (np.array([0.0, 1.0]) - miss_neg / p_neg)
        lut[:, 1] = (2.0 / p_pos) * (np.array([1.0, 0.0]) - miss_pos / p_pos)
        lut = lut[(np.arange(256) >> bit) & 1]  # the row of each plane byte
        lut.flags.writeable = False
        luts.append(lut)

    def terms(p, rows):
        return (p * np.take(lut, r, axis=0) for lut, r in zip(luts, rows))

    planes = [plane for plane, _ in predictors]
    means = _table_sums(dist, planes, terms, [dist.probs.size] * len(luts))
    return [InfluenceTable(plane, bit, lut, mean)
            for (plane, bit), lut, mean in zip(predictors, luts, means)]


def subset_oracle(
    dist: JointDistribution, subsets: Sequence[FactorSubset]
) -> tuple[tuple[float, ...], list[InfluenceTable]]:
    """Per subset, the exact error of its balanced-penalty optimal predictor
    and that predictor's ``influence_table``: one predictor per subset, its
    cells decided on the table's marginal over the union of the subsets,
    and one predictor plane per 8 subsets, shared by their tables.
    ``run_replications`` takes the errors; ``asymptotic_*`` take the tables.
    """
    psi = balanced_penalty(dist)
    planes = _planes(dist, psi, subsets)
    predictors = [(planes[i // 8], i % 8) for i in range(len(subsets))]
    misses = _misses(dist, predictors)
    errors = tuple(prediction_error(dist, psi, None, m) for m in misses)
    return errors, _influence_tables(dist, predictors, misses)


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

    def terms(p, rows):
        d = [np.take(dev, r, axis=0) for dev, r in zip(devs, rows)]
        yield from (p * (di * di) for di in d)
        for i, di in enumerate(d):  # one p * d_i at a time: the pairs (i, j >= i)
            pd = p * di
            yield from (pd * dj for dj in d[i:])

    sums = _table_sums(
        dist, [t.plane for t in tables], terms, [dist.probs.size] * (len(tables) + len(pairs))
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
