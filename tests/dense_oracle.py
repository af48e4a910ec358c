"""The dense exact-oracle recipe, kept as the tests' reference.

Every point is coded to its cell with an int64 code array, decisions are
read per point through those codes, each subset gets a full
(num_points, 2) influence table, and the variance and covariance are
reductions over products of full tables.  ``mdrcv.oracle`` decides per
cell and reduces through two-value lookups instead; on every table the
reported floats must equal this recipe's bit for bit.
"""

import numpy as np

from mdrcv.model import cell_conditionals, cylinder_codes
from mdrcv.oracle import EQUALITY_TOL, balanced_penalty


def masses_by_codes(dist, subset):
    """(P(X in C), P(Y=1, X in C)) per cell code, and every point's code."""
    space = dist.space
    pts = np.indices(space.grid_shape).reshape(space.n, -1).T
    codes = cylinder_codes(pts, subset, space.q)
    cells = (space.q + 1) ** subset.r
    tot = np.bincount(codes, weights=dist.point_probs(), minlength=cells)
    pos = np.bincount(codes, weights=dist.probs[:, 1], minlength=cells)
    return tot, pos, codes


def conditional_at_points(dist, subset=None):
    """The cylinder conditional of each point's cell; pointwise for None."""
    if subset is None:
        return cell_conditionals(dist.point_probs(), dist.probs[:, 1])
    tot, pos, codes = masses_by_codes(dist, subset)
    return cell_conditionals(tot, pos)[codes]


def plus_mask(dist, psi, subset=None):
    """The optimal predictor's +1 points, decided point by point."""
    threshold = psi.threshold * (1.0 + EQUALITY_TOL)  # relative: keeps its scale near 0
    plus = dist.support_mask() & (conditional_at_points(dist, subset) > threshold)
    if psi.psi_pos == 0.0:
        plus[:] = False
    return plus


def error(dist, psi, plus):
    miss_neg = float(dist.probs[plus, 0].sum())
    miss_pos = float(dist.probs[~plus, 1].sum())
    return 2.0 * (psi.psi_neg * miss_neg + psi.psi_pos * miss_pos)


def influence(dist, plus):
    """The dense (num_points, 2) influence table of the predictor."""
    p_pos = float(dist.probs[:, 1].sum())
    p_neg = 1.0 - p_pos
    miss_neg = float(dist.probs[plus, 0].sum()) / p_neg
    miss_pos = float(dist.probs[~plus, 1].sum()) / p_pos
    v = np.empty((dist.space.num_points, 2))
    v[:, 0] = (2.0 / p_neg) * (plus.astype(float) - miss_neg)
    v[:, 1] = (2.0 / p_pos) * ((~plus).astype(float) - miss_pos)
    return v


def variance(dist, v):
    mean = float((dist.probs * v).sum())
    return float((dist.probs * (v - mean) ** 2).sum())


def covariance(dist, tables):
    means = [float((dist.probs * v).sum()) for v in tables]
    s = len(tables)
    c = np.zeros((s, s))
    for i in range(s):
        for j in range(i, s):
            c[i, j] = c[j, i] = float(
                (dist.probs * (tables[i] - means[i]) * (tables[j] - means[j])).sum()
            )
    return c


def oracle(dist, subsets):
    """(errors, variances, covariance) of the subsets' balanced optimal
    predictors, with one dense influence table per subset."""
    psi = balanced_penalty(dist)
    masks = [plus_mask(dist, psi, s) for s in subsets]
    tables = [influence(dist, m) for m in masks]
    return (
        tuple(error(dist, psi, m) for m in masks),
        [variance(dist, v) for v in tables],
        covariance(dist, tables),
    )
