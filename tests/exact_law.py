"""The exact finite-N law of the cross-validated error, kept as the tests'
referee for the Monte Carlo harness on tiny tables.

Fold k's (label, cell) count table is Multinomial(N_k, P(Y=y, X in C)),
independently of the other folds, so for a few cells and a small N every
joint table can be listed with its probability.  The CV error of each is
read off ``cv_error_stack``, the harness's own formula: the referee checks
what the harness samples, folds and counts, not the formula.  The plug-in
sd depends only on the whole-sample table, Multinomial(N, P); it is read
off ``influence_values`` and ``plugin_moments`` with the records in cell
order, so it matches the harness's up to summation order.
"""

import itertools
import math

import numpy as np

from mdrcv.estimator import cv_error_stack, fold_index, influence_values, plugin_moments
from mdrcv.model import cylinder_masses


def compositions(n_draws, probs):
    """Every count vector over len(probs) categories summing to n_draws,
    as an (T, len(probs)) int array, with its multinomial probability."""
    m = len(probs)
    counts = np.array([np.bincount(c, minlength=m) for c in
                       itertools.combinations_with_replacement(range(m), n_draws)])
    coef = [math.factorial(n_draws) // math.prod(map(math.factorial, row))
            for row in counts.tolist()]
    return counts, np.array(coef, dtype=float) * np.prod(np.asarray(probs) ** counts, axis=1)


class ExactLaw:
    """The exact law of one subset's CV error and plug-in sd at (N, K, eps).

    ``values`` and ``weights``: the CV error of every joint fold table and
    its probability; ``one_class``: whether that table has a fold without
    one of the labels.  ``sds`` and ``sd_weights``: the plug-in sd of every
    whole-sample table and its probability."""

    def __init__(self, dist, subset, n_records, n_folds, eps):
        p = cylinder_masses(dist, subset).reshape(-1, 2).T  # (label, cell), y = -1 first
        cells = p.shape[1]
        sizes = np.bincount(fold_index(n_records, n_folds))
        per_fold = [compositions(int(size), p.ravel()) for size in sizes]
        picks = np.indices([len(c) for c, _ in per_fold]).reshape(len(sizes), -1)
        tables = np.stack([c[i] for (c, _), i in zip(per_fold, picks)], axis=1)
        self.weights = np.prod([w[i] for (_, w), i in zip(per_fold, picks)], axis=0)
        counts = tables.reshape(-1, n_folds, 2, cells)
        self.values = cv_error_stack(counts, eps)[0]
        self.one_class = (counts.sum(-1) == 0).any(axis=(-2, -1))

        whole, self.sd_weights = compositions(n_records, p.ravel())
        # each record's key into the flattened (T, 1, 2, cells) stack, cell order
        keys = np.array([np.repeat(np.arange(2 * cells), row) for row in whole])
        keys += 2 * cells * np.arange(len(whole))[:, None]
        values = influence_values(keys, whole.reshape(-1, 1, 2, cells), eps)
        self.sds = plugin_moments(values[:, None, :])[0][:, 0]


def ks_distance(samples, atoms, weights, tol=0.0):
    """Sup distance between the empirical CDF of the samples and the
    discrete law with these atoms and weights.  Atoms within ``tol`` of each
    other are one atom; every sample must lie within ``tol`` of an atom."""
    order = np.argsort(atoms, kind="stable")
    atoms, weights = np.asarray(atoms)[order], np.asarray(weights)[order]
    starts = np.flatnonzero(np.r_[True, np.diff(atoms) > tol])
    support, mass = atoms[starts], np.add.reduceat(weights, starts)
    ends = np.r_[atoms[starts[1:] - 1], atoms[-1]]  # each merged atom's last value
    samples = np.asarray(samples)
    at = np.searchsorted(ends, samples - tol)  # the first atom not below the sample
    assert np.all(at < len(support)), "a sample lies past every atom"
    assert np.all(samples >= support[at] - tol), "a sample lies off the atoms"
    empirical = np.cumsum(np.bincount(at, minlength=len(support))) / len(samples)
    return float(np.max(np.abs(empirical - np.cumsum(mass))))
