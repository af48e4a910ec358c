"""Shared fixtures: small hand-enumerable distributions and strategies."""

import numpy as np
import pytest
from hypothesis import strategies as st

from mdrcv.estimator import DEFAULT_SCHEDULE, dataset_counts, influence_values
from mdrcv.model import Dataset, FactorSpace, JointDistribution


@pytest.fixture
def toy_balanced():
    """n=1, q=1: P(X=0)=P(X=1)=1/2, P(Y=1|X=0)=0.8, P(Y=1|X=1)=0.2.

    P(Y=1)=1/2, balanced weights are (2,2), threshold 1/2, the optimal
    predictor is +1 at x=0, and its error is 2(2*0.1 + 2*0.1) = 0.8 by
    direct enumeration of the four atoms.
    """
    return JointDistribution.from_atoms(
        1, 1,
        [((0,), 1, 0.4), ((0,), -1, 0.1), ((1,), 1, 0.1), ((1,), -1, 0.4)],
    )


@pytest.fixture
def n2_partial_support():
    """n=2, q=1 with two support points only: mass 0.3/0.1 at (0,0) and
    0.1/0.5 at (0,1); points (1,*) carry no mass."""
    return JointDistribution.from_atoms(
        2, 1,
        [((0, 0), 1, 0.3), ((0, 0), -1, 0.1), ((0, 1), 1, 0.1), ((0, 1), -1, 0.5)],
    )


@pytest.fixture
def independent_labels():
    """n=2, q=1, Y independent of X: uniform X, P(Y=1)=0.4 everywhere."""
    space = FactorSpace(2, 1)
    cond = np.full(space.num_points, 0.4)
    return JointDistribution.from_conditional(
        2, 1, np.full(space.num_points, 0.25), cond
    )


@pytest.fixture
def single_factor_table():
    """n=2, q=1: conditional depends on the first factor only."""
    space = FactorSpace(2, 1)
    pts = space.points(np.arange(space.num_points))
    cond = np.where(pts[:, 0] == 1, 0.75, 0.25)
    return JointDistribution.from_conditional(
        2, 1, np.full(space.num_points, 0.25), cond
    )


@pytest.fixture
def conditionally_independent_pair():
    """n=2, q=1 with X1 and X2 independent given Y (both directions).

    P(Y=1)=1/2, P(X_i=1|Y=1)=0.8, P(X_i=1|Y=-1)=0.3.  The influence
    variables of the singleton subsets are exactly uncorrelated.
    """
    atoms = []
    for y, p_y, bent in ((1, 0.5, 0.8), (-1, 0.5, 0.3)):
        for x1 in (0, 1):
            for x2 in (0, 1):
                w1 = bent if x1 == 1 else 1.0 - bent
                w2 = bent if x2 == 1 else 1.0 - bent
                atoms.append(((x1, x2), y, p_y * w1 * w2))
    return JointDistribution.from_atoms(2, 1, atoms)


@pytest.fixture
def deterministic_labels():
    """n=1, q=1 with Y = (+1 iff X=1) almost surely; the optimal predictor
    is exact and every influence value vanishes."""
    return JointDistribution.from_atoms(
        1, 1, [((0,), -1, 0.5), ((1,), 1, 0.5)]
    )


def weights_to_distribution(n, q, weights_neg, weights_pos):
    """Integer weight tables -> exact distribution (sums to 1 in floats)."""
    total = sum(weights_neg) + sum(weights_pos)
    space = FactorSpace(n, q)
    probs = np.zeros((space.num_points, 2))
    probs[:, 0] = np.asarray(weights_neg, dtype=np.float64) / total
    probs[:, 1] = np.asarray(weights_pos, dtype=np.float64) / total
    return JointDistribution(space, probs)


@st.composite
def small_distributions(draw, max_n=2, max_q=1):
    """Random small tables via integer weights; both labels keep mass."""
    n = draw(st.integers(1, max_n))
    q = draw(st.integers(1, max_q))
    size = (q + 1) ** n
    w_neg = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
    w_pos = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
    if sum(w_neg) == 0:
        w_neg[0] = 1
    if sum(w_pos) == 0:
        w_pos[-1] = 1
    return weights_to_distribution(n, q, w_neg, w_pos)


@st.composite
def small_datasets(draw, min_records=4, max_records=40, max_n=2, max_q=1):
    n = draw(st.integers(1, max_n))
    q = draw(st.integers(1, max_q))
    n_rec = draw(st.integers(min_records, max_records))
    xs = draw(
        st.lists(
            st.lists(st.integers(0, q), min_size=n, max_size=n),
            min_size=n_rec, max_size=n_rec,
        )
    )
    ys = draw(st.lists(st.sampled_from((-1, 1)), min_size=n_rec, max_size=n_rec))
    return Dataset(FactorSpace(n, q), xs, ys)


def wide_csv(path, n, n_records, q=2, seed=0):
    """Write a CSV of random records over n factors with levels 0..q."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, q + 1, size=(n_records, n))
    y = np.where(rng.random(n_records) < 0.4, 1, -1)
    header = ",".join([f"X{i}" for i in range(1, n + 1)] + ["Y"])
    np.savetxt(path, np.column_stack([x, y]), fmt="%d", delimiter=",",
               header=header, comments="")
    return path


def reference_cdf(dist):
    """The atom CDF that sampling inverts: one sequential cumsum over all
    atoms, the final value forced to 1.0."""
    c = np.cumsum(dist.probs.ravel())
    c[-1] = 1.0
    return c


def grid_reference(space):
    """Every point in enumeration order, from ``np.indices``."""
    return np.indices(space.grid_shape).reshape(space.n, -1).T


def dataset_influences(dataset, subset, schedule=DEFAULT_SCHEDULE):
    """One dataset's per-record ``influence_values``, keyed over 2 folds:
    the fold count only keys the records."""
    keys, counts = dataset_counts(dataset, subset, 2)
    return influence_values(keys, counts, schedule.value(len(dataset)))
