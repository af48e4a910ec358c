import dataclasses
import functools
import itertools
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdrcv.errors import ValidationError
from mdrcv.model import (
    CDF_CHUNK,
    FactorSpace,
    FactorSubset,
    JointDistribution,
    PenaltyFunction,
    label_marginal,
    sample,
)
from mdrcv import oracle
from mdrcv.oracle import (
    EQUALITY_TOL,
    asymptotic_covariance,
    asymptotic_moments,
    asymptotic_variance,
    balanced_penalty,
    high_risk_set,
    influence_table,
    optimal_predictor,
    prediction_error,
    significance,
    subset_oracle,
)

from mdrcv.scenarios import PRESETS, generate_scenario

import dense_oracle
from conftest import small_distributions

UNIT_PENALTY = PenaltyFunction(1.0, 1.0)


def plus_of(table):
    """An influence table's predictor as its bool mask: bit ``bit`` of its plane."""
    return (table.plane >> table.bit) & 1 == 1


def dense(table):
    """An influence table's dense (points, 2) values lut[plane[x], y]."""
    return table.lut[table.plane]


def all_predictors(space):
    """Brute-force enumeration of every {-1,+1}-valued table, as plus masks."""
    for plus in itertools.product((False, True), repeat=space.num_points):
        yield np.array(plus)


def subsets_of_size(n, r):
    return [FactorSubset(c) for c in itertools.combinations(range(1, n + 1), r)]


class TestThreshold:
    def test_balanced_weights_at_even_split(self, toy_balanced):
        psi = balanced_penalty(toy_balanced)
        assert psi.psi_neg == pytest.approx(2.0)
        assert psi.psi_pos == pytest.approx(2.0)

    def test_balanced_weights_skewed(self, n2_partial_support):
        # P(Y=1) = 0.4: weights are (1/0.6, 1/0.4) = (10/6, 10/4)
        psi = balanced_penalty(n2_partial_support)
        assert psi.psi_neg == pytest.approx(10 / 6)
        assert psi.psi_pos == pytest.approx(10 / 4)

    def test_balanced_threshold_equals_prevalence(self, n2_partial_support):
        psi = balanced_penalty(n2_partial_support)
        assert psi.threshold == pytest.approx(label_marginal(n2_partial_support, 1))

    @given(dist=small_distributions())
    @settings(max_examples=40, deadline=None)
    def test_balanced_threshold_equals_prevalence_everywhere(self, dist):
        assert balanced_penalty(dist).threshold == pytest.approx(
            label_marginal(dist, 1), abs=1e-12
        )


    def test_positive_mass_below_the_bound_is_refused(self):
        # the scale 2 / P(Y=1) meets the zero-mass atom (0, -1) squared
        def variance(p_pos):
            dist = JointDistribution(FactorSpace(1, 1), np.array([[0.0, p_pos], [1.0, 0.0]]))
            return asymptotic_moments(dist, subset_oracle(dist, [FactorSubset((1,))])[1])[0]

        assert variance(oracle.MIN_POSITIVE_MASS) == [0.0]
        with pytest.raises(ValidationError, match=r"^P\(Y=1\) = .* is below "):
            variance(np.nextafter(oracle.MIN_POSITIVE_MASS, 0.0))


class TestHighRiskSet:
    def test_zero_positive_weight_empties_the_set(self, toy_balanced):
        assert high_risk_set(toy_balanced, PenaltyFunction(1.0, 0.0)).tolist() == []

    def test_toy_table(self, toy_balanced):
        psi = balanced_penalty(toy_balanced)
        assert high_risk_set(toy_balanced, psi).tolist() == [[0]]

    def test_independent_labels_give_empty_set(self, independent_labels):
        # every conditional equals the threshold; strict inequality fails
        psi = balanced_penalty(independent_labels)
        assert high_risk_set(independent_labels, psi).tolist() == []

    @given(
        n=st.integers(1, 3),
        q=st.integers(1, 2),
        psi=st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_points_of_dense_mask_in_rank_order(self, n, q, psi, data):
        # conditionals at the threshold, one tolerance above it, or on a grid
        psi = PenaltyFunction(*map(float, psi))
        t = psi.threshold
        size = (q + 1) ** n
        cond = data.draw(st.lists(
            st.sampled_from((t, t + EQUALITY_TOL)) | st.integers(0, 6).map(lambda k: k / 6),
            min_size=size, max_size=size,
        ))
        mass = np.array(data.draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)))
        cond = np.minimum(cond, 1.0)
        probs = mass[:, None] * np.column_stack([1.0 - cond, cond])
        assume(probs[:, 0].sum() > 0 and probs[:, 1].sum() > 0)
        dist = JointDistribution(FactorSpace(n, q), probs / probs.sum())
        got = high_risk_set(dist, psi)
        # argwhere lists the grid indices of the mask in C order
        want = np.argwhere(dense_oracle.plus_mask(dist, psi).reshape(dist.space.grid_shape))
        assert got.dtype == np.int16 and got.shape == (len(want), n)
        assert np.array_equal(got, want)
        rows = got.tolist()
        assert all(a < b for a, b in zip(rows, rows[1:]))

    @pytest.mark.parametrize("chunk", [8, 16])
    @given(dist=small_distributions(max_n=3, max_q=2))
    @settings(max_examples=30, deadline=None)
    def test_slabs_of_a_few_points_match_dense_mask(self, chunk, dist):
        psi = balanced_penalty(dist)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "CDF_CHUNK", 2 * chunk)
            got = optimal_predictor(dist, psi)
        assert np.array_equal(got, dense_oracle.plus_mask(dist, psi))

    def test_pointwise_predictor_keeps_to_slabs(self):
        # 531,441 points: no copy of the 8.1 MiB table and no table-sized
        # conditional, only the 0.5 MiB predictor and one slab's temporaries
        dist = generate_scenario("pair-epistasis", 12, 2)
        psi = balanced_penalty(dist)
        optimal_predictor(dist, psi)
        tracemalloc.start()
        try:
            plus = optimal_predictor(dist, psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(plus) == 3**11
        assert peak <= 2**21


class TestOptimalPredictor:
    def test_full_subset_matches_high_risk_set(self, n2_partial_support):
        psi = balanced_penalty(n2_partial_support)
        f = optimal_predictor(n2_partial_support, psi)
        points = n2_partial_support.space.points(np.flatnonzero(f))
        assert np.array_equal(points, high_risk_set(n2_partial_support, psi))

    def test_off_support_predicts_minus(self, n2_partial_support):
        f = optimal_predictor(n2_partial_support, UNIT_PENALTY)
        space = n2_partial_support.space
        assert not f[space.rank((1, 0))]
        assert not f[space.rank((1, 1))]

    def test_exact_tie_resolves_to_minus(self, n2_partial_support):
        # cylinder conditional at u=(0) is 0.4; with threshold 0.4 the
        # strict inequality fails and the whole support maps to -1
        psi = PenaltyFunction(0.4, 0.6)
        assert psi.threshold == pytest.approx(0.4)
        f = optimal_predictor(n2_partial_support, psi, FactorSubset.of(1))
        assert not f.any()

    @given(
        dist=small_distributions(max_n=3, max_q=2),
        weights=st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(any),
    )
    @settings(max_examples=60, deadline=None)
    def test_pointwise_path_matches_full_subset(self, dist, weights):
        # the pointwise conditional is read off the table; coding every
        # factor as a cylinder must give the same predictor
        full = FactorSubset(tuple(range(1, dist.space.n + 1)))
        for psi in (PenaltyFunction(*map(float, weights)), balanced_penalty(dist)):
            f = optimal_predictor(dist, psi)
            assert np.array_equal(f, optimal_predictor(dist, psi, full))


class TestPredictionError:
    def test_perfect_predictor_has_zero_error(self, deterministic_labels):
        f = optimal_predictor(deterministic_labels, UNIT_PENALTY)
        assert prediction_error(deterministic_labels, UNIT_PENALTY, f) == 0.0

    def test_constant_plus_counts_negative_mass(self, n2_partial_support):
        # f == +1, unit weights: only the y=-1 mass contributes, 2 * 0.6
        f = np.ones(n2_partial_support.space.num_points, dtype=bool)
        assert prediction_error(n2_partial_support, UNIT_PENALTY, f) == pytest.approx(1.2)

    def test_toy_table_optimal_error(self, toy_balanced):
        psi = balanced_penalty(toy_balanced)
        f = optimal_predictor(toy_balanced, psi)
        assert prediction_error(toy_balanced, psi, f) == pytest.approx(0.8)

    @given(dist=small_distributions(max_n=2, max_q=1))
    @settings(max_examples=40, deadline=None)
    def test_optimal_predictor_beats_exhaustive_enumeration(self, dist):
        psi = balanced_penalty(dist)
        best = min(
            prediction_error(dist, psi, g) for g in all_predictors(dist.space)
        )
        f = optimal_predictor(dist, psi)
        assert prediction_error(dist, psi, f) <= best + 1e-12


@pytest.mark.parametrize("make_mask", [
    lambda P: np.ones(P, dtype=np.int8),
    lambda P: np.ones(P - 1, dtype=bool),
    lambda P: np.ones((P, 1), dtype=bool),
], ids=["int8", "one-short", "column"])
def test_predictor_needs_one_bool_per_point(n2_partial_support, make_mask):
    plus = make_mask(n2_partial_support.space.num_points)
    message = "a predictor needs one bool per point of its space"
    with pytest.raises(ValidationError, match=message):
        prediction_error(n2_partial_support, UNIT_PENALTY, plus)
    with pytest.raises(ValidationError, match=message):
        influence_table(n2_partial_support, plus)
    # the oracle's own predictors are planes: one byte per point, 8 to a plane
    _, tables = subset_oracle(n2_partial_support, [FactorSubset.of(1)] * 9)
    for t in tables:
        assert t.plane.dtype == np.uint8
        assert t.plane.shape == (n2_partial_support.space.num_points,)
    assert len({id(t.plane) for t in tables}) == 2


class TestSignificance:
    def test_full_subset_always_significant(self, n2_partial_support):
        assert significance(n2_partial_support, [FactorSubset.of(1, 2)])[0]

    def test_subset_past_n_refused_at_every_factors_length(self, n2_partial_support):
        with pytest.raises(ValidationError, match="beyond n=2"):
            significance(n2_partial_support, [FactorSubset.of(1, 3)])[0]
        with pytest.raises(ValidationError, match="beyond n=2"):
            optimal_predictor(n2_partial_support, UNIT_PENALTY, FactorSubset.of(2, 3))

    def test_independent_labels_make_everything_significant(self, independent_labels):
        for r in (1, 2):
            for sub in subsets_of_size(2, r):
                assert significance(independent_labels, [sub])[0]

    def test_single_factor_structure(self, single_factor_table):
        assert significance(single_factor_table, [FactorSubset.of(1)])[0]
        assert not significance(single_factor_table, [FactorSubset.of(2)])[0]

    def test_monotone_in_supersets_exhaustively(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            cond = rng.uniform(0.05, 0.95, size=8)
            if rng.random() < 0.5:
                cond = np.repeat(cond[:4:2], 4)  # depends on x1 only
            dist = JointDistribution.from_conditional(
                3, 1, np.full(8, 1 / 8), cond
            )
            subs = [s for r in (1, 2, 3) for s in subsets_of_size(3, r)]
            flags = {s.indices: significance(dist, [s])[0] for s in subs}
            for s in subs:
                if not flags[s.indices]:
                    continue
                for t in subs:
                    if set(s.indices) <= set(t.indices):
                        assert flags[t.indices], (s.indices, t.indices)

    @given(dist=small_distributions(max_n=3, max_q=2), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_cylinder_path_reference(self, dist, data):
        # reference: the pointwise conditional coded through the full subset
        n = dist.space.n
        subset = FactorSubset(tuple(sorted(data.draw(
            st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
        ))))

        at_points = functools.partial(dense_oracle.conditional_at_points, dist)
        mask = dist.support_mask()
        gap = at_points(FactorSubset(tuple(range(1, n + 1)))) - at_points(subset)
        want = bool(np.all(np.abs(gap[mask]) <= EQUALITY_TOL))
        assert significance(dist, [subset])[0] == want


    @pytest.mark.parametrize("chunk", [8, 16, CDF_CHUNK // 2])
    @given(
        dist=small_distributions(max_n=3, max_q=2),
        zeros=st.lists(st.integers(0, 26), max_size=8),
        tied=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_slabs_match_whole_grid_and_dense_recipe(self, chunk, dist, zeros, tied, data):
        # slabs of a few points; zero-mass points; with ``tied``, every point
        # of a cell of the first factor shares its conditional, exactly
        space = dist.space
        probs = dist.probs.copy()
        if tied:
            first = space.points(np.arange(space.num_points))[:, 0]
            cond = (np.arange(space.q + 1) / (space.q + 1))[first]
            probs = probs.sum(axis=1)[:, None] * np.column_stack([1.0 - cond, cond])
        probs[[z % space.num_points for z in zeros]] = 0.0
        assume(probs[:, 0].sum() > 0 and probs[:, 1].sum() > 0)
        dist = JointDistribution(space, probs / probs.sum())
        subset = FactorSubset(tuple(sorted(data.draw(
            st.lists(st.integers(1, space.n), min_size=1, max_size=space.n, unique=True)
        ))))
        # the whole-grid expression: the subset's cylinder conditionals, summed
        # down from the union marginal, at every point at once, against the
        # dense recipe's point-coded ones
        at_points = functools.partial(dense_oracle.conditional_at_points, dist)
        (cells,) = oracle._subset_conditionals(dist, [subset])
        # None for every factor: the cells are the points
        cells = at_points() if cells is None else np.broadcast_to(cells, space.grid_shape).ravel()
        np.testing.assert_allclose(cells, at_points(subset), rtol=0, atol=1e-15)
        whole = bool(np.all(np.abs(at_points() - cells)[dist.support_mask()] <= EQUALITY_TOL))
        gap = at_points(FactorSubset(tuple(range(1, space.n + 1)))) - at_points(subset)
        dense = bool(np.all(np.abs(gap[dist.support_mask()]) <= EQUALITY_TOL))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "CDF_CHUNK", 2 * chunk)
            assert significance(dist, [subset])[0] == whole == dense
        if tied:
            assert significance(dist, [FactorSubset.of(1)])[0]

    def test_dense_cap_keeps_to_slabs(self):
        # 531,441 points: no table-sized float array, against 8.5 MB of
        # pointwise conditionals and 17 MB of the table's copy at once
        dist = generate_scenario("pair-epistasis", 12, 2)
        significance(dist, [FactorSubset.of(1, 2)])[0]
        tracemalloc.start()
        try:
            flags = [significance(dist, [FactorSubset.of(*s)])[0] for s in [(1, 2), (1,), (3, 4)]]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert flags == [True, False, False]
        assert peak <= 2**21


    @given(n=st.integers(1, 3), q=st.integers(1, 2), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_many_subsets_match_dense_recipe_with_ties_at_threshold(self, n, q, data):
        # P(Y=1 | X=x) = 1/2 + d[x1] * s(x2..xn) with d[q - l] = -d[l], and
        # P(X=x) even under x1 -> q - x1: P(Y=1), the balanced threshold, is
        # 1/2 exactly, and every point where d or s is 0 ties with it
        grid = FactorSpace(n, q).grid_shape
        half = data.draw(st.lists(st.sampled_from([-0.3, -0.1, 0.0, 0.1, 0.3]),
                                  min_size=(q + 1) // 2, max_size=(q + 1) // 2))
        d = np.array(half + [0.0] * ((q + 1) % 2) + [-v for v in reversed(half)])
        rest = int(np.prod(grid[1:]))
        s = np.array(data.draw(st.lists(st.sampled_from([0.0, 1 / 3, 2 / 3, 1.0]),
                                        min_size=rest, max_size=rest)))
        w = np.array(data.draw(st.lists(st.integers(0, 3), min_size=(q + 1) * rest,
                                        max_size=(q + 1) * rest)), dtype=float).reshape(grid)
        w = w + w[::-1]
        assume(w.sum() > 0)
        cond = 0.5 + d.reshape((q + 1,) + (1,) * (n - 1)) * s.reshape((1,) + grid[1:])
        dist = JointDistribution.from_conditional(n, q, w / w.sum(), cond)
        subsets = data.draw(st.lists(
            st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
            .map(lambda c: FactorSubset(tuple(sorted(c)))), min_size=1, max_size=10))
        at_points = functools.partial(dense_oracle.conditional_at_points, dist)
        mask = dist.support_mask()
        want = [bool(np.all(np.abs(at_points() - at_points(s))[mask] <= EQUALITY_TOL))
                for s in subsets]
        assert significance(dist, subsets) == want
        assert [significance(dist, [s])[0] for s in subsets] == want
        psi = balanced_penalty(dist)
        _, tables = subset_oracle(dist, subsets)
        for s, t in zip(subsets, tables):
            assert np.array_equal(plus_of(t), dense_oracle.plus_mask(dist, psi, s))

    def test_walk_stops_once_every_subset_has_failed(self, monkeypatch):
        # 531,441 points in 27 slabs: two subsets that have both failed by
        # the tenth slab, x1 = 1, end the walk there; beside a significant
        # one, it reads every slab
        dist = generate_scenario("pair-epistasis", 12, 2)
        walk, read = oracle._point_slabs, []

        def spy(d):
            for slab in walk(d):
                read.append(slab[0])
                yield slab

        monkeypatch.setattr(oracle, "_point_slabs", spy)
        assert significance(dist, [FactorSubset.of(1), FactorSubset.of(3, 4)]) == [False, False]
        assert read[-1] == (1, 0, 0) and len(read) == 10
        read.clear()
        flags = significance(dist, [FactorSubset.of(1), FactorSubset.of(1, 2)])
        assert flags == [False, True] and len(read) == 27

    def test_slabs_read_the_marginal_off_point_probs(self, monkeypatch):
        # 59,049 points in 3 slabs of 3^9: the all-factors predictor and
        # significance read each slab's P(X=x) through point_probs(start, stop)
        dist = generate_scenario("pair-epistasis", 10, 2)
        psi = balanced_penalty(dist)
        want = dense_oracle.plus_mask(dist, psi)
        marginal, ranges = JointDistribution.point_probs, []

        def spy(self, start=0, stop=None):
            ranges.append((start, stop))
            return marginal(self, start, stop)

        monkeypatch.setattr(JointDistribution, "point_probs", spy)
        slabs = [(a, a + 3**9) for a in range(0, 3**10, 3**9)]
        assert np.array_equal(optimal_predictor(dist, psi), want)
        assert ranges == slabs
        ranges.clear()
        assert significance(dist, [FactorSubset.of(1, 2)]) == [True]
        assert ranges == slabs

class TestAsymptoticVariance:
    def test_deterministic_labels_have_zero_variance(self, deterministic_labels):
        _, (v,) = subset_oracle(deterministic_labels, [FactorSubset.of(1)])
        assert asymptotic_variance(deterministic_labels, v) == pytest.approx(0.0, abs=1e-15)

    def test_toy_table_exact_value(self, toy_balanced):
        # misclassified mass 0.2, per-class miss rates 0.2, weights 2:
        # V is 3.2 on misses and -0.8 on hits, so Var V = 2.56
        _, (v,) = subset_oracle(toy_balanced, [FactorSubset.of(1)])
        got = asymptotic_variance(toy_balanced, v)
        assert got == pytest.approx(2.56, abs=1e-12)

    def test_conditional_means_vanish_per_label(self, toy_balanced):
        _, (table,) = subset_oracle(toy_balanced, [FactorSubset.of(1)])
        v = dense(table)
        p = toy_balanced.probs
        for col in (0, 1):
            cond_mean = float((p[:, col] * v[:, col]).sum()) / float(p[:, col].sum())
            assert cond_mean == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_cross_check(self, toy_balanced):
        _, (table,) = subset_oracle(toy_balanced, [FactorSubset.of(1)])
        sigma2 = asymptotic_variance(toy_balanced, table)
        v = dense(table)
        # exact fourth moment gives the standard error of the sample variance
        p = toy_balanced.probs
        fourth = float((p * v**4).sum())
        n = 10**6
        se = np.sqrt((fourth - sigma2**2) / n)
        ds = sample(toy_balanced, n, seed=314159)
        ranks = np.array([toy_balanced.space.rank(tuple(x)) for x in ds.x])
        cols = (ds.y == 1).astype(int)
        draws = v[ranks, cols]
        assert abs(float(draws.var()) - sigma2) < 3 * se


class TestAsymptoticCovariance:
    def test_single_subset_reduces_to_variance(self, toy_balanced):
        _, tables = subset_oracle(toy_balanced, [FactorSubset.of(1)])
        c = asymptotic_covariance(toy_balanced, tables)
        assert c.shape == (1, 1)
        assert c[0, 0] == pytest.approx(asymptotic_variance(toy_balanced, tables[0]))

    def test_duplicated_subset_is_rank_deficient(self, toy_balanced):
        sub = FactorSubset.of(1)
        c = asymptotic_covariance(toy_balanced, subset_oracle(toy_balanced, [sub, sub])[1])
        assert c[0, 0] == pytest.approx(c[0, 1])
        assert c[0, 1] == pytest.approx(c[1, 1])
        assert abs(np.linalg.det(c)) < 1e-12

    @pytest.mark.parametrize("tables, message", [
        (lambda t: [], "need at least one subset"),
        (lambda t: [t, dataclasses.replace(t, mean=1.0)],
         "influence variable mean 1.0 not zero; table corrupt?"),
    ], ids=["no-subset", "mean-not-zero"])
    def test_refusal_names_its_fault(self, toy_balanced, tables, message):
        (table,) = subset_oracle(toy_balanced, [FactorSubset.of(1)])[1]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            asymptotic_moments(toy_balanced, tables(table))

    def test_conditionally_independent_pair_is_uncorrelated(
        self, conditionally_independent_pair
    ):
        dist = conditionally_independent_pair
        subs = [FactorSubset.of(1), FactorSubset.of(2)]
        c = asymptotic_covariance(dist, subset_oracle(dist, subs)[1])
        assert c[0, 0] > 0.1 and c[1, 1] > 0.1
        assert c[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_and_psd(self, single_factor_table):
        subs = subsets_of_size(2, 1) + subsets_of_size(2, 2)
        c = asymptotic_covariance(
            single_factor_table, subset_oracle(single_factor_table, subs)[1]
        )
        assert np.array_equal(c, c.T)
        assert np.linalg.eigvalsh(c).min() >= -1e-10

    def test_monte_carlo_cross_check_two_subsets(self, conditionally_independent_pair):
        dist = conditionally_independent_pair
        subs = [FactorSubset.of(1), FactorSubset.of(2)]
        _, tables = subset_oracle(dist, subs)
        c = asymptotic_covariance(dist, tables)
        v1, v2 = map(dense, tables)
        p = dist.probs
        var_prod = float((p * (v1 * v2) ** 2).sum()) - c[0, 1] ** 2
        n = 10**6
        se = np.sqrt(var_prod / n)
        ds = sample(dist, n, seed=271828)
        ranks = np.array([dist.space.rank(tuple(x)) for x in ds.x])
        cols = (ds.y == 1).astype(int)
        draws = v1[ranks, cols] * v2[ranks, cols]
        assert abs(float(draws.mean()) - c[0, 1]) < 3 * se


class TestPenaltyScaling:
    @given(
        dist=small_distributions(),
        c=st.sampled_from((0.5, 2.0, 4.0)),
        a=st.integers(1, 5),
        b=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_scaling_is_exact(self, dist, c, a, b):
        psi = PenaltyFunction(float(a), float(b))
        scaled = PenaltyFunction(c * psi.psi_neg, c * psi.psi_pos)
        assert scaled.threshold == psi.threshold
        assert np.array_equal(high_risk_set(dist, scaled), high_risk_set(dist, psi))
        f = optimal_predictor(dist, psi)
        g = optimal_predictor(dist, scaled)
        assert np.array_equal(f, g)
        assert prediction_error(dist, scaled, f) == c * prediction_error(dist, psi, f)


def spread_subsets(n):
    """Subsets that skip leading factors, overlap, nest and repeat."""
    picks = [(n,), (2, n), (1, 2), (2, 5), (1, n), (2, 3), tuple(range(1, n + 1)), (2, n)]
    kept = [tuple(sorted({i for i in p if i <= n})) for p in picks]
    return [FactorSubset(k) for k in kept if k]


class TestOracleFromTables:
    """Per-cell decisions and two-value influence lookups reproduce the
    dense recipe of ``dense_oracle`` bit for bit."""

    @staticmethod
    def assert_matches_dense(dist, subsets):
        errors, tables = subset_oracle(dist, subsets)
        want_errors, want_vars, want_cov = dense_oracle.oracle(dist, subsets)
        assert errors == want_errors
        assert [asymptotic_variance(dist, t) for t in tables] == want_vars
        assert np.array_equal(asymptotic_covariance(dist, tables), want_cov)
        psi = balanced_penalty(dist)
        for s, t in zip(subsets, tables):
            plus = dense_oracle.plus_mask(dist, psi, s)
            assert np.array_equal(optimal_predictor(dist, psi, s), plus)
            assert np.array_equal(plus_of(t), plus)
            assert np.array_equal(dense(t), dense_oracle.influence(dist, plus))
            assert t.mean == float((dist.probs * dense_oracle.influence(dist, plus)).sum())

    def draw_subsets_and_match(self, dist, data):
        n = dist.space.n
        subsets = data.draw(st.lists(
            st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
            .map(lambda idx: FactorSubset(tuple(sorted(idx)))),
            min_size=1, max_size=3,
        ))
        self.assert_matches_dense(dist, subsets)

    @given(dist=small_distributions(max_n=3, max_q=2), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reductions_match_composite_expressions(self, dist, data):
        self.draw_subsets_and_match(dist, data)

    # these tables fit in one leaf of CDF_CHUNK values; smaller leaves make
    # the reductions cross leaves and add their sums back up the pairwise
    # tree, and smaller slabs split the grid
    @pytest.mark.parametrize("leaf", [8, 24, 136])
    @given(dist=small_distributions(max_n=3, max_q=2), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_reductions_match_composite_expressions_across_leaves(self, leaf, dist, data):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "CDF_CHUNK", leaf)
            self.draw_subsets_and_match(dist, data)

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("n,q", [(2, 1), (3, 2), (4, 3), (5, 2), (6, 1), (6, 2)])
    @pytest.mark.parametrize("leaf", [8, 24, 136])
    def test_presets_match_dense_recipe_across_leaves(self, monkeypatch, leaf, preset, n, q):
        monkeypatch.setattr(oracle, "CDF_CHUNK", leaf)
        self.assert_matches_dense(generate_scenario(preset, n, q), spread_subsets(n))

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("n,q", [(2, 1), (3, 2), (4, 3), (5, 2), (6, 1), (6, 2)])
    def test_presets_match_dense_recipe(self, preset, n, q):
        dist = generate_scenario(preset, n, q)
        self.assert_matches_dense(dist, spread_subsets(n))
        psi = balanced_penalty(dist)
        assert np.array_equal(high_risk_set(dist, psi), dist.space.points(
            np.flatnonzero(dense_oracle.plus_mask(dist, psi))))
        point_cond = dense_oracle.conditional_at_points(dist)
        mask = dist.support_mask()
        for s in spread_subsets(n):
            gap = point_cond - dense_oracle.conditional_at_points(dist, s)
            assert significance(dist, [s])[0] == bool(np.all(np.abs(gap[mask]) <= EQUALITY_TOL))

    @given(
        dist=small_distributions(max_n=3, max_q=2),
        zeros=st.lists(st.integers(0, 26), max_size=6),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_zero_mass_points_match_dense_recipe(self, dist, zeros, data):
        # points without mass stay -1 even inside cells that are flagged
        probs = dist.probs.copy()
        probs[[z % dist.space.num_points for z in zeros]] = 0.0
        assume(probs[:, 0].sum() > 0 and probs[:, 1].sum() > 0)
        dist = JointDistribution(dist.space, probs / probs.sum())
        subsets = spread_subsets(dist.space.n)[: data.draw(st.integers(1, 8))]
        self.assert_matches_dense(dist, subsets)

    @pytest.mark.parametrize("S", range(1, 11))
    @pytest.mark.parametrize("chunk", [5, 8, CDF_CHUNK // 2])
    @given(
        dist=small_distributions(max_n=3, max_q=2),
        zeros=st.lists(st.integers(0, 26), max_size=6),
        data=st.data(),
    )
    @settings(max_examples=6, deadline=None)
    def test_planes_of_one_to_ten_subsets_match_dense_recipe(self, S, chunk, dist, zeros, data):
        # subset i is bit i % 8 of plane i // 8: from S = 9 on, a second plane;
        # supports masked and bits counted a few points at a time
        probs = dist.probs.copy()
        probs[[z % dist.space.num_points for z in zeros]] = 0.0
        assume(probs[:, 0].sum() > 0 and probs[:, 1].sum() > 0)
        dist = JointDistribution(dist.space, probs / probs.sum())
        n = dist.space.n
        subsets = data.draw(st.lists(
            st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
            .map(lambda idx: FactorSubset(tuple(sorted(idx)))),
            min_size=S, max_size=S,
        ))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "CDF_CHUNK", 2 * chunk)
            self.assert_matches_dense(dist, subsets)
            _, tables = subset_oracle(dist, subsets)
        assert [t.bit for t in tables] == [i % 8 for i in range(S)]
        assert all(t.plane is tables[8 * (i // 8)].plane for i, t in enumerate(tables))
        assert len({id(t.plane) for t in tables}) == -(-S // 8)

    @given(dist=small_distributions(max_n=2, max_q=2), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_predictor_has_centered_influence(self, dist, data):
        plus = data.draw(st.lists(
            st.booleans(), min_size=dist.space.num_points, max_size=dist.space.num_points,
        ))
        v = influence_table(dist, np.array(plus))
        assert abs(float((dist.probs * dense(v)).sum())) <= 1e-12
        assert v.mean == float((dist.probs * dense(v)).sum())


def even_lengths(max_n):
    """Even lengths in 2..max_n, half of them within 6 of a multiple of 8,
    of 128 or of CDF_CHUNK."""
    near = st.builds(
        lambda m, k, d: min(max(m * k + 2 * d, 2), max_n),
        st.sampled_from((8, 128, oracle.CDF_CHUNK)),
        st.integers(1, max_n // 8),
        st.integers(-3, 3),
    )
    return st.one_of(st.integers(1, max_n // 2).map(lambda h: 2 * h), near)


def wide_values(seed, n):
    """n signed float64s with magnitudes spread over 1e-300..1e300."""
    rng = np.random.default_rng(seed)
    return rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-300.0, 300.0, n)


class TestPairwiseReplay:
    """``_table_sums`` streams blocks through the leaves of numpy's pairwise
    sum and adds the leaf sums back up its tree: the bits of ``np.sum``."""

    @staticmethod
    def assert_replays(x, mask):
        table = SimpleNamespace(probs=x.reshape(-1, 2))
        k = int(mask.sum())

        def terms(p, plus):
            yield p
            yield p[:, 0][plus[0]]
            yield p[:, 1][~plus[0]]

        got = oracle._table_sums(table, [mask], terms, [x.size, k, mask.size - k])
        assert got == [x.sum(), x[0::2][mask].sum(), x[1::2][~mask].sum()]

    @given(n=even_lengths(2 * 10**6), seed=st.integers(0, 2**32 - 1), rate=st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_np_sum(self, n, seed, rate):
        x = wide_values(seed, n)
        self.assert_replays(x, np.random.default_rng(seed).random(n // 2) < rate)

    @given(
        n=even_lengths(20000),
        seed=st.integers(0, 2**32 - 1),
        rate=st.floats(0, 1),
        leaf=st.sampled_from((8, 24, 136, 1000)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_np_sum_with_small_leaves(self, n, seed, rate, leaf):
        x = wide_values(seed, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "CDF_CHUNK", leaf)
            self.assert_replays(x, np.random.default_rng(seed).random(n // 2) < rate)

    def test_leaves_follow_numpys_split(self):
        # 1000 -> 496 + 504; 496 -> 248 + 248; 504 -> 248 + 256; 248 -> 120 + 128
        assert oracle._leaves(1000, 8) == [120, 128, 120, 128, 120, 128, 128, 128]
        assert oracle._leaves(128, 8) == [128]
        assert oracle._leaves(0, 8) == [0]


class TestMissPass:
    """Edge cases of the miss masses' gathers: empty and full masks, points
    without mass inside plus cells, tables that end mid-block."""

    @pytest.mark.parametrize("leaf", [8, 136, oracle.CDF_CHUNK])
    @pytest.mark.parametrize("n,q", [(5, 2), (6, 2), (7, 1), (4, 3)])
    def test_masses_match_boolean_gathers(self, monkeypatch, leaf, n, q):
        monkeypatch.setattr(oracle, "CDF_CHUNK", leaf)
        probs = generate_scenario("pair-epistasis", n, q).probs.copy()
        probs[::7] = 0.0
        dist = JointDistribution(FactorSpace(n, q), probs / probs.sum())
        psi = balanced_penalty(dist)
        P = dist.space.num_points
        masks = [np.zeros(P, bool), np.ones(P, bool), np.arange(P) % 3 == 1]
        masks += [optimal_predictor(dist, psi, s) for s in spread_subsets(n)]
        want = [(float(dist.probs[f, 0].sum()), float(dist.probs[~f, 1].sum())) for f in masks]
        # mask i as bit i % 8 of plane i // 8: up to 11 masks, two planes
        planes = [np.zeros(P, np.uint8) for _ in range(0, len(masks), 8)]
        for i, f in enumerate(masks):
            planes[i // 8] |= f.astype(np.uint8) << (i % 8)
        predictors = [(planes[i // 8], i % 8) for i in range(len(masks))]
        assert oracle._misses(dist, predictors) == want
        assert [oracle._misses(dist, [(f.view(np.uint8), 0)])[0] for f in masks] == want
        assert want[0][0] == 0.0 and want[1][1] == 0.0
        # zero-mass points sit inside the masks, and inside plus cells of
        # an optimal predictor, which sends them to -1
        zero = dist.point_probs() == 0.0
        flagged = dense_oracle.conditional_at_points(dist, FactorSubset.of(1, 2)) > (
            psi.threshold * (1.0 + EQUALITY_TOL))
        assert (zero & masks[2]).any() and (zero & flagged).any()

    def test_tables_of_two_calls_interleave(self):
        dist = generate_scenario("pair-epistasis", 6, 2)
        first = [FactorSubset.of(1, 2), FactorSubset.of(3)]
        second = [FactorSubset.of(2, 5), FactorSubset.of(1, 6), FactorSubset.of(1, 2)]
        _, t1 = subset_oracle(dist, first)
        _, t2 = subset_oracle(dist, second)
        mixed = [t2[0], t1[0], t2[1], t1[1], t2[2]]
        subsets = [second[0], first[0], second[1], first[1], second[2]]
        # two threads at once, the second in reverse order: (p * d_i) * d_j
        # takes i before j, so its covariance has the reversed subsets' bits
        with ThreadPoolExecutor(2) as pool:
            runs = list(pool.map(lambda ts: asymptotic_moments(dist, ts), [mixed, mixed[::-1]]))
        for (variances, cov), order in zip(runs, [subsets, subsets[::-1]]):
            _, want_vars, want_cov = dense_oracle.oracle(dist, order)
            assert variances == want_vars
            assert np.array_equal(cov, want_cov)
        assert [asymptotic_variance(dist, t) for t in mixed] == runs[0][0]
        assert not t1[0].lut.flags.writeable and not t1[0].plane.flags.writeable


def test_tables_hold_the_predictor_masks_uncopied(monkeypatch):
    made = []

    def spy(*args, **kwargs):
        made.append(optimal_predictor(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(oracle, "optimal_predictor", spy)
    dist = generate_scenario("pair-epistasis", 4, 2)
    subsets = [FactorSubset.of(1, 2), FactorSubset.of(3)]
    _, tables = subset_oracle(dist, subsets)
    assert made == [] and len(tables) == 2
    plane = tables[0].plane
    assert not plane.flags.writeable and plane.flags.owndata
    assert [t.bit for t in tables] == [0, 1]
    for s, t in zip(subsets, tables):
        assert t.plane is plane
        assert np.array_equal(plus_of(t), dense_oracle.plus_mask(dist, balanced_penalty(dist), s))
    # a mask handed in is its own plane, bit 0, uncopied
    plus = optimal_predictor(dist, balanced_penalty(dist), subsets[0])
    table = influence_table(dist, plus)
    assert table.bit == 0 and np.shares_memory(table.plane, plus)


@pytest.mark.parametrize("call", [
    lambda dist, every: subset_oracle(dist, [every]),
    lambda dist, every: significance(dist, [every])[0],
], ids=["subset_oracle", "is_significant"])
def test_every_factor_keeps_to_slabs(call):
    # 531,441 points: every factor as the subset decides point by point, one
    # slab at a time, and is significant unread, so no call copies the
    # 8.1 MiB table into its marginal over all factors; beside the 0.5 MiB
    # plane, only slab-sized temporaries
    dist = generate_scenario("pair-epistasis", 12, 2)
    every = FactorSubset(tuple(range(1, 13)))
    call(dist, FactorSubset.of(1, 2))  # first-call allocations
    tracemalloc.start()
    try:
        call(dist, every)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**21


@pytest.mark.parametrize("S", [2, 8])
def test_oracle_holds_one_byte_a_point_per_eight_subsets(S):
    # 531,441 points: one predictor plane per 8 subsets, and leaf values
    # that stay within 2 MiB however many subsets share the passes
    dist = generate_scenario("pair-epistasis", 12, 2)
    subsets = [FactorSubset(c) for c in itertools.combinations(range(1, 6), 2)][:S]
    asymptotic_moments(dist, subset_oracle(dist, subsets[:2])[1])  # first-call allocations
    tracemalloc.start()
    try:
        _, tables = subset_oracle(dist, subsets)
        asymptotic_moments(dist, tables)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= -(-S // 8) * dist.space.num_points + 2**21
