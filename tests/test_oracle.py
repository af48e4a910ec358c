import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mdrcv.model import (
    FactorSubset,
    JointDistribution,
    PenaltyFunction,
    UNIT_PENALTY,
    label_marginal,
    sample,
)
from mdrcv.oracle import (
    EQUALITY_TOL,
    Predictor,
    asymptotic_covariance,
    asymptotic_variance,
    balanced_penalty,
    high_risk_set,
    influence_table,
    is_significant,
    optimal_predictor,
    prediction_error,
    subset_oracle,
)

from mdrcv.scenarios import PRESETS, generate_scenario

import dense_oracle
from conftest import small_distributions


def all_predictors(space):
    """Brute-force enumeration of every {-1,+1}-valued table."""
    for plus in itertools.product((False, True), repeat=space.num_points):
        yield Predictor(space, np.array(plus))


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


class TestHighRiskSet:
    def test_zero_positive_weight_empties_the_set(self, toy_balanced):
        assert high_risk_set(toy_balanced, PenaltyFunction(1.0, 0.0)) == set()

    def test_toy_table(self, toy_balanced):
        psi = balanced_penalty(toy_balanced)
        assert high_risk_set(toy_balanced, psi) == {(0,)}

    def test_independent_labels_give_empty_set(self, independent_labels):
        # every conditional equals the threshold; strict inequality fails
        psi = balanced_penalty(independent_labels)
        assert high_risk_set(independent_labels, psi) == set()


class TestOptimalPredictor:
    def test_full_subset_matches_high_risk_set(self, n2_partial_support):
        psi = balanced_penalty(n2_partial_support)
        f = optimal_predictor(n2_partial_support, psi)
        assert f.plus_set() == high_risk_set(n2_partial_support, psi)

    def test_off_support_predicts_minus(self, n2_partial_support):
        f = optimal_predictor(n2_partial_support, UNIT_PENALTY)
        space = n2_partial_support.space
        assert not f.plus[space.rank((1, 0))]
        assert not f.plus[space.rank((1, 1))]

    def test_exact_tie_resolves_to_minus(self, n2_partial_support):
        # cylinder conditional at u=(0) is 0.4; with threshold 0.4 the
        # strict inequality fails and the whole support maps to -1
        psi = PenaltyFunction(0.4, 0.6)
        assert psi.threshold == pytest.approx(0.4)
        f = optimal_predictor(n2_partial_support, psi, FactorSubset.of(1))
        assert f.plus_set() == set()

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
            assert np.array_equal(f.plus, optimal_predictor(dist, psi, full).plus)


class TestPredictionError:
    def test_perfect_predictor_has_zero_error(self, deterministic_labels):
        f = optimal_predictor(deterministic_labels, UNIT_PENALTY)
        assert prediction_error(deterministic_labels, UNIT_PENALTY, f) == 0.0

    def test_constant_plus_counts_negative_mass(self, n2_partial_support):
        # f == +1, unit weights: only the y=-1 mass contributes, 2 * 0.6
        space = n2_partial_support.space
        f = Predictor(space, np.ones(space.num_points, dtype=bool))
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


class TestSignificance:
    def test_full_subset_always_significant(self, n2_partial_support):
        assert is_significant(n2_partial_support, FactorSubset.of(1, 2))

    def test_independent_labels_make_everything_significant(self, independent_labels):
        for r in (1, 2):
            for sub in subsets_of_size(2, r):
                assert is_significant(independent_labels, sub)

    def test_single_factor_structure(self, single_factor_table):
        assert is_significant(single_factor_table, FactorSubset.of(1))
        assert not is_significant(single_factor_table, FactorSubset.of(2))

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
            flags = {s.indices: is_significant(dist, s) for s in subs}
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
        assert is_significant(dist, subset) == want


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
        v = np.asarray(table)
        p = toy_balanced.probs
        for col in (0, 1):
            cond_mean = float((p[:, col] * v[:, col]).sum()) / float(p[:, col].sum())
            assert cond_mean == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_cross_check(self, toy_balanced):
        _, (table,) = subset_oracle(toy_balanced, [FactorSubset.of(1)])
        sigma2 = asymptotic_variance(toy_balanced, table)
        v = np.asarray(table)
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
        v1, v2 = map(np.asarray, tables)
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
        scaled = psi.scaled(c)
        assert scaled.threshold == psi.threshold
        assert high_risk_set(dist, scaled) == high_risk_set(dist, psi)
        f = optimal_predictor(dist, psi)
        g = optimal_predictor(dist, scaled)
        assert np.array_equal(f.plus, g.plus)
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
            assert np.array_equal(optimal_predictor(dist, psi, s).plus, plus)
            assert np.array_equal(np.asarray(t), dense_oracle.influence(dist, plus))
            assert t.mean == float((dist.probs * dense_oracle.influence(dist, plus)).sum())

    @given(dist=small_distributions(max_n=3, max_q=2), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reductions_match_composite_expressions(self, dist, data):
        n = dist.space.n
        subsets = data.draw(st.lists(
            st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
            .map(lambda idx: FactorSubset(tuple(sorted(idx)))),
            min_size=1, max_size=3,
        ))
        self.assert_matches_dense(dist, subsets)

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("n,q", [(2, 1), (3, 2), (4, 3), (5, 2), (6, 1), (6, 2)])
    def test_presets_match_dense_recipe(self, preset, n, q):
        dist = generate_scenario(preset, n, q)
        self.assert_matches_dense(dist, spread_subsets(n))
        psi = balanced_penalty(dist)
        assert high_risk_set(dist, psi) == set(map(tuple, dist.space.points(
            np.flatnonzero(dense_oracle.plus_mask(dist, psi))).tolist()))
        point_cond = dense_oracle.conditional_at_points(dist)
        mask = dist.support_mask()
        for s in spread_subsets(n):
            gap = point_cond - dense_oracle.conditional_at_points(dist, s)
            assert is_significant(dist, s) == bool(np.all(np.abs(gap[mask]) <= EQUALITY_TOL))

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

    @given(dist=small_distributions(max_n=2, max_q=2), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_predictor_has_centered_influence(self, dist, data):
        plus = data.draw(st.lists(
            st.booleans(), min_size=dist.space.num_points, max_size=dist.space.num_points,
        ))
        v = influence_table(dist, Predictor(dist.space, np.array(plus)))
        assert abs(float((dist.probs * np.asarray(v)).sum())) <= 1e-12
        assert v.mean == float((dist.probs * np.asarray(v)).sum())
