import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mdrcv.errors import ValidationError
from mdrcv.estimator import (
    DEFAULT_SCHEDULE,
    EpsilonSchedule,
    asymptotic_covariance_estimate,
    asymptotic_sd_estimate,
    cv_error_stack,
    cv_prediction_error,
    dataset_counts,
    fold_index,
    influence_values,
    plugin_moments,
    _POSITIVE,
    _trained_rule,
)
from mdrcv.linalg import inv_sqrt_symmetric
from mdrcv.mcverify import _atom_counts
from mdrcv.model import (
    MAX_RECORDS,
    Dataset,
    FactorSpace,
    FactorSubset,
    JointDistribution,
    cell_conditionals,
    cylinder_codes,
    cylinder_count,
    sample,
)
from mdrcv.oracle import (
    asymptotic_variance,
    balanced_penalty,
    influence_table,
    optimal_predictor,
    prediction_error,
    subset_oracle,
)
from mdrcv.scenarios import generate_scenario, scenario_a

from conftest import dataset_influences, small_datasets


# ---------------------------------------------------------------------------
# independent transcription of the cross-validated error, for use as an
# oracle: pure-python counting, no shared code with the implementation
# ---------------------------------------------------------------------------

def folds_by_formula(n_records, n_folds):
    base = n_records // n_folds
    out = []
    for k in range(1, n_folds + 1):
        if k < n_folds:
            out.append(list(range((k - 1) * base + 1, k * base + 1)))
        else:
            out.append(list(range((n_folds - 1) * base + 1, n_records + 1)))
    return out


def record(dataset, j):
    """Record j, 1-based, as (factor tuple, label)."""
    return tuple(int(v) for v in dataset.x[j - 1]), int(dataset.y[j - 1])


def transcribed_penalty(dataset, fold, y):
    labels = [record(dataset, j)[1] for j in fold]
    count = sum(lab == y for lab in labels)
    if count == 0:
        return 0.0
    return 1.0 / (count / len(labels))


def transcribed_prediction(x, dataset, where, subset, eps):
    u = tuple(x[i - 1] for i in subset.indices)
    cell = [
        j for j in where
        if tuple(record(dataset, j)[0][i - 1] for i in subset.indices) == u
    ]
    if cell:
        p_hat = sum(record(dataset, j)[1] == 1 for j in cell) / len(cell)
    else:
        p_hat = 0.0
    g_hat = sum(record(dataset, j)[1] == 1 for j in where) / len(where)
    return 1 if p_hat > g_hat + eps else -1


def transcribed_cv_error(dataset, n_folds, subset, eps):
    n = len(dataset)
    folds = folds_by_formula(n, n_folds)
    total = 0.0
    for y in (-1, 1):
        per_label = 0.0
        for fold in folds:
            complement = [j for j in range(1, n + 1) if j not in fold]
            psi_hat = transcribed_penalty(dataset, fold, y)
            inner = 0.0
            for j in fold:
                xj, yj = record(dataset, j)
                pred = transcribed_prediction(xj, dataset, complement, subset, eps)
                if yj == y and pred != y:
                    inner += psi_hat / len(fold)
            per_label += inner
        total += per_label / n_folds
    return 2.0 * total


class TestFoldPartition:
    def test_ten_records_three_folds(self):
        assert fold_index(10, 3).tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]

    def test_even_split(self):
        assert fold_index(8, 2).tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_all_singletons(self):
        assert fold_index(7, 7).tolist() == list(range(7))

    def test_rejects_bad_fold_counts(self):
        with pytest.raises(ValidationError):
            fold_index(10, 1)
        with pytest.raises(ValidationError):
            fold_index(3, 4)

    @given(n=st.integers(2, 300), k=st.integers(2, 12))
    @settings(max_examples=120, deadline=None)
    def test_disjoint_cover_with_closed_form_sizes(self, n, k):
        assume(k <= n)
        folds = fold_index(n, k)
        base = n // k
        assert np.bincount(folds).tolist() == [base] * (k - 1) + [n - (k - 1) * base]
        assert [list(f) for f in folds_by_formula(n, k)] == [
            (np.flatnonzero(folds == i) + 1).tolist() for i in range(k)
        ]


class TestEpsilonSchedule:
    def test_default_value(self):
        assert DEFAULT_SCHEDULE.value(16) == pytest.approx(16 ** -0.25)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValidationError):
            EpsilonSchedule(1.0, 0.5)
        with pytest.raises(ValidationError):
            EpsilonSchedule(1.0, 0.0)
        with pytest.raises(ValidationError):
            EpsilonSchedule(0.0, 0.25)

    def test_record_count_past_any_array_is_refused(self):
        assert DEFAULT_SCHEDULE.value(MAX_RECORDS) == MAX_RECORDS ** -0.25
        for n in (MAX_RECORDS + 1, 10**400):
            with pytest.raises(ValidationError, match=r"^n_records must be in 1\.\.\d+$"):
                DEFAULT_SCHEDULE.value(n)

    def test_limits_hold_along_the_rule(self):
        sched = EpsilonSchedule(2.0, 0.3)
        values = [sched.value(n) for n in (10, 10**3, 10**6)]
        assert values == sorted(values, reverse=True)
        scaled = [np.sqrt(n) * sched.value(n) for n in (10, 10**3, 10**6)]
        assert scaled == sorted(scaled)


def whole_sample_counts(ds, subset):
    """(2, cells) label counts over every record: the fold table's sum."""
    return dataset_counts(ds, subset, 2)[1].sum(axis=0)


def whole_sample_conditionals(ds, subset):
    """Empirical P(Y=1 | cell) over every record, 0 on empty cells."""
    counts = whole_sample_counts(ds, subset)
    return cell_conditionals(counts.sum(axis=0), counts[1])


def label_frequency(ds):
    """Empirical P(Y=1) from the count table's label totals."""
    neg, pos = whole_sample_counts(ds, FactorSubset.of(1)).sum(axis=1)
    return pos / (neg + pos)


def fold_stats(ds, n_folds, subset, schedule=DEFAULT_SCHEDULE):
    """Per-fold (psihat(-1), psihat(+1)) and misses for (y=-1, y=+1) of the
    CV error, as nested tuples."""
    counts = dataset_counts(ds, subset, n_folds)[1]
    _, penalties, misses = cv_error_stack(counts, schedule.value(len(ds)))
    return tuple(map(tuple, penalties.tolist())), tuple(map(tuple, misses.tolist()))


def schedule_for(eps, n_records, beta=0.25):
    """A schedule whose inflation at n_records is eps (up to rounding)."""
    return EpsilonSchedule(eps * n_records**beta, beta)


class TestFoldCellCounts:
    def test_counts_each_fold_cell_and_label(self):
        # folds of 10 records into 3: 1-3, 4-6, 7-10
        xs = [[0], [1], [1], [0], [0], [1], [1], [1], [0], [1]]
        ys = [1, -1, 1, -1, -1, 1, 1, -1, 1, 1]
        ds = Dataset(FactorSpace(1, 1), xs, ys)
        keys, counts = dataset_counts(ds, FactorSubset.of(1), 3)
        assert counts.shape == (3, 2, 2)
        assert counts.tolist() == [
            [[0, 1], [1, 1]],
            [[2, 0], [0, 1]],
            [[0, 1], [1, 2]],
        ]
        # key = (2 * fold + [y = +1]) * cells + code
        assert keys.tolist() == [2, 1, 3, 4, 4, 7, 11, 9, 10, 11]

    @given(ds=small_datasets(), k=st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_fold_bincounts(self, ds, k):
        sub = FactorSubset(tuple(range(1, ds.space.n + 1)))
        keys, counts = dataset_counts(ds, sub, k)
        assert np.array_equal(np.bincount(keys, minlength=counts.size), counts.ravel())
        codes = cylinder_codes(ds.x, sub, ds.space.q)
        cells = cylinder_count(sub.r, ds.space.q)
        folds = fold_index(len(ds), k)
        for fold, got in enumerate(counts):
            for row, label in enumerate((-1, 1)):
                keep = (folds == fold) & (ds.y == label)
                assert got[row].tolist() == np.bincount(
                    codes[keep], minlength=cells
                ).tolist()

    def test_rejects_more_folds_than_records(self):
        ds = Dataset(FactorSpace(1, 1), [[0], [0], [0]], [1, 1, 1])
        with pytest.raises(ValidationError):
            dataset_counts(ds, FactorSubset.of(1), 4)


class TestEstimateConditional:
    def test_all_in_cell_positive(self):
        ds = Dataset(FactorSpace(1, 1), [[0], [0], [0]], [1, 1, 1])
        assert whole_sample_conditionals(ds, FactorSubset.of(1))[0] == 1.0

    def test_empty_cell_uses_zero_convention(self):
        ds = Dataset(FactorSpace(1, 1), [[0], [0]], [1, -1])
        assert whole_sample_conditionals(ds, FactorSubset.of(1))[1] == 0.0
        # fold 1 holds a positive record in cell (1,), which fold 2 never
        # saw: 0/0 := 0 puts it under the threshold, so it counts as a miss
        ds = Dataset(FactorSpace(1, 1), [[1], [0], [0], [0]], [1, 1, -1, 1])
        sched = schedule_for(0.05, 4)
        est = cv_prediction_error(ds, 2, FactorSubset.of(1), sched)
        assert fold_stats(ds, 2, FactorSubset.of(1), sched)[1][0] == (0, 2)
        assert est == transcribed_cv_error(ds, 2, FactorSubset.of(1), sched.value(4))

    def test_counted_fixture(self):
        # five records in cell (0,), two of them positive
        xs = [[0], [0], [0], [0], [0], [1], [1]]
        ys = [1, 1, -1, -1, -1, 1, 1]
        ds = Dataset(FactorSpace(1, 1), xs, ys)
        assert whole_sample_counts(ds, FactorSubset.of(1)).tolist() == [[3, 0], [2, 2]]
        got = whole_sample_conditionals(ds, FactorSubset.of(1))
        assert got[0] == pytest.approx(0.4)


class TestFoldPenaltyEstimate:
    def test_two_to_one_labels(self):
        ds = Dataset(FactorSpace(1, 1), [[0]] * 6, [1, 1, -1] * 2)
        assert fold_stats(ds, 2, FactorSubset.of(1))[0] == ((3.0, 1.5), (3.0, 1.5))

    def test_absent_label_gives_zero(self):
        ds = Dataset(FactorSpace(1, 1), [[0], [1], [0], [1]], [-1, -1, 1, -1])
        sched = EpsilonSchedule(0.5, 0.25)
        est = cv_prediction_error(ds, 2, FactorSubset.of(1), sched)
        assert fold_stats(ds, 2, FactorSubset.of(1), sched)[0] == ((1.0, 0.0), (2.0, 2.0))
        assert est == transcribed_cv_error(ds, 2, FactorSubset.of(1), sched.value(4))

    def test_converges_to_balanced_weights(self, toy_balanced):
        psi = balanced_penalty(toy_balanced)
        errors = []
        for n in (100, 1000, 10000):
            ds = sample(toy_balanced, n, seed=5)
            penalties = fold_stats(ds, 2, FactorSubset.of(1))[0]
            got = np.mean([pos for _, pos in penalties])
            errors.append(abs(got - psi.psi_pos))
        assert errors[-1] < errors[0]
        assert errors[-1] < 0.05


class TestThresholdEstimate:
    def test_alternating_labels(self):
        ds = Dataset(FactorSpace(1, 1), [[0]] * 4, [1, -1, 1, -1])
        assert label_frequency(ds) == 0.5

    def test_all_positive(self):
        ds = Dataset(FactorSpace(1, 1), [[0]] * 3, [1, 1, 1])
        assert label_frequency(ds) == 1.0

    def test_converges_to_prevalence(self, n2_partial_support):
        devs = []
        for n in (200, 2000, 20000):
            ds = sample(n2_partial_support, n, seed=13)
            devs.append(abs(label_frequency(ds) - 0.4))
        assert devs[-1] < devs[0]
        assert devs[-1] < 0.02


class TestPredictRegularized:
    """The trained rule, seen through the per-fold miss counts."""

    def _dataset(self):
        # each fold is this block: cell (0,) 3 of 5 positive -> 0.6, cell
        # (1,) 1 of 5 -> 0.2, overall frequency 0.4; so each fold's rule is
        # trained on exactly these frequencies
        xs = [[0], [0], [0], [0], [0], [1], [1], [1], [1], [1]]
        ys = [1, 1, 1, -1, -1, 1, -1, -1, -1, -1]
        return Dataset(FactorSpace(1, 1), xs * 2, ys * 2)

    def _check(self, ds, sched, misses):
        est = cv_prediction_error(ds, 2, FactorSubset.of(1), sched)
        assert fold_stats(ds, 2, FactorSubset.of(1), sched)[1] == misses
        assert est == transcribed_cv_error(
            ds, 2, FactorSubset.of(1), sched.value(len(ds))
        )

    def test_estimate_above_inflated_threshold(self):
        # 0.6 > 0.4 + 0.05: cell (0,) predicts +1, missing its 2 negatives
        self._check(self._dataset(), schedule_for(0.05, 20), ((2, 1), (2, 1)))

    def test_inflation_can_flip_the_decision(self):
        # 0.6 <= 0.4 + 0.25: every record predicts -1, missing all 4 positives
        self._check(self._dataset(), schedule_for(0.25, 20), ((0, 4), (0, 4)))

    def test_unseen_point_predicts_minus(self):
        # fold 1 sits in cell (1,), which its training fold never saw
        xs = [[1], [1], [1], [0], [0], [0]]
        ys = [1, 1, 1, 1, 1, -1]
        self._check(Dataset(FactorSpace(1, 1), xs, ys), schedule_for(1e-3, 6),
                    ((0, 3), (0, 2)))

    def test_rejects_negative_eps(self):
        with pytest.raises(ValidationError):
            EpsilonSchedule(-0.1, 0.25)

    @given(ds=small_datasets(), eps1=st.floats(1e-6, 1), eps2=st.floats(1e-6, 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_eps(self, ds, eps1, eps2):
        # a larger inflation only turns +1 predictions into -1
        lo, hi = sorted((eps1, eps2))
        n, sub = len(ds), FactorSubset.of(1)
        at_lo = fold_stats(ds, 2, sub, schedule_for(lo, n))[1]
        at_hi = fold_stats(ds, 2, sub, schedule_for(hi, n))[1]
        for (neg_lo, pos_lo), (neg_hi, pos_hi) in zip(at_lo, at_hi):
            assert neg_hi <= neg_lo and pos_hi >= pos_lo


class TestCvPredictionError:
    def test_perfectly_learned_fixture_scores_zero(self):
        # labels are a deterministic function of x and every fold sees both cells
        xs = [[0], [1]] * 8
        ys = [-1, 1] * 8
        ds = Dataset(FactorSpace(1, 1), xs, ys)
        est = cv_prediction_error(ds, 4, FactorSubset.of(1), EpsilonSchedule(0.25, 0.25))
        assert est == 0.0

    def test_four_record_fixture_matches_transcription_exactly(self):
        ds = Dataset(FactorSpace(1, 1), [[0], [1], [0], [1]], [1, -1, -1, 1])
        sched = EpsilonSchedule(0.25, 0.25)
        est = cv_prediction_error(ds, 2, FactorSubset.of(1), sched)
        expected = transcribed_cv_error(ds, 2, FactorSubset.of(1), sched.value(4))
        assert est == expected  # bit-for-bit
        assert expected == 4.0  # every prediction is wrong on this fixture
        assert fold_stats(ds, 2, FactorSubset.of(1), sched) == (
            ((2.0, 2.0), (2.0, 2.0)), ((1, 1), (1, 1))
        )

    @given(ds=small_datasets(min_records=6, max_records=30))
    @settings(max_examples=30, deadline=None)
    def test_matches_transcription_on_random_data(self, ds):
        sched = EpsilonSchedule(0.5, 0.25)
        for k in (2, 3):
            est = cv_prediction_error(ds, k, FactorSubset.of(1), sched)
            expected = transcribed_cv_error(
                ds, k, FactorSubset.of(1), sched.value(len(ds))
            )
            assert est == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_consistent_level_relabeling(self):
        dist = scenario_a()
        ds = sample(dist, 900, seed=33)
        sub = FactorSubset.of(1, 2)
        base = cv_prediction_error(ds, 5, sub)
        # swap levels 0 and 2 of the first factor everywhere
        x2 = ds.x.copy()
        x2[:, 0] = 2 - x2[:, 0]
        permuted = Dataset(ds.space, x2, ds.y)
        again = cv_prediction_error(permuted, 5, sub)
        assert again == base

    def test_nonnegative_on_random_data(self):
        dist = generate_scenario("null", n=2, q=1, p_pos=0.3)
        for seed in range(5):
            ds = sample(dist, 200, seed=seed)
            assert cv_prediction_error(ds, 4, FactorSubset.of(1)) >= 0.0

    def test_estimate_converges_to_oracle_error(self):
        dist = scenario_a()
        sub = FactorSubset.of(1, 2)
        psi = balanced_penalty(dist)
        target = prediction_error(dist, psi, optimal_predictor(dist, psi, sub))
        medians = []
        for n in (500, 4000, 32000):
            devs = [
                abs(cv_prediction_error(sample(dist, n, seed=100 * n + s), 5, sub) - target)
                for s in range(5)
            ]
            medians.append(float(np.median(devs)))
        assert medians[2] < medians[0]
        assert medians[2] < 0.02


class TestSdEstimate:
    def test_deterministic_relation_gives_zero(self, deterministic_labels):
        ds = sample(deterministic_labels, 400, seed=2)
        assert asymptotic_sd_estimate(dataset_influences(ds, FactorSubset.of(1))) == 0.0

    def test_permutation_invariant(self):
        dist = scenario_a()
        ds = sample(dist, 500, seed=77)
        sub = FactorSubset.of(1, 2)
        base = asymptotic_sd_estimate(dataset_influences(ds, sub))
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(ds))
        shuffled = Dataset(ds.space, ds.x[perm], ds.y[perm])
        assert asymptotic_sd_estimate(dataset_influences(shuffled, sub)) == pytest.approx(base, abs=1e-12)

    def test_single_label_class_gives_zero_influence(self):
        # the rule trained on one class flags no cell: a zero plug-in scale
        for label in (1, -1):
            ds = Dataset(FactorSpace(1, 1), [[0], [1], [0]], [label] * 3)
            v = dataset_influences(ds, FactorSubset.of(1))
            assert v.tolist() == [0.0, 0.0, 0.0]
            assert asymptotic_sd_estimate(v) == 0.0

    def test_consistent_for_oracle_scale(self):
        dist = scenario_a()
        sub = FactorSubset.of(1, 2)
        sigma = np.sqrt(asymptotic_variance(dist, subset_oracle(dist, [sub])[1][0]))
        devs = []
        for n in (500, 5000, 50000):
            ds = sample(dist, n, seed=n)
            devs.append(abs(asymptotic_sd_estimate(dataset_influences(ds, sub)) - sigma))
        assert devs[-1] < devs[0]
        assert devs[-1] < 0.05 * sigma

    def test_influence_values_sum_to_zero(self):
        dist = scenario_a()
        ds = sample(dist, 700, seed=8)
        v = dataset_influences(ds, FactorSubset.of(1, 2))
        assert float(v.sum()) == pytest.approx(0.0, abs=1e-9)

    @given(nq=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_exact_empirical_law_gives_oracle_influence(self, nq, data):
        # 64 records and their own empirical law: every mass is a multiple of
        # 1/64, so exact, and eps = 1e-9 * 64^-0.25 lies far below every
        # nonzero gap, at least 1/64^2, between a cell's frequency and P(Y=1)
        space = FactorSpace(*nq)
        atoms = np.array(data.draw(st.lists(
            st.integers(0, 2 * space.num_points - 1), min_size=64, max_size=64)))
        y = np.where(atoms & 1, 1, -1)
        assume(0 < np.count_nonzero(y == 1) < 64)
        ds = Dataset(space, space.points(atoms >> 1), y)
        counts = np.bincount(atoms, minlength=2 * space.num_points).reshape(-1, 2)
        dist = JointDistribution(space, counts / 64)
        schedule = EpsilonSchedule(c0=1e-9)
        for r in range(1, space.n + 1):
            for idx in itertools.combinations(range(1, space.n + 1), r):
                subset = FactorSubset(idx)
                t = influence_table(dist, optimal_predictor(dist, balanced_penalty(dist), subset))
                want = t.lut[t.plane[atoms >> 1], atoms & 1]
                assert np.array_equal(dataset_influences(ds, subset, schedule), want)


class TestCovarianceEstimate:
    @pytest.mark.parametrize("influences", [[], np.empty((0, 5))], ids=["list", "array"])
    def test_no_subset_refused(self, influences):
        with pytest.raises(ValidationError, match="^need at least one subset$"):
            asymptotic_covariance_estimate(influences)

    def test_single_subset_matches_sd(self):
        dist = scenario_a()
        ds = sample(dist, 800, seed=4)
        sub = FactorSubset.of(1, 2)
        v = dataset_influences(ds, sub)
        c = asymptotic_covariance_estimate([v])
        sd = asymptotic_sd_estimate(v)
        assert c.shape == (1, 1)
        assert c[0, 0] == pytest.approx(sd**2, rel=1e-12)

    def test_duplicated_subset_blocks_whitening(self):
        dist = scenario_a()
        ds = sample(dist, 800, seed=4)
        sub = FactorSubset.of(1, 2)
        v = dataset_influences(ds, sub)
        c = asymptotic_covariance_estimate([v, v])
        assert np.all(np.isnan(inv_sqrt_symmetric(c)))

    def test_entries_converge_to_oracle_matrix(self):
        from mdrcv.oracle import asymptotic_covariance

        dist = scenario_a()
        subs = [FactorSubset.of(1, 2), FactorSubset.of(1, 3)]
        oracle = asymptotic_covariance(dist, subset_oracle(dist, subs)[1])
        devs = []
        for n in (500, 5000, 50000):
            ds = sample(dist, n, seed=3 * n + 1)
            c = asymptotic_covariance_estimate([dataset_influences(ds, s) for s in subs])
            devs.append(float(np.abs(c - oracle).max()))
        assert devs[-1] < devs[0]
        assert devs[-1] < 0.1


def centred_matmul(rows):
    """The plug-in covariance as two separate centrings computed it."""
    centered = rows - rows.mean(axis=-1, keepdims=True)
    c = centered @ centered.swapaxes(-1, -2) / rows.shape[-1]
    return (c + c.swapaxes(-1, -2)) / 2.0


@given(rows=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 300)).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.floats(-50, 50))))
@example(rows=np.full((2, 3, 40), 0.5))  # constant rows: sd exactly 0.0
@example(rows=np.arange(60.0).reshape(3, 1, 20))  # S = 1
@example(rows=np.arange(6.0).reshape(2, 3, 1))  # N = 1
@settings(max_examples=60, deadline=None)
def test_plugin_moments_equal_std_and_centred_matmul(rows):
    kept = rows.copy()
    sds, covs = plugin_moments(rows.copy())  # it centres its argument in place
    assert sds.tobytes() == np.std(rows, axis=-1).tobytes()
    assert covs.tobytes() == centred_matmul(rows).tobytes()
    assert sds.shape == rows.shape[:2] and covs.shape == rows.shape[:2] + rows.shape[1:2]
    assert sds.tobytes() == asymptotic_sd_estimate(rows).tobytes()
    assert covs.tobytes() == asymptotic_covariance_estimate(rows).tobytes()
    assert np.array_equal(rows, kept)  # the public estimates leave their input as it is
    if np.all(rows == 0.5):
        assert np.all(sds == 0.0) and np.all(covs == 0.0)


def reference_influence_table(full, eps, n_records):
    """The influence table of (..., 2, cells) full-sample counts with both
    label classes, as one expression: 2 / freq(y) * (miss - rate(y))."""
    n_labels = full.sum(axis=-1)
    miss = _trained_rule(full, n_labels, eps)[..., None, :] != _POSITIVE
    rate = (full * miss).sum(axis=-1) / n_labels
    freq = n_labels / n_records
    return (2.0 / freq)[..., None] * (miss.astype(np.float64) - rate[..., None])


@st.composite
def blocked_datasets(draw):
    """(dataset, B, K): B equal blocks of records, each with labels drawn
    at random, only y = +1 or only y = -1."""
    b, k = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    n, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n_records = draw(st.integers(k, 30))
    x = draw(hnp.arrays(np.int16, (b * n_records, n), elements=st.integers(0, q)))
    labels = st.sampled_from([-1, 1])
    y = np.concatenate([
        draw(st.one_of(labels.map(lambda v: np.full(n_records, v)),
                       hnp.arrays(np.int8, n_records, elements=labels)))
        for _ in range(b)
    ])
    return Dataset(FactorSpace(n, q), x, y), b, k


@given(data=blocked_datasets(), eps=st.floats(1e-3, 1.0))
@example(  # N = 9 with five y = +1: 2.0 / (5 / 9) is not 18 / 5 in float64
    data=(Dataset(FactorSpace(1, 1), [[0]] * 4 + [[1], [0], [1], [1], [1]] + [[0]] * 9,
                  [1] * 5 + [-1] * 4 + [1] * 9), 2, 3),
    eps=0.01,
)
@settings(max_examples=80, deadline=None)
def test_influence_stack_zeroes_one_class_blocks(data, eps):
    dataset, b, k = data
    space = dataset.space
    subset = FactorSubset(tuple(range(1, space.n + 1)))
    n_records = len(dataset) // b
    # the harness's keys, from each record's atom 2 * rank + [y = +1]
    atoms = 2 * cylinder_codes(dataset.x, subset, space.q) + (dataset.y == 1)
    keys, counts = _atom_counts(space, subset, k, atoms, n_records, None,
                                *np.empty((2, atoms.size), np.int64))
    got = influence_values(keys, counts, eps)
    sds = plugin_moments(got.copy()[:, None, :])[0][:, 0]
    assert got.shape == (b, n_records) and np.all(np.isfinite(got))
    y = dataset.y.reshape(b, n_records)
    for block in range(b):
        if np.all(y[block] == y[block, 0]):
            assert np.all(got[block] == 0.0) and sds[block] == 0.0
        else:
            table = reference_influence_table(counts[block].sum(axis=0), eps, n_records)
            local = keys[block] - 2 * k * counts.shape[-1] * block
            want = np.take(np.broadcast_to(table, counts.shape[1:]), local)
            assert got[block].tobytes() == want.tobytes()


def reference_cv_error_stack(counts, eps):
    """``cv_error_stack`` as one expression over the cells: each fold's rule
    trained on the complement's cell sums, misses counted cell by cell."""
    labels = counts.sum(axis=-1)
    sizes = labels.sum(axis=-1, keepdims=True)
    train = counts.sum(axis=-3, keepdims=True) - counts
    tot = train.sum(axis=-2)
    gamma = train[..., 1, :].sum(axis=-1) / tot.sum(axis=-1)
    plus = cell_conditionals(tot, train[..., 1, :]) > (gamma + eps)[..., None]
    misses = (counts * (plus[..., None, :] != _POSITIVE)).sum(axis=-1)
    penalties = np.divide(sizes, labels, out=np.zeros(labels.shape), where=labels > 0)
    acc = np.cumsum(penalties * misses / sizes, axis=-2)[..., -1, :]
    return (acc / counts.shape[-3]).sum(axis=-1) * 2.0, penalties, misses


@st.composite
def count_stacks(draw):
    """(B, K, 2, cells) int64 fold count tables, mostly empty cells, some
    folds of one label class, every fold holding at least one record."""
    b, k, cells = draw(st.integers(1, 4)), draw(st.integers(2, 6)), draw(st.integers(1, 27))
    counts = draw(hnp.arrays(np.int64, (b, k, 2, cells), elements=st.sampled_from([0, 0, 1, 2, 7])))
    one_class = draw(hnp.arrays(np.int8, (b, k), elements=st.integers(-1, 1)))
    counts[one_class == -1, 1] = 0  # only y = -1 in the fold
    counts[one_class == 1, 0] = 0  # only y = +1
    empty = counts.sum(axis=(-2, -1)) == 0
    counts[empty, np.maximum(one_class[empty], 0), 0] = 1
    return counts


@given(counts=count_stacks(), eps=st.sampled_from([0.0, 1e-3, 0.2, 0.6]))
@example(counts=np.ones((1, 2, 2, 1), dtype=np.int64), eps=0.0)
@settings(max_examples=200, deadline=None)
def test_cv_error_stack_matches_cell_by_cell_reference(counts, eps):
    for got, want in zip(cv_error_stack(counts, eps), reference_cv_error_stack(counts, eps)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
