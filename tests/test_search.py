import json
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdrcv import search
from mdrcv.dataio import ingest_csv
from mdrcv.errors import ValidationError
from mdrcv.estimator import DEFAULT_SCHEDULE, EpsilonSchedule, cv_prediction_error
from mdrcv.model import Dataset, FactorSpace, FactorSubset, sample
from mdrcv.oracle import balanced_penalty, optimal_predictor, prediction_error
from mdrcv.scenarios import generate_scenario, scenario_a
from mdrcv.search import MAX_SEARCH_SUBSETS, enumerate_subsets, rank_subsets

from conftest import wide_csv


class TestEnumerateSubsets:
    def test_pairs_of_three(self):
        subsets = enumerate_subsets(3, 2)
        assert subsets.tolist() == [[1, 2], [1, 3], [2, 3]]
        assert subsets.dtype == np.int32 and not subsets.flags.writeable

    def test_full_subset_is_single(self):
        assert enumerate_subsets(4, 4).tolist() == [[1, 2, 3, 4]]

    def test_rejects_oversized(self):
        with pytest.raises(ValidationError):
            enumerate_subsets(3, 4)

    @pytest.mark.parametrize("n", [3.5, True, "3"])
    def test_refuses_a_non_integer_n(self, n):
        with pytest.raises(ValidationError, match=r"^n must be an integer, got "):
            enumerate_subsets(n, 1)

    def test_budget_bounds_the_subset_count(self):
        with mock.patch.object(search, "MAX_SEARCH_SUBSETS", 10):
            assert len(enumerate_subsets(5, 3)) == 10
            with pytest.raises(ValidationError, match=r"C\(11, 1\) = 11 .* budget 10$"):
                enumerate_subsets(11, 1)

    @given(n=st.integers(1, 8), r=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_count_is_binomial(self, n, r):
        if r > n:
            return
        assert enumerate_subsets(n, r).shape == (comb(n, r), r)


class TestRankSubsets:
    def test_single_candidate_is_selected(self):
        dist = generate_scenario("pair-epistasis", n=2, q=1)
        ds = sample(dist, 200, seed=0)
        report = rank_subsets(ds, 2, 4)
        assert report.selected.indices == (1, 2)
        assert len(report.entries) == 1

    def test_report_covers_all_subsets_nonnegative(self):
        dist = scenario_a()
        ds = sample(dist, 1000, seed=5)
        report = rank_subsets(ds, 2, 5)
        assert len(report.entries) == comb(3, 2)
        assert all(v >= 0.0 for _, v in report.entries)
        values = [v for _, v in report.entries]
        assert values == sorted(values)

    @pytest.mark.parametrize("field", ["r", "n_folds"])
    def test_report_stores_judged_ints(self, field):
        ds = sample(scenario_a(), 300, seed=4)
        args = {"r": 2, "n_folds": 3}
        want = json.dumps(rank_subsets(ds, **args).to_dict())
        args[field] = np.int64(args[field])
        got = rank_subsets(ds, **args)
        assert type(getattr(got, field)) is int
        assert json.dumps(got.to_dict()) == want

    def test_deterministic_and_serializable(self):
        dist = scenario_a()
        ds = sample(dist, 1000, seed=5)
        a = rank_subsets(ds, 2, 5)
        b = rank_subsets(ds, 2, 5)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_caps_guard_runtime(self):
        # C(1000, 3) is over the budget: refused before any subset is built
        assert comb(1000, 3) > MAX_SEARCH_SUBSETS
        ds = Dataset(FactorSpace(1000, 1), np.zeros((8, 1000)), [1, -1] * 4)
        with mock.patch.object(search, "FactorSubset", side_effect=AssertionError):
            with pytest.raises(ValidationError, match="exceed the search budget"):
                rank_subsets(ds, 3, 4)

    def test_builds_one_factor_subset_per_search(self):
        # candidates stay one int32 array; only the selected one is
        # validated, when it is read
        ds = sample(generate_scenario("pair-epistasis", n=6, q=1), 400, seed=2)
        with mock.patch.object(search, "FactorSubset", wraps=FactorSubset) as built:
            report = rank_subsets(ds, 2, 4)
            assert built.call_count == 0
            selected = report.selected
        assert built.call_count == 1
        assert len(report.entries) == 15
        assert selected == FactorSubset(report.entries[0][0])
        assert report.subsets.shape == (15, 2) and report.values.shape == (15,)
        assert not report.subsets.flags.writeable and not report.values.flags.writeable

    def test_retains_at_most_32_bytes_per_subset(self):
        # one int32 row and one float64 value per subset, no Python object
        rng = np.random.default_rng(7)
        ds = Dataset(FactorSpace(60, 1), rng.integers(0, 2, (200, 60)), rng.choice([-1, 1], 200))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = rank_subsets(ds, 3, 5)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(report.values) == comb(60, 3) == 34_220
        assert held <= 32 * 34_220

    def test_wide_single_factor_search_ranks_every_factor(self):
        # 40,000 factor indices: past int16, which would wrap at 32,767
        rng = np.random.default_rng(3)
        ds = Dataset(FactorSpace(40_000, 1), rng.integers(0, 2, (4, 40_000)), [1, -1, 1, -1])
        report = rank_subsets(ds, 1, 2)
        assert sorted(report.subsets[:, 0].tolist()) == list(range(1, 40_001))
        last = report.entries[int(np.flatnonzero(report.subsets[:, 0] == 40_000)[0])]
        assert last == ((40_000,), cv_prediction_error(ds, 2, FactorSubset.of(40_000)))

    def test_cell_table_over_the_dense_cap_rejected(self):
        # 64^5 cells: the count table has the point tables' cap
        ds = Dataset(FactorSpace(5, 63), np.full((8, 5), 63), [1, -1] * 4)
        message = r"r=5, q=63: \(q\+1\)\^r cells exceed dense-table cap"
        with pytest.raises(ValidationError, match=message):
            rank_subsets(ds, 5, 4)
        with pytest.raises(ValidationError, match=message):
            cv_prediction_error(ds, 4, FactorSubset.of(1, 2, 3, 4, 5))

    def test_wide_ternary_csv_matches_single_subset_estimator(self, tmp_path):
        # 40 factors: past any dense size, but C(40, 2) = 780 pairs of 9 cells
        path = wide_csv(tmp_path / "wide.csv", n=40, n_records=1500)
        ds = ingest_csv(path)
        assert ds.space == FactorSpace(40, 2)
        report = rank_subsets(ds, 2, 5)
        assert len(report.entries) == 780
        for indices, value in report.entries:
            assert value == cv_prediction_error(ds, 5, FactorSubset(indices))

    def test_recovers_planted_pair(self):
        dist = scenario_a()
        hits = 0
        for seed in range(30):
            ds = sample(dist, 3000, seed=1000 + seed)
            if rank_subsets(ds, 2, 5).selected.indices == (1, 2):
                hits += 1
        assert hits >= 29

    def test_null_scenario_values_are_indistinguishable(self):
        dist = generate_scenario("null", n=4, q=1, p_pos=0.4)
        for seed in (3, 14):
            ds = sample(dist, 3000, seed=seed)
            values = [v for _, v in rank_subsets(ds, 2, 5).entries]
            assert max(values) - min(values) < 0.2

    def test_oracle_ranking_puts_significant_subset_first(self):
        dist = scenario_a()
        psi = balanced_penalty(dist)
        errs = {
            s: prediction_error(dist, psi, optimal_predictor(dist, psi, FactorSubset(s)))
            for s in map(tuple, enumerate_subsets(3, 2).tolist())
        }
        assert min(errs, key=errs.get) == (1, 2)
        assert all(errs[(1, 2)] <= v + 1e-12 for v in errs.values())

    def test_exact_tie_prefers_lexicographic(self):
        # identical factor columns give every pair the same cell codes, so
        # every pair gets the same estimate
        ds0 = sample(generate_scenario("single-factor", n=1, q=2), 500, seed=9)
        ds = Dataset(FactorSpace(4, 2), np.repeat(ds0.x, 4, axis=1), ds0.y)
        report = rank_subsets(ds, 2, 5)
        values = {v for _, v in report.entries}
        assert len(report.entries) == 6 and len(values) == 1
        assert report.selected.indices == (1, 2)
        assert report.to_dict()["tie_tolerance"] == 0.0


class TestBlockSize:
    def test_search_csv_shape_counts_595_tables(self):
        # n = 20, q = 1, N = 20,000, r = 4, K = 5: head = 2K (q+1)^2 = 40
        assert search._block_size(40, 2, 20_000, 20, 4) == 4
        assert search._passes(20, 4, 4) == 595
        assert search._passes(20, 4, 1) == comb(20, 4)

    @pytest.mark.parametrize("q, n_records, n, r, want", [
        (2, 2000, 300, 2, 2),  # wide ternary pairs
        (2, 2000, 60, 3, 2),
        (1, 20_000, 20, 3, 4),
        (63, 200, 4, 4, 1),  # 64^2 cells after the prefix: only b = 1 fits
        (1, 20_000, 200, 1, 8),  # r = 1: 2K * 2^8 bins a table
    ])
    def test_picks_from_sizes_within_the_joint_cap(self, q, n_records, n, r, want):
        head = 10 * (q + 1) ** max(r - 2, 0)
        b = search._block_size(head, q + 1, n_records, n, r)
        assert b == want
        assert b == 1 or head * (q + 1) ** (min(r, 2) * b) <= search.BLOCK_ENTRIES

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_one_bincount_per_joint_table(self, r):
        rng = np.random.default_rng(r)
        ds = Dataset(FactorSpace(9, 1), rng.integers(0, 2, (300, 9)), rng.choice([-1, 1], 300))
        want = rank_subsets(ds, r, 5)
        head, span = 10 * 2 ** max(r - 2, 0), 2 ** min(r, 2)
        for b in range(1, 9 - max(r - 2, 0) + 1):
            if b > 1 and head * span**b > search.BLOCK_ENTRIES:
                break
            with mock.patch.object(search, "_block_size", return_value=b), \
                    mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
                got = rank_subsets(ds, r, 5)
            assert bincount.call_count == search._passes(9, r, b)
            assert got.to_dict() == want.to_dict()


@st.composite
def search_inputs(draw):
    """(dataset, r, K, schedule, subsets per count block, block size) for
    ``rank_subsets``.

    Levels up to q = 3 and up to 60 records, so N is often below the cell
    count; fold 1 is sometimes made one-class.  The block size is the
    search's own pick (None) or any size it can pick for the shape: from 1
    to the n - r + 2 factors after the shortest prefix, with a joint table
    of at most ``BLOCK_ENTRIES`` bins past size 1.
    """
    q = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    top = n
    r = draw(st.one_of(st.just(1), st.just(top), st.integers(1, top)))
    n_rec = draw(st.integers(2, 60))
    k = draw(st.integers(2, min(7, n_rec)))
    xs = draw(st.lists(st.lists(st.integers(0, q), min_size=n, max_size=n),
                       min_size=n_rec, max_size=n_rec))
    ys = draw(st.lists(st.sampled_from((-1, 1)), min_size=n_rec, max_size=n_rec))
    if draw(st.booleans()):
        ys[: n_rec // k] = [draw(st.sampled_from((-1, 1)))] * (n_rec // k)
    schedule = draw(st.one_of(
        st.just(DEFAULT_SCHEDULE),
        st.builds(EpsilonSchedule, st.floats(0.01, 4.0), st.floats(0.01, 0.49)),
    ))
    per_block = draw(st.integers(1, 4))
    fixed = max(r - 2, 0)
    head, span = 2 * k * (q + 1) ** fixed, (q + 1) ** min(r, 2)
    sizes = [b for b in range(1, n - fixed + 1) if b == 1 or head * span**b <= search.BLOCK_ENTRIES]
    size = draw(st.one_of(st.none(), st.sampled_from(sizes)))
    return Dataset(FactorSpace(n, q), xs, ys), r, k, schedule, per_block, size


@given(case=search_inputs())
@example(case=(  # 6 pairs in blocks of 4; 13 records in 3 folds; 16 cells; fold 1 all +1
    Dataset(FactorSpace(4, 3),
            [[i % 4, i // 4 % 4, (i * 3) % 4, 3 - i % 4] for i in range(13)],
            [1] * 4 + [-1, 1, -1, -1, 1, 1, -1, 1, -1]),
    2, 3, EpsilonSchedule(0.3, 0.4), 4, None,
))
@example(case=(  # r = n = 4 at q = 2: one subset, 81 cells, 10 records in 4 folds
    Dataset(FactorSpace(4, 2),
            [[i % 3, i // 3 % 3, (i * 2) % 3, 2 - i % 3] for i in range(10)],
            [1, -1] * 5),
    4, 4, DEFAULT_SCHEDULE, 1, None,
))
@example(case=(  # r = 1 in one block of 5: the key is (fold, label) and its 5 levels
    Dataset(FactorSpace(5, 1), [[(i >> j) % 2 for j in range(5)] for i in range(9)],
            [1, -1, -1, 1, 1, -1, 1, -1, -1]),
    1, 3, DEFAULT_SCHEDULE, 8, 5,
))
@example(case=(  # r = 1 in blocks {1, 2, 3} and {4, 5}, the second padded with a 0 digit
    Dataset(FactorSpace(5, 2), [[(i * (j + 1)) // 2 % 3 for j in range(5)] for i in range(14)],
            [1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, -1, -1]),
    1, 4, DEFAULT_SCHEDULE, 2, 3,
))
@example(case=(  # r = 2, no prefix: blocks {1, 2}, {3, 4}; pairs within and across them
    Dataset(FactorSpace(4, 2), [[i % 3, i // 3 % 3, (i * 2) % 3, (i + 1) % 3] for i in range(12)],
            [1, 1, -1, 1, -1, -1, 1, -1, 1, -1, -1, 1]),
    2, 2, EpsilonSchedule(0.5, 0.3), 8, 2,
))
@example(case=(  # one block of 4 and {5}: 6 pairs inside it, 4 across, scored table by table
    Dataset(FactorSpace(5, 1), [[(i * (j + 2)) // 3 % 2 for j in range(5)] for i in range(11)],
            [1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1]),
    2, 2, DEFAULT_SCHEDULE, 3, 4,
))
@example(case=(  # r = 3 in blocks of 2: prefix (1,) straddles {1, 2}; (4,) pairs only in {5, 6}
    Dataset(FactorSpace(6, 1), [[(i + j * i // 2) % 2 for j in range(6)] for i in range(20)],
            [1, -1, -1, 1] * 5),
    3, 2, DEFAULT_SCHEDULE, 4, 2,
))
@example(case=(  # r = 4 in blocks of 2 at q = 2: prefix (1, 2) pairs {3, 4} with {5}
    Dataset(FactorSpace(5, 2), [[(i * (j + 1) + j) % 3 for j in range(5)] for i in range(30)],
            [1, -1, -1] * 10),
    4, 3, DEFAULT_SCHEDULE, 2, 2,
))
@example(case=(  # blocks {1..6}, {7}: 10 * 2^12 joint bins, so the keys are int32
    Dataset(FactorSpace(7, 1), [[(i >> j) % 2 for j in range(7)] for i in range(0, 120, 7)],
            [1, -1, -1, 1, 1, -1, 1, -1, 1, 1, -1, -1, 1, -1, 1, 1, -1, 1]),
    2, 5, DEFAULT_SCHEDULE, 3, 6,
))
@settings(max_examples=80, deadline=None)
def test_search_kernel_matches_single_subset_estimator(case):
    ds, r, k, schedule, per_block, size = case
    width = k * 2 * (ds.space.q + 1) ** r
    with mock.patch.object(search, "BLOCK_ENTRIES", per_block * width), \
            mock.patch.object(search, "_block_size", wraps=search._block_size) as rule:
        if size is not None:
            rule.side_effect = lambda *sizes: size
        report = rank_subsets(ds, r, k, schedule)
    want = [
        (s, cv_prediction_error(ds, k, FactorSubset(s), schedule))
        for s in map(tuple, enumerate_subsets(ds.space.n, r).tolist())
    ]
    want.sort(key=lambda e: (e[1], e[0]))
    assert list(report.entries) == want
    assert report.selected == FactorSubset(want[0][0])
