import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdrcv import mcverify, model
from mdrcv.errors import ValidationError
from mdrcv.estimator import (
    DEFAULT_SCHEDULE,
    asymptotic_covariance_estimate,
    asymptotic_sd_estimate,
    cv_prediction_error,
    dataset_counts,
    fold_index,
    influence_values,
)
from mdrcv.mcverify import (
    HISTOGRAM_BINS,
    RECORDS_PER_BATCH,
    CltReport,
    Replications,
    clt_check,
    derive_seed,
    ks_statistic,
    multivariate_check,
    normal_cdf,
    run_replications,
    text_histogram,
    verify_clt,
)
from mdrcv.model import FactorSubset, sample
from mdrcv.oracle import asymptotic_covariance, asymptotic_variance, subset_oracle
from mdrcv.scenarios import generate_scenario, scenario_a

import exact_law
from conftest import dataset_influences


def series_normal_cdf(z, terms=120):
    """High-precision reference: Taylor expansion of the normal CDF around 0,
    Phi(z) = 1/2 + pdf(z) * sum_k z^(2k+1) / (1*3*...*(2k+1))."""
    if z < -8.5:
        return 0.0
    if z > 8.5:
        return 1.0
    total = 0.0
    term = z
    for k in range(terms):
        total += term
        term = term * z * z / (2 * k + 3)
    return 0.5 + math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) * total


class TestNormalCdf:
    def test_midpoint(self):
        assert normal_cdf(0.0) == 0.5

    def test_monotone_and_saturating(self):
        grid = np.linspace(-9, 9, 181)
        vals = [normal_cdf(z) for z in grid]
        assert vals == sorted(vals)
        assert vals[0] < 1e-12 and vals[-1] > 1 - 1e-12

    def test_quantile_value(self):
        assert 0.9749 < normal_cdf(1.96) < 0.9751

    def test_matches_series_reference(self):
        for z in np.linspace(-6, 6, 61):
            assert abs(normal_cdf(z) - series_normal_cdf(z)) < 1e-7

    def test_matches_scipy(self):
        for z in np.linspace(-8, 8, 33):
            assert normal_cdf(z) == pytest.approx(scipy.stats.norm.cdf(z), abs=1e-12)


class TestKsStatistic:
    @given(data=st.lists(st.floats(-40, 40), min_size=1, max_size=300), sd=st.floats(0.1, 10))
    @settings(max_examples=60, deadline=None)
    def test_cdf_is_the_scalar_formula_bit_for_bit(self, data, sd):
        arr = np.sort(np.asarray(data) / sd)
        want = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in arr])
        assert normal_cdf(arr).tobytes() == want.tobytes()
        steps = np.arange(arr.size + 1) / arr.size
        ks = max((steps[1:] - want).max(), (want - steps[:-1]).max())
        assert ks_statistic(data, sd) == ks

    def test_single_point_at_median(self):
        assert ks_statistic([0.0]) == pytest.approx(0.5)

    def test_constant_sample_is_far_from_normal(self):
        assert ks_statistic(np.full(50, 1.0) - 1.0) >= 0.5

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            ks_statistic([])

    def test_non_finite_sample_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValidationError, match="finite"):
                ks_statistic([0.0, bad, 1.0])

    def test_nonpositive_sd_rejected(self):
        with pytest.raises(ValidationError):
            ks_statistic([1.0, 2.0], 0.0)

    def test_normal_draws_pass_their_own_test(self):
        rng = np.random.default_rng(123)
        draws = rng.standard_normal(1000)
        assert ks_statistic(draws) < 1.63 / math.sqrt(1000)

    def test_agrees_with_scipy_kstest(self):
        rng = np.random.default_rng(7)
        draws = rng.normal(2.0, 3.0, size=400)
        ours = ks_statistic(draws - 2.0, 3.0)
        ref = scipy.stats.kstest(draws, "norm", args=(2.0, 3.0)).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    @given(
        data=st.lists(st.floats(-50, 50), min_size=1, max_size=200),
        sd=st.floats(0.1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounded_in_unit_interval(self, data, sd):
        got = ks_statistic(data, sd)
        assert 0.0 <= got <= 1.0


def numpy_seed(master_seed, replication):
    """The seed of replication m, from numpy's own SeedSequence."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(replication,))
    return int(ss.generate_state(1, np.uint64)[0])


class TestSeedDerivation:
    # up to _integer's 2048 bits; past 2**32 a spawn key is two words
    @given(master=st.integers(0, 2**2048 - 1) | st.sampled_from([0, 2**32, 2**128 + 1]),
           reps=st.lists(st.integers(0, 2**40) | st.integers(2**32 - 2, 2**32 + 2),
                         min_size=1, max_size=8),
           wide=st.integers(0, 2**2048 - 1))
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, master, reps, wide):
        want = [numpy_seed(master, m) for m in reps]
        assert [derive_seed(master, m) for m in reps] == want
        got = derive_seed(master, np.array(reps, dtype=np.uint64))
        assert got.dtype == np.uint64 and got.tolist() == want
        assert derive_seed(master, np.array(reps, dtype=np.int64)).tolist() == want
        assert derive_seed(master, wide) == numpy_seed(master, wide)

    def test_distinct_across_replications(self):
        seeds = derive_seed(42, np.arange(1, 200))
        assert seeds.tolist() == [numpy_seed(42, m) for m in range(1, 200)]
        assert len(set(seeds.tolist())) == 199

    @pytest.mark.parametrize("master, rep, message", [
        (-1, 1, "master_seed must be >= 0, got -1"),
        (1, -1, "replication must be >= 0, got -1"),
        (1, np.array([3, -2, 5]), "replication must be >= 0, got -2"),
        (1.5, 1, "master_seed must be an integer, got 1.5"),
        (True, 1, "master_seed must be an integer, got True"),
        (1, True, "replication must be an integer, got True"),
        (1, np.array([1.0, 2.0]), "replication must be a 1-D integer array, got float64"),
        (1, np.array([True]), "replication must be a 1-D integer array, got bool"),
        (1, np.ones((2, 2), dtype=np.int64), "replication must be a 1-D integer array, got int64"),
    ])
    def test_refusal_names_the_argument(self, master, rep, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            derive_seed(master, rep)

    def test_no_numpy_seed_sequence_on_the_run_path(self):
        dist = scenario_a()
        subs = [FactorSubset.of(1, 2)]
        errors, _ = subset_oracle(dist, subs)
        spy = AssertionError("numpy seeding called")
        with mock.patch("numpy.random.default_rng", side_effect=spy), \
                mock.patch("numpy.random.SeedSequence", side_effect=spy):
            run_replications(dist, subs, errors, 400, 4, DEFAULT_SCHEDULE, 30, master_seed=3)
            sample(dist, 10, [1, 2**200])

    def test_run_at_a_wide_master_seed_matches_numpy_seeding(self):
        # 2**128 + 1 is five entropy words: the pool's extra mixing round
        dist = scenario_a()
        subs = [FactorSubset.of(1, 2), FactorSubset.of(1, 3)]
        errors, _ = subset_oracle(dist, subs)
        master = 2**128 + 1
        got = run_replications(dist, subs, errors, 6000, 4, DEFAULT_SCHEDULE, 12, master)
        want = per_replication_reference(dist, subs, errors, 6000, 4, 12, master, numpy_seed)
        assert same_replications(got, want)


class TestRunReplications:
    def test_single_replication_reproducible(self):
        dist = scenario_a()
        subs = [FactorSubset.of(1, 2)]
        errors, _ = subset_oracle(dist, subs)
        a = run_replications(dist, subs, errors, 400, 4, DEFAULT_SCHEDULE, 1, master_seed=5)
        b = run_replications(dist, subs, errors, 400, 4, DEFAULT_SCHEDULE, 1, master_seed=5)
        assert same_replications(a, b)

    def test_deterministic_scenario_yields_exact_zeros(self):
        dist = generate_scenario("single-factor", n=1, q=1, p_low=0.0, p_high=1.0)
        subs = [FactorSubset.of(1)]
        res = run_replications(
            dist, subs, subset_oracle(dist, subs)[0], 500, 5, DEFAULT_SCHEDULE, 20,
            master_seed=3,
        )
        assert np.max(np.abs(res.z[:, 0])) == 0.0

    def test_centering_at_scale(self):
        dist = scenario_a()
        sub = FactorSubset.of(1, 2)
        errors, tables = subset_oracle(dist, [sub])
        sigma = math.sqrt(asymptotic_variance(dist, tables[0]))
        m = 1000
        res = run_replications(dist, [sub], errors, 2000, 5, DEFAULT_SCHEDULE, m, master_seed=17)
        z = res.z[:, 0]
        assert abs(z.mean()) < 4 * sigma / math.sqrt(m)

    def test_worker_pool_matches_serial(self):
        dist = scenario_a()
        subs = [FactorSubset.of(1, 2), FactorSubset.of(1, 3)]
        errors, _ = subset_oracle(dist, subs)
        serial = run_replications(dist, subs, errors, 300, 3, DEFAULT_SCHEDULE, 6, master_seed=9)
        parallel = run_replications(
            dist, subs, errors, 300, 3, DEFAULT_SCHEDULE, 6, master_seed=9, workers=2
        )
        assert np.array_equal(serial.z, parallel.z)

    def test_deviation_scale_is_stable_in_n(self):
        # the scaled deviations should have a stable distribution across
        # sample sizes once the rule has locked onto the target predictor
        dist = scenario_a()
        sub = FactorSubset.of(1, 2)
        errors, _ = subset_oracle(dist, [sub])
        q99 = []
        for n in (2000, 8000):
            res = run_replications(
                dist, [sub], errors, n, 5, DEFAULT_SCHEDULE, 400, master_seed=31
            )
            q99.append(float(np.quantile(np.abs(res.z[:, 0]), 0.99)))
        assert 0.6 < q99[1] / q99[0] < 1.6

    @pytest.mark.parametrize("field, value, message", [
        ("n_records", 2.5, "n_records must be an integer, got 2.5"),
        ("n_records", 0, "sample size must be >= 1, got 0"),
        ("n_replications", 2.0, "n_replications must be an integer, got 2.0"),
        ("master_seed", 1.5, "master_seed must be an integer, got 1.5"),
        ("master_seed", True, "master_seed must be an integer, got True"),
        ("master_seed", -1, "master_seed must be >= 0, got -1"),
        ("workers", "2", "workers must be an integer, got '2'"),
        ("workers", 1.5, "workers must be an integer, got 1.5"),
        ("workers", None, "workers must be an integer, got None"),
        ("workers", True, "workers must be an integer, got True"),
        ("workers", 0, "workers must be >= 1, got 0"),
        ("workers", -3, "workers must be >= 1, got -3"),
        ("n_folds", 1, "need at least 2 folds, got 1"),
        ("n_folds", 101, "cannot split 100 records into 101 folds"),
    ])
    def test_counts_and_seed_are_judged_once(self, field, value, message):
        # judged here, before any batch: not coerced, and not left to numpy
        args = {"n_records": 100, "n_folds": 2, "n_replications": 2, "master_seed": 1,
                "workers": 1, field: value}
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            verify_clt(scenario_a(), [FactorSubset.of(1, 2)], args["n_records"],
                       args["n_folds"], args["n_replications"], args["master_seed"],
                       workers=args["workers"])

    @pytest.mark.parametrize("field", ["n_records", "n_folds", "n_replications", "master_seed"])
    def test_report_stores_judged_ints(self, field):
        args = {"n_records": 100, "n_folds": 2, "n_replications": 2, "master_seed": 3}
        want = json.dumps(verify_clt(scenario_a(), [FactorSubset.of(1, 2)], **args)[0].to_dict())
        args[field] = np.int64(args[field])
        got = verify_clt(scenario_a(), [FactorSubset.of(1, 2)], **args)[0]
        assert type(getattr(got, field)) is int
        assert json.dumps(got.to_dict()) == want

    def test_empty_subset_list_rejected(self):
        with pytest.raises(ValidationError, match="at least one subset"):
            run_replications(scenario_a(), [], [], 100, 2, DEFAULT_SCHEDULE, 1, master_seed=1)

    def test_error_count_must_match_subsets(self):
        dist = scenario_a()
        with pytest.raises(ValidationError):
            run_replications(
                dist, [FactorSubset.of(1, 2)], [0.1, 0.2], 100, 2, DEFAULT_SCHEDULE, 1,
                master_seed=1,
            )


def per_replication_reference(dist, subsets, errors, n_records, n_folds, m, seed,
                              derive=derive_seed):
    """Replications one dataset at a time, from the public primitives."""
    z, sds, covs, one_class = [], [], [], []
    folds = fold_index(n_records, n_folds)
    for rep in range(1, m + 1):
        dataset = sample(dist, n_records, derive(seed, rep))
        one_class.append(any(set(dataset.y[folds == k]) != {-1, 1} for k in range(n_folds)))
        z.append([
            math.sqrt(n_records) * (cv_prediction_error(dataset, n_folds, s) - err)
            for s, err in zip(subsets, errors)
        ])
        infl = [dataset_influences(dataset, s) for s in subsets]
        sds.append([asymptotic_sd_estimate(v) for v in infl])
        covs.append(asymptotic_covariance_estimate(infl))
    return Replications(np.array(z), np.array(sds), np.array(covs), np.array(one_class))


def same_replications(got, want):
    """Every field equal, with its shape and dtype."""
    return all(
        g.dtype == w.dtype and np.array_equal(g, w)
        for g, w in zip(vars(got).values(), vars(want).values())
    )


@st.composite
def replication_configs(draw):
    preset = draw(st.sampled_from(["null", "single-factor", "pair-epistasis", "independent"]))
    n = draw(st.integers(2 if preset == "pair-epistasis" else 1, 3))
    q = draw(st.integers(1, 2))
    subsets = draw(
        st.lists(
            st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True).map(
                lambda idx: tuple(sorted(idx))
            ),
            min_size=1, max_size=3,
        )
    )
    n_records = draw(st.integers(8, 3000))
    n_folds = draw(st.integers(2, 6))
    return preset, n, q, subsets, n_records, n_folds


class TestBatchedEngine:
    """Batched replications equal replications run one dataset at a time."""

    @given(
        config=replication_configs(),
        m=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(  # three batches of 3, 3 and 1 replications
        config=("pair-epistasis", 3, 2, [(1, 2), (1, 3)], 5000, 5), m=7, seed=4
    )
    @example(  # more records than a batch holds: one replication per batch
        config=("null", 2, 1, [(1,), (1, 2)], RECORDS_PER_BATCH + 3, 3), m=2, seed=8
    )
    @example(  # subsets of different sizes share the batch's rows and buffer
        config=("pair-epistasis", 3, 2, [(1,), (1, 2, 3)], 1500, 4), m=6, seed=11
    )
    @example(  # a repeated subset
        config=("pair-epistasis", 3, 1, [(1, 2), (1, 2)], 900, 5), m=4, seed=2
    )
    @example(  # S = 1
        config=("independent", 3, 2, [(2, 3)], 700, 3), m=9, seed=6
    )
    # the digit route: 1458 atoms against 1200 draws a batch
    @example(  # subsets of different sizes
        config=("pair-epistasis", 6, 2, [(1,), (2, 5), (1, 3, 6)], 100, 4), m=12, seed=5
    )
    @example(  # a repeated subset
        config=("pair-epistasis", 6, 2, [(2, 4), (2, 4)], 100, 3), m=12, seed=7
    )
    @example(  # r = n
        config=("independent", 6, 2, [(1, 2, 3, 4, 5, 6)], 100, 5), m=12, seed=9
    )
    @example(  # 13122 atoms: the lookup route, though the last batch of 1 samples by sorting
        config=("pair-epistasis", 8, 2, [(1, 2), (3,)], 12000, 5),
        m=RECORDS_PER_BATCH // 12000 + 1, seed=1,
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_replication_reference(self, config, m, seed):
        preset, n, q, subsets, n_records, n_folds = config
        dist = generate_scenario(preset, n, q)
        subs = [FactorSubset(s) for s in subsets]
        errors, _ = subset_oracle(dist, subs)
        args = (dist, subs, errors, n_records, n_folds)
        want = per_replication_reference(*args, m, seed)
        got = run_replications(*args, DEFAULT_SCHEDULE, m, seed)
        assert same_replications(got, want)

    def test_worker_pool_over_several_batches_matches_serial(self):
        dist = scenario_a()
        subs = [FactorSubset.of(1, 2), FactorSubset.of(1, 3)]
        errors, _ = subset_oracle(dist, subs)
        n_records = RECORDS_PER_BATCH // 3  # three replications per batch
        args = (dist, subs, errors, n_records, 4, DEFAULT_SCHEDULE, 8)
        serial = run_replications(*args, master_seed=2)
        parallel = run_replications(*args, master_seed=2, workers=2)
        assert same_replications(parallel, serial)

    def test_multi_batch_run_builds_the_guide_table_once(self, monkeypatch):
        # N = 6000, M = 12: at least two batches on scenario A's 54 atoms
        build = model._guide_table
        built = []
        monkeypatch.setattr(model, "_guide_table", lambda d: built.append(d) or build(d))
        dist = scenario_a()
        verify_clt(dist, [FactorSubset.of(1, 2)], 6000, 5, 12, 3)
        assert len(built) == 1 and built[0] is dist
        assert 12 > max(1, RECORDS_PER_BATCH // 6000)

    def test_batches_are_not_judged_again(self, monkeypatch):
        # the sampled records are valid by construction: no Dataset check and
        # copy per batch, and the same replications as one dataset at a time
        judged = []
        check = model.Dataset.__post_init__
        monkeypatch.setattr(model.Dataset, "__post_init__",
                            lambda self: judged.append(1) or check(self))
        dist = scenario_a()
        subs = [FactorSubset.of(1, 2), FactorSubset.of(1, 3)]
        errors, _ = subset_oracle(dist, subs)
        n_records = RECORDS_PER_BATCH // 3  # three batches of 3, 3 and 1
        got = run_replications(dist, subs, errors, n_records, 5, DEFAULT_SCHEDULE, 7, 4)
        assert judged == []
        assert same_replications(got, per_replication_reference(
            dist, subs, errors, n_records, 5, 7, 4))

    def test_sample_runs_once_per_batch(self, monkeypatch):
        # the harness draws through model.sample, the name a tracer charges
        # sampling to, and reads the atoms it returns
        calls = []
        monkeypatch.setattr(mcverify, "sample",
                            lambda *a, **kw: calls.append(len(a[2])) or sample(*a, **kw))
        dist, subs = scenario_a(), [FactorSubset.of(1, 2)]
        errors, _ = subset_oracle(dist, subs)
        run_replications(dist, subs, errors, RECORDS_PER_BATCH // 3, 5, DEFAULT_SCHEDULE, 7, 4)
        assert calls == [3, 3, 1]

    @pytest.mark.parametrize("n, n_records, lookup", [(10, 2000, False), (9, 2 * 3**9, True),
                                                      (9, 2 * 3**9 - 1, False)])
    def test_key_route_is_fixed_by_the_full_batch(self, n, n_records, lookup):
        # 2 * 3^n atoms against a full batch of RECORDS_PER_BATCH // 2000 * 2000
        # or 1 * N draws
        dist = generate_scenario("pair-epistasis", n, 2)
        subs = [FactorSubset.of(1, 2), FactorSubset.of(3), FactorSubset.of(1, 2)]
        blocks = max(1, RECORDS_PER_BATCH // n_records)
        context = (dist, subs, None, n_records, 5)
        _, tables, _ = mcverify._batch_buffers(context, blocks)
        if lookup:  # one table per distinct subset, at most one int64 per draw
            assert tables[0] is tables[2] and tables[0] is not tables[1]
            assert all(t.dtype == np.int64 and t.size <= blocks * n_records for t in tables)
        else:
            assert tables == [None] * 3

    def test_influence_kernel_runs_once_per_subset_per_batch(self, monkeypatch):
        # the harness reads its influences through estimator.influence_values,
        # the name a tracer charges them to: one call per subset per batch
        kernel, calls = mcverify.influence_values, []
        monkeypatch.setattr(mcverify, "influence_values",
                            lambda keys, *rest: calls.append(keys.shape) or kernel(keys, *rest))
        assert kernel is influence_values
        dist = scenario_a()
        subs = [FactorSubset.of(1, 2), FactorSubset.of(1, 3)]
        errors, _ = subset_oracle(dist, subs)
        n_records = RECORDS_PER_BATCH // 3  # three batches of 3, 3 and 1
        run_replications(dist, subs, errors, n_records, 5, DEFAULT_SCHEDULE, 7, 4)
        assert calls == [(b, n_records) for b in (3, 3, 1) for _ in subs]

    def test_serial_import_loads_no_process_pool(self):
        # concurrent.futures.process pulls in multiprocessing; only a pooled
        # run imports it
        src = str(Path(mcverify.__file__).resolve().parents[1])
        code = ("import sys, mdrcv.mcverify; "
                "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
        assert out.stdout.strip() == "[]"

    def test_fold_count_is_judged_before_a_pool_starts(self, monkeypatch):
        # a worker that refused it in its initializer would break the pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
        monkeypatch.setattr(mcverify.os, "cpu_count", lambda: 2)
        with pytest.raises(ValidationError, match="^cannot split 3 records into 5 folds$"):
            run_replications(scenario_a(), [FactorSubset.of(1, 2)], [0.1], 3, 5,
                             DEFAULT_SCHEDULE, 2 * RECORDS_PER_BATCH, 1, workers=2)

    @pytest.mark.parametrize("cpus, pool_sizes", [(2, [2]), (1, []), (None, [])])
    def test_worker_pool_is_capped_at_the_cpu_count(self, monkeypatch, cpus, pool_sizes):
        # a recording pool runs the batches in this process: no process starts
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(mcverify, "_WORKER_CONTEXT", None)
        monkeypatch.setattr(mcverify.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(mcverify, "RECORDS_PER_BATCH", 100)  # one replication per batch
        dist = scenario_a()
        subs = [FactorSubset.of(1, 2)]
        errors, _ = subset_oracle(dist, subs)
        args = (dist, subs, errors, 100, 2, DEFAULT_SCHEDULE, 6)
        serial = run_replications(*args, master_seed=5)
        pooled = run_replications(*args, master_seed=5, workers=5000)
        assert sizes == pool_sizes
        assert same_replications(pooled, serial)


@st.composite
def small_tables(draw):
    """A random small table, both labels with mass, and one of its subsets."""
    n, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    points = (q + 1) ** n
    weights = np.array(draw(st.lists(st.integers(0, 5), min_size=2 * points,
                                     max_size=2 * points))).reshape(points, 2)
    weights[draw(st.integers(0, points - 1)), 0] += 1
    weights[draw(st.integers(0, points - 1)), 1] += 1
    dist = model.JointDistribution(model.FactorSpace(n, q), weights / weights.sum())
    indices = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    return dist, FactorSubset(tuple(sorted(indices)))


class TestKeyRoutes:
    """Both key routes give every block's ``dataset_counts``, byte for byte."""

    @given(table=small_tables(), n_records=st.integers(2, 40), k=st.integers(2, 5),
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_lookup_and_digit_routes_equal_dataset_counts(self, table, n_records, k, seeds):
        dist, subset = table
        k = min(k, n_records)
        size = len(seeds) * n_records
        out = (np.empty(size), np.empty(size, np.intp), np.empty(size), np.empty(size, bool))
        atoms = sample(dist, n_records, np.array(seeds, np.uint64), out=out)
        cells = model.cylinder_count(subset.r, dist.space.q)
        routes = [mcverify._atom_counts(dist.space, subset, k, atoms, n_records, lut,
                                        *np.empty((2, size), np.int64))
                  for lut in (mcverify._atom_codes(dist, subset), None)]
        for b, seed in enumerate(seeds):
            keys, counts = dataset_counts(sample(dist, n_records, seed), subset, k)
            keys += 2 * k * cells * b
            for got_keys, got_counts in routes:
                assert got_keys[b].tobytes() == keys.tobytes()
                assert got_counts[b].tobytes() == counts.tobytes()


class TestBatchBuffers:
    """A run allocates its batch buffers once, and they are its alone."""

    @staticmethod
    def scenario_a_pair():
        dist = scenario_a()
        subs = [FactorSubset.of(1, 2), FactorSubset.of(1, 3)]
        return dist, subs, subset_oracle(dist, subs)[0]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_minflt counts minor page faults on Linux")
    def test_later_batches_fault_no_memory_back_in(self):
        # in a fresh interpreter, as the CLI runs, memory that a batch frees
        # is trimmed off the heap and faulted back in by the next batch:
        # hundreds of faults a batch when every batch allocates its arrays
        # anew.  Runs of 4 and 2 batches warm up the guide table, numpy.random
        # and the heap for both measured shapes, which differ by 8 batches
        code = """if True:
            import resource
            from mdrcv import estimator, mcverify, model, oracle, scenarios
            dist = scenarios.{table}
            subs = [model.FactorSubset.of(1, 2), model.FactorSubset.of(1, 3)]
            args = (dist, subs, oracle.subset_oracle(dist, subs)[0], 2000, 5,
                    estimator.DEFAULT_SCHEDULE)
            per_batch = mcverify.RECORDS_PER_BATCH // 2000
            for batches in (4, 2):
                mcverify.run_replications(*args, batches * per_batch, 1)
            for batches in (2, 10):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                mcverify.run_replications(*args, batches * per_batch, 1)
                print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        src = str(Path(mcverify.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        for table in (
            "scenario_a()",  # 54 atoms: the guide-table search and the lookup route
            # 118098 atoms against fewer draws a batch: sorted draws and the digit route
            "generate_scenario('pair-epistasis', 10, 2)",
        ):
            out = subprocess.run([sys.executable, "-c", code.format(table=table)],
                                 capture_output=True, text=True, env=env, check=True,
                                 timeout=120)
            few, many = map(int, out.stdout.split())
            assert (many - few) / 8 < 32, (table, few, many)

    def test_concurrent_runs_match_their_serial_runs(self):
        # more threads than CI's cores, switching often: a buffer shared
        # between runs would mix their batches
        args = (*self.scenario_a_pair(), 2000, 5, DEFAULT_SCHEDULE, 64)
        seeds = (1, 2, 3, 4)
        serial = [run_replications(*args, seed) for seed in seeds]
        start = threading.Barrier(len(seeds), timeout=60)

        def run(seed):
            start.wait()
            return run_replications(*args, seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with concurrent.futures.ThreadPoolExecutor(len(seeds)) as pool:
                futures = [pool.submit(run, seed) for seed in seeds]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(same_replications(t, s) for t, s in zip(threaded, serial))

    def test_sampled_dataset_outlives_later_runs_and_samples(self):
        dist, subs, errors = self.scenario_a_pair()
        data = sample(dist, 2000, [3, 4])
        x, y = data.x.copy(), data.y.copy()
        run_replications(dist, subs, errors, 2000, 5, DEFAULT_SCHEDULE, 40, 9)
        assert np.array_equal(data.x, x) and np.array_equal(data.y, y)
        sample(dist, 2000, [5, 6])
        assert np.array_equal(data.x, x) and np.array_equal(data.y, y)


# (preset, n, q, params, subset, N, K): 2 to 4 cells, 8 to 12 records
EXACT_SHAPES = {
    "3-cells": ("single-factor", 1, 2, dict(p_low=0.2, p_high=0.8), (1,), 10, 2),
    "2-cells-K3": ("single-factor", 1, 1, dict(p_low=0.2, p_high=0.8), (1,), 12, 3),
    "4-cells": ("pair-epistasis", 2, 1, dict(p_low=0.1, p_high=0.9), (1, 2), 8, 2),
    "2-of-4-points": ("pair-epistasis", 2, 1, dict(p_low=0.1, p_high=0.9), (2,), 12, 3),
    "null-K3": ("null", 1, 1, dict(p_pos=0.2), (1,), 9, 3),
}


class TestExactFiniteLaw:
    """The harness against the exact law of its statistics (``exact_law``):
    M = 4000 replications at one pinned seed per shape, every bound at 1%."""

    M = 4000

    @pytest.mark.parametrize("shape", EXACT_SHAPES)
    def test_referee_sums_to_one_and_counts_one_class_folds_exactly(self, shape):
        # P(some fold lacks a label) in closed form: folds are independent
        preset, n, q, params, sub, n_records, n_folds = EXACT_SHAPES[shape]
        dist = generate_scenario(preset, n, q, **params)
        law = exact_law.ExactLaw(dist, FactorSubset(sub), n_records, n_folds,
                                 DEFAULT_SCHEDULE.value(n_records))
        p_pos = float(dist.probs[:, 1].sum())
        sizes = np.bincount(fold_index(n_records, n_folds))
        both = np.prod(1.0 - p_pos**sizes - (1.0 - p_pos) ** sizes)
        assert law.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert law.sd_weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert law.weights[law.one_class].sum() == pytest.approx(1.0 - both, abs=1e-14)

    @pytest.mark.parametrize("seed, shape", enumerate(EXACT_SHAPES, start=1))
    def test_harness_follows_the_exact_law(self, seed, shape):
        preset, n, q, params, sub, n_records, n_folds = EXACT_SHAPES[shape]
        dist = generate_scenario(preset, n, q, **params)
        subset = FactorSubset(sub)
        errors, _ = subset_oracle(dist, [subset])
        reps = run_replications(dist, [subset], errors, n_records, n_folds,
                                DEFAULT_SCHEDULE, self.M, seed)
        law = exact_law.ExactLaw(dist, subset, n_records, n_folds,
                                 DEFAULT_SCHEDULE.value(n_records))
        limit = mcverify.KS_LEVEL_CONSTANT_1PCT / math.sqrt(self.M)
        # every deviation is, bit for bit, one of the law's values, the
        # harness's own expression of it
        z_law = math.sqrt(n_records) * (law.values - errors[0])
        assert exact_law.ks_distance(reps.z[:, 0], z_law, law.weights) < limit
        # the plug-in sd sums its records in another order: atoms within 1e-9
        assert exact_law.ks_distance(reps.sds[:, 0], law.sds, law.sd_weights, 1e-9) < limit
        for got, p in [
            (np.count_nonzero(reps.one_class), law.weights[law.one_class].sum()),
            (np.count_nonzero(reps.sds[:, 0] == 0.0), law.sd_weights[law.sds == 0.0].sum()),
        ]:
            lo, hi = scipy.stats.binom.interval(0.99, self.M, p)
            assert lo <= got <= hi, (got, self.M * p)

class TestCltCheck:
    @pytest.mark.parametrize("oracle_sigma2", [0.0, 1.0])
    def test_empty_column_rejected(self, oracle_sigma2):
        # no mean of an empty slice, no KS limit divided by sqrt(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^need at least one replication$"):
                clt_check(np.empty(0), np.empty(0), np.empty(0, bool), oracle_sigma2,
                          FactorSubset.of(1))

    def test_degenerate_branch(self):
        dist = generate_scenario("single-factor", n=1, q=1, p_low=0.0, p_high=1.0)
        sub = FactorSubset.of(1)
        errors, _ = subset_oracle(dist, [sub])
        res = run_replications(dist, [sub], errors, 500, 5, DEFAULT_SCHEDULE, 50, master_seed=1)
        entry = clt_check(res.z[:, 0], res.sds[:, 0], res.one_class, 0.0, sub)
        assert entry.degenerate and entry.passed
        assert entry.ks_oracle is None

    def test_healthy_scenario_passes(self):
        dist = scenario_a()
        sub = FactorSubset.of(1, 2)
        errors, tables = subset_oracle(dist, [sub])
        res = run_replications(dist, [sub], errors, 2000, 5, DEFAULT_SCHEDULE, 400, master_seed=23)
        sigma2 = asymptotic_variance(dist, tables[0])
        entry = clt_check(res.z[:, 0], res.sds[:, 0], res.one_class, sigma2, sub)
        assert not entry.degenerate
        assert entry.passed, entry

    def test_wrong_oracle_variance_fails_the_ratio(self):
        dist = scenario_a()
        sub = FactorSubset.of(1, 2)
        errors, tables = subset_oracle(dist, [sub])
        res = run_replications(dist, [sub], errors, 2000, 5, DEFAULT_SCHEDULE, 200, master_seed=2)
        sigma2 = 10.0 * asymptotic_variance(dist, tables[0])
        entry = clt_check(res.z[:, 0], res.sds[:, 0], res.one_class, sigma2, sub)
        assert not entry.passed

    def test_zero_plug_in_scale_names_subset_and_count(self):
        sub = FactorSubset.of(2)
        m = np.arange(1, 10)
        z, sds = 0.5 * m, np.where(m % 3, 0.0, 1.0)
        entry = clt_check(z, sds, np.zeros(9, bool), 1.0, sub)
        assert entry.subset == (2,) and entry.zero_scale == 6 and not entry.passed
        # the self-normalized KS reads the three rows with a positive scale
        assert entry.ks_self_norm == ks_statistic(z[2::3] / sds[2::3])
        assert entry.to_dict()["zero_scale"] == 6
        # none left: no self-normalized KS
        entry = clt_check(z, np.zeros(9), np.zeros(9, bool), 1.0, sub)
        assert entry.zero_scale == 9 and entry.ks_self_norm is None and not entry.passed

    @pytest.mark.parametrize("sigma2", [0.0, 1.0])
    def test_one_class_folds_are_counted(self, sigma2):
        sub = FactorSubset.of(1)
        m = np.arange(1, 10)
        z, sds = 0.5 * (m - 5) * (sigma2 > 0), np.where(m % 3, 1.0, 0.0)
        one_class = m > 6  # replications 7, 8 and 9; 9 also has scale 0
        entry = clt_check(z, sds, one_class, sigma2, sub)
        assert entry.one_class_folds == 3 and not entry.passed
        assert entry.to_dict()["one_class_folds"] == 3
        clean = clt_check(z, sds, np.zeros(9, bool), sigma2, sub)
        assert "one_class_folds" not in clean.to_dict()
        # every statistic but the self-normalized KS reads all nine rows
        for field in ("z_mean", "z_var", "ks_oracle", "var_ratio", "zero_scale"):
            assert getattr(entry, field) == getattr(clean, field)
        if sigma2:
            kept = [0, 1, 3, 4]  # in neither count
            assert entry.ks_self_norm == ks_statistic(z[kept] / sds[kept])
        else:
            assert clean.passed  # z is 0: only the one-class folds fail it

    @given(
        z=st.lists(st.floats(-50, 50), min_size=2, max_size=30),
        sd=st.lists(st.floats(1e-3, 20), min_size=30, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_self_normalized_ks_matches_scalar_division(self, z, sd):
        entry = clt_check(
            np.array(z), np.array(sd[: len(z)]), np.zeros(len(z), bool), 1.0, FactorSubset.of(1)
        )
        scalar = ks_statistic([zi / sd[i] for i, zi in enumerate(z)])
        assert entry.ks_self_norm == scalar


    def test_degenerate_fields_at_one_replication(self):
        entry = clt_check(np.zeros(1), np.zeros(1), np.zeros(1, bool), -0.0, FactorSubset.of(1))
        assert entry.degenerate and entry.passed
        assert entry.z_var == 0.0 and math.isnan(entry.ks_limit)
        assert entry.to_dict()["ks_limit"] is None  # JSON null, not the NaN token
        assert repr(entry.oracle_var) == "0.0"
        assert entry.ks_oracle is None and entry.ks_self_norm is None
        assert entry.var_ratio is None

    def test_normal_branch_variance_is_nan_at_one_replication(self):
        entry = clt_check(
            np.array([0.3]), np.array([1.0]), np.zeros(1, bool), 1.0, FactorSubset.of(1)
        )
        assert not entry.degenerate and math.isnan(entry.z_var)
        assert entry.to_dict()["z_var"] is None and entry.to_dict()["var_ratio"] is None

    @pytest.mark.parametrize("sigma2", [0.0, 1.3])
    def test_strided_column_equals_contiguous_copy(self, sigma2):
        # 20000 replications: past numpy's 8192-element iteration buffer
        rng = np.random.default_rng(5)
        z = rng.standard_normal((20000, 2)) * (sigma2 > 0)
        sds = rng.uniform(0.5, 2.0, size=(20000, 2))
        sub = FactorSubset.of(1)
        one_class = np.zeros(20000, bool)
        strided = clt_check(z[:, 0], sds[:, 0], one_class, sigma2, sub)
        contiguous = clt_check(z[:, 0].copy(), sds[:, 0].copy(), one_class, sigma2, sub)
        assert not z[:, 0].flags.c_contiguous
        assert repr(strided) == repr(contiguous)


@pytest.mark.parametrize("check, message", [
    (lambda: clt_check(np.zeros(3), np.ones(3), np.zeros(3, bool), -1.0, FactorSubset.of(1)),
     "oracle variance cannot be negative"),
    (lambda: multivariate_check(np.zeros((3, 1)), np.ones((3, 1, 1)), np.eye(1),
                                [FactorSubset.of(1)]),
     "multivariate check needs at least two subsets"),
], ids=["negative-oracle-variance", "one-subset"])
def test_check_refusal_names_its_fault(check, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        check()


class TestMultivariateCheck:
    def test_no_replications_rejected(self):
        subsets = [FactorSubset.of(1), FactorSubset.of(2)]
        with pytest.raises(ValidationError, match="^need at least one replication$"):
            multivariate_check(np.empty((0, 2)), np.empty((0, 2, 2)), np.eye(2), subsets)

    def test_identical_subsets_whitening_is_flagged(self):
        dist = scenario_a()
        sub = FactorSubset.of(1, 2)
        errors, tables = subset_oracle(dist, [sub, sub])
        res = run_replications(
            dist, [sub, sub], errors, 1000, 5, DEFAULT_SCHEDULE, 100, master_seed=6
        )
        oracle = asymptotic_covariance(dist, tables)
        entry = multivariate_check(res.z, res.covs, oracle, [sub, sub])
        assert entry.whitening_skipped and entry.near_singular == 100
        assert not entry.passed
        corr = np.corrcoef(res.z.T)[0, 1]
        assert corr > 0.99

    def test_conditionally_independent_pair_has_zero_cross_term(
        self, conditionally_independent_pair
    ):
        dist = conditionally_independent_pair
        subs = [FactorSubset.of(1), FactorSubset.of(2)]
        errors, tables = subset_oracle(dist, subs)
        oracle = asymptotic_covariance(dist, tables)
        assert oracle[0, 1] == pytest.approx(0.0, abs=1e-12)
        res = run_replications(dist, subs, errors, 2000, 5, DEFAULT_SCHEDULE, 400, master_seed=11)
        cross = float(np.cov(res.z.T, ddof=1)[0, 1])
        # noise scale of the sample covariance, from the exact oracle moments
        se = math.sqrt(oracle[0, 0] * oracle[1, 1] / 400)
        assert abs(cross) < 4 * se

    def test_scenario_pair_passes(self):
        dist = scenario_a()
        subs = [FactorSubset.of(1, 2), FactorSubset.of(1, 3)]
        errors, tables = subset_oracle(dist, subs)
        res = run_replications(dist, subs, errors, 2000, 5, DEFAULT_SCHEDULE, 400, master_seed=23)
        entry = multivariate_check(res.z, res.covs, asymptotic_covariance(dist, tables), subs)
        assert not entry.whitening_skipped
        assert entry.passed, entry


    def test_near_singular_replications_are_counted_and_left_out(self):
        # replications 2, 5 and 7 have singular plug-in covariances
        rng = np.random.default_rng(4)
        z = rng.standard_normal((9, 2))
        covs = np.array([[[1.0, 0.3], [0.3, 2.0]]] * 9)
        covs[[2, 5, 7]] = [[1.0, 1.0], [1.0, 1.0]]
        subs = [FactorSubset.of(1, 2), FactorSubset.of(1, 3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry = multivariate_check(z, covs, np.eye(2), subs)
        kept = np.delete(np.arange(9), [2, 5, 7])
        healthy = multivariate_check(z[kept], covs[kept], np.eye(2), subs)
        assert entry.near_singular == 3 and not entry.whitening_skipped
        assert entry.whitened_ks == healthy.whitened_ks
        assert not entry.passed and entry.to_dict()["near_singular"] == 3
        assert healthy.near_singular == 0 and "near_singular" not in healthy.to_dict()

    def test_one_replication_has_nan_sample_covariance(self):
        sub = [FactorSubset.of(1, 2), FactorSubset.of(1, 3)]
        z, covs = np.array([[0.4, -0.2]]), np.array([np.eye(2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entry = multivariate_check(z, covs, np.eye(2), sub)
        assert entry.sample_cov.shape == (2, 2) and np.all(np.isnan(entry.sample_cov))
        doc = entry.to_dict()
        assert doc["sample_cov"] == [[None, None], [None, None]]
        assert doc["max_abs_discrepancy"] is None and doc["oracle_cov"] == np.eye(2).tolist()
        assert not entry.passed


class TestVerifyClt:
    def test_end_to_end_report(self):
        dist = scenario_a()
        subs = [FactorSubset.of(1, 2), FactorSubset.of(1, 3)]
        report, reps = verify_clt(
            dist, subs, 800, 4, 50, master_seed=12, scenario="pair-epistasis"
        )
        assert isinstance(report, CltReport)
        assert report.n_replications == 50
        assert reps.z.shape == reps.sds.shape == (50, 2)
        assert reps.covs.shape == (50, 2, 2)
        doc = report.to_dict()
        assert doc["subsets"] == [[1, 2], [1, 3]]
        assert len(doc["univariate"]) == 2
        assert doc["multivariate"] is not None

    def test_one_subset_has_one_by_one_covariances(self):
        dist = scenario_a()
        report, reps = verify_clt(dist, [FactorSubset.of(1, 2)], 400, 4, 7, master_seed=3)
        assert report.multivariate is None
        assert reps.covs.shape == (7, 1, 1)
        # replication m is sampled with derive_seed(3, m)
        want = per_replication_reference(dist, [FactorSubset.of(1, 2)], report.oracle_errors,
                                         400, 4, 7, 3)
        assert same_replications(reps, want)

    def test_histogram_renders(self):
        rng = np.random.default_rng(0)
        text = text_histogram(rng.standard_normal(500))
        assert len(text.splitlines()) == HISTOGRAM_BINS
        assert text_histogram([]) == "(no values)"
