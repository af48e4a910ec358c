"""Acceptance gate: every release criterion, at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all),
and asserts both the statistical bound and the runtime budget.
"""

import itertools
import math
import time

import numpy as np
import pytest

from mdrcv.estimator import (
    DEFAULT_SCHEDULE,
    EpsilonSchedule,
    cv_prediction_error,
    fold_index,
)
from mdrcv.mcverify import (
    clt_check,
    ks_statistic,
    multivariate_check,
    run_replications,
)
from mdrcv.model import (
    Dataset,
    FactorSpace,
    FactorSubset,
    JointDistribution,
    PenaltyFunction,
    sample,
)
from mdrcv.oracle import (
    asymptotic_covariance,
    asymptotic_variance,
    balanced_penalty,
    high_risk_set,
    optimal_predictor,
    prediction_error,
    significance,
    subset_oracle,
)
from mdrcv.scenarios import generate_scenario, scenario_a
from mdrcv.search import enumerate_subsets, rank_subsets

from test_estimator import transcribed_cv_error


def report(number, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {number}: {status} - {detail} [{elapsed:.1f}s / budget {budget:.0f}s]"
    )
    assert passed, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number}: took {elapsed:.1f}s, budget {budget}s"


def weighted_table(n, q, weights_neg, weights_pos):
    total = sum(weights_neg) + sum(weights_pos)
    space = FactorSpace(n, q)
    probs = np.zeros((space.num_points, 2))
    probs[:, 0] = np.asarray(weights_neg, dtype=np.float64) / total
    probs[:, 1] = np.asarray(weights_pos, dtype=np.float64) / total
    return JointDistribution(space, probs)


@pytest.fixture(scope="module")
def scenario_a_run():
    """One shared M=1000 replication run at N=2000 over both subsets."""
    dist = scenario_a()
    subsets = [FactorSubset.of(1, 2), FactorSubset.of(1, 3)]
    start = time.perf_counter()
    reps = run_replications(
        dist, subsets, subset_oracle(dist, subsets)[0], 2000, 5,
        DEFAULT_SCHEDULE, 1000, master_seed=23,
    )
    elapsed = time.perf_counter() - start
    return dist, subsets, reps, elapsed


def test_criterion_1_exhaustive_optimality():
    """On two-factor binary tables, including threshold ties and partial
    support, the closed-form predictor attains the exact minimum error over
    all 16 predictor tables."""
    start = time.perf_counter()
    unit = PenaltyFunction(1.0, 1.0)
    fixtures = [
        (weighted_table(2, 1, (3, 1, 3, 1), (1, 3, 1, 3)), unit),
        # conditionals 0.5 at two cells tie the unit threshold exactly
        (weighted_table(2, 1, (2, 1, 3, 2), (2, 3, 1, 2)), unit),
        # (0,0) carries no mass at all
        (weighted_table(2, 1, (0, 2, 4, 2), (0, 6, 2, 2)), unit),
        (weighted_table(2, 1, (6, 2, 1, 1), (1, 1, 2, 2)), None),  # balanced
        # deterministic labels
        (weighted_table(2, 1, (4, 0, 0, 4), (0, 4, 4, 0)), unit),
        # labels independent of the factors: every conditional ties the
        # balanced threshold
        (weighted_table(2, 1, (2, 2, 2, 2), (3, 3, 3, 3)), None),
    ]
    checked = 0
    for dist, psi in fixtures:
        if psi is None:
            psi = balanced_penalty(dist)
        f_star = optimal_predictor(dist, psi)
        err_star = prediction_error(dist, psi, f_star)
        best = min(
            prediction_error(dist, psi, np.array(plus))
            for plus in itertools.product((False, True), repeat=dist.space.num_points)
        )
        assert err_star == best, f"fixture {checked}: {err_star} != {best}"
        checked += 1
    elapsed = time.perf_counter() - start
    report(1, checked >= 5, f"{checked} fixtures, exact minimum attained", elapsed, 1.0)


def test_criterion_2_subset_dominance():
    """On the three-factor interaction fixture, the interacting pair's
    predictor dominates every other pair, strictly for the non-significant
    ones."""
    start = time.perf_counter()
    dist = generate_scenario("pair-epistasis", n=3, q=1)
    psi = balanced_penalty(dist)
    errs = {
        s: prediction_error(dist, psi, optimal_predictor(dist, psi, FactorSubset(s)))
        for s in map(tuple, enumerate_subsets(3, 2).tolist())
    }
    ok = all(errs[(1, 2)] <= v for v in errs.values())
    gaps = []
    for s in map(tuple, enumerate_subsets(3, 2).tolist()):
        if not significance(dist, [FactorSubset(s)])[0]:
            gaps.append(errs[s] - errs[(1, 2)])
    ok = ok and all(g >= 0.01 for g in gaps)
    elapsed = time.perf_counter() - start
    report(
        2, ok,
        f"pair error {errs[(1, 2)]:.4f}, smallest strict gap {min(gaps):.4f} >= 0.01",
        elapsed, 1.0,
    )


def test_criterion_3_estimator_consistency():
    """Median absolute deviation of the cross-validated error from the
    exact error shrinks monotonically over the sample-size grid and ends
    below 0.01 at N = 100000 (20 seeds per size)."""
    start = time.perf_counter()
    dist = scenario_a()
    sub = FactorSubset.of(1, 2)
    psi = balanced_penalty(dist)
    target = prediction_error(dist, psi, optimal_predictor(dist, psi, sub))
    grid = (500, 2000, 8000, 32000, 100000)
    medians = []
    for n in grid:
        devs = [
            abs(cv_prediction_error(sample(dist, n, seed=4000012 + 17 * n + s), 5, sub) - target)
            for s in range(20)
        ]
        medians.append(float(np.median(devs)))
    monotone = all(a > b for a, b in zip(medians, medians[1:]))
    ok = monotone and medians[-1] < 0.01
    elapsed = time.perf_counter() - start
    report(
        3, ok,
        "medians " + " > ".join(f"{v:.4f}" for v in medians) + " (final < 0.01)",
        elapsed, 120.0,
    )


def test_criterion_4_limit_normality_known_scale(scenario_a_run):
    """Scaled deviations at N=2000 over 1000 replications are
    KS-indistinguishable from a centered normal with the exact variance,
    and their empirical variance matches it within 10 percent."""
    dist, subsets, reps, run_elapsed = scenario_a_run
    start = time.perf_counter()
    sigma2 = asymptotic_variance(dist, subset_oracle(dist, subsets)[1][0])
    z = reps.z[:, 0]
    ks = ks_statistic(z, math.sqrt(sigma2))
    ratio = float(z.var(ddof=1)) / sigma2
    ok = ks < 0.0516 and 0.9 <= ratio <= 1.1
    elapsed = run_elapsed + (time.perf_counter() - start)
    report(
        4, ok,
        f"KS(z/sigma) = {ks:.4f} < 0.0516, variance ratio {ratio:.4f} in [0.9, 1.1]",
        elapsed, 300.0,
    )


def test_criterion_5_limit_normality_estimated_scale(scenario_a_run):
    """Self-normalized deviations (per-replication plug-in scale) pass the
    looser KS bound 0.065."""
    dist, subsets, reps, run_elapsed = scenario_a_run
    start = time.perf_counter()
    self_norm = reps.z[:, 0] / reps.sds[:, 0]
    ks = ks_statistic(self_norm)
    ok = ks < 0.065
    elapsed = run_elapsed + (time.perf_counter() - start)
    report(5, ok, f"KS(z/estimated sd) = {ks:.4f} < 0.065", elapsed, 300.0)


def test_criterion_6_joint_limit_law(scenario_a_run):
    """The deviation vector over the two subsets matches the exact
    covariance matrix entrywise within 0.15 of the largest variance, and
    per-replication whitening makes each coordinate standard normal."""
    dist, subsets, reps, run_elapsed = scenario_a_run
    start = time.perf_counter()
    oracle = asymptotic_covariance(dist, subset_oracle(dist, subsets)[1])
    entry = multivariate_check(reps.z, reps.covs, oracle, subsets)
    ok = (
        entry.max_abs_discrepancy <= entry.entry_limit
        and not entry.whitening_skipped
        and all(k < 0.065 for k in entry.whitened_ks)
    )
    elapsed = run_elapsed + (time.perf_counter() - start)
    report(
        6, ok,
        f"max |sample - exact| = {entry.max_abs_discrepancy:.4f} <= "
        f"{entry.entry_limit:.4f}, whitened KS = "
        + ", ".join(f"{k:.4f}" for k in entry.whitened_ks)
        + " all < 0.065",
        elapsed, 600.0,
    )


def test_criterion_7_degenerate_scale():
    """With labels a deterministic function of the factors, every scaled
    deviation is numerically zero."""
    start = time.perf_counter()
    dist = generate_scenario("single-factor", n=1, q=1, p_low=0.0, p_high=1.0)
    sub = FactorSubset.of(1)
    errors, tables = subset_oracle(dist, [sub])
    sigma2 = asymptotic_variance(dist, tables[0])
    reps = run_replications(
        dist, [sub], errors, 2000, 5, DEFAULT_SCHEDULE, 200, master_seed=41
    )
    worst = float(np.max(np.abs(reps.z[:, 0])))
    entry = clt_check(reps.z[:, 0], reps.sds[:, 0], reps.one_class, sigma2, sub)
    ok = sigma2 == 0.0 and worst < 1e-9 and entry.degenerate and entry.passed
    elapsed = time.perf_counter() - start
    report(7, ok, f"exact variance 0, max |z| = {worst:.2e} < 1e-9", elapsed, 60.0)


def test_criterion_8_subset_recovery():
    """Exhaustive pair search on fresh samples (N=4000, K=5) recovers the
    interacting pair in at least 95 percent of 200 seeded replications."""
    start = time.perf_counter()
    dist = scenario_a()
    hits = 0
    for s in range(200):
        ds = sample(dist, 4000, seed=900_000 + s)
        if rank_subsets(ds, 2, 5).selected.indices == (1, 2):
            hits += 1
    ok = hits >= 190
    elapsed = time.perf_counter() - start
    report(8, ok, f"pair recovered in {hits}/200 replications (>= 190)", elapsed, 300.0)


def test_criterion_9_estimator_transcription_equivalence():
    """The vectorized estimator equals an independent straight-line
    transcription bit for bit on the fixed 4-record fixture, and the fold
    partition matches its closed-form sizes for every (N, K) up to 200/10."""
    start = time.perf_counter()
    ds = Dataset(FactorSpace(1, 1), [[0], [1], [0], [1]], [1, -1, -1, 1])
    sched = EpsilonSchedule(0.25, 0.25)
    sub = FactorSubset.of(1)
    est = cv_prediction_error(ds, 2, sub, sched)
    expected = transcribed_cv_error(ds, 2, sub, sched.value(4))
    bitwise = est == expected

    folds_ok = True
    for n in range(2, 201):
        for k in range(2, min(10, n) + 1):
            folds = fold_index(n, k)
            base = n // k
            folds_ok &= np.bincount(folds).tolist() == [base] * (k - 1) + [n - (k - 1) * base]
            folds_ok &= bool(np.all(np.diff(folds) >= 0))  # contiguous, in record order
    elapsed = time.perf_counter() - start
    report(
        9, bitwise and folds_ok,
        f"estimate {est!r} == transcription {expected!r}; "
        "fold sizes exact for all N <= 200, K <= 10",
        elapsed, 60.0,
    )


def test_criterion_10_penalty_scaling_invariance():
    """Scaling both penalty weights by c in {0.5, 2, 10} leaves the
    threshold, the high-risk set, and the optimal predictor identical, and
    multiplies the error by exactly c (dyadic fixtures, exact floats)."""
    start = time.perf_counter()
    # dyadic tables: every probability is a multiple of 1/16
    plain = weighted_table(2, 1, (6, 2, 2, 6), (2, 6, 6, 2))
    tied = weighted_table(1, 1, (6, 2), (2, 6))  # conditional 0.75 at x=1
    cases = [
        (plain, PenaltyFunction(1.0, 1.0)),
        (plain, PenaltyFunction(3.0, 1.0)),
        (tied, PenaltyFunction(3.0, 1.0)),  # threshold 0.75 ties exactly
    ]
    ok = True
    for dist, psi in cases:
        f = optimal_predictor(dist, psi)
        base_err = prediction_error(dist, psi, f)
        for c in (0.5, 2.0, 10.0):
            scaled = PenaltyFunction(c * psi.psi_neg, c * psi.psi_pos)
            ok &= scaled.threshold == psi.threshold
            ok &= np.array_equal(high_risk_set(dist, scaled), high_risk_set(dist, psi))
            ok &= np.array_equal(optimal_predictor(dist, scaled), f)
            ok &= prediction_error(dist, scaled, f) == c * base_err
    elapsed = time.perf_counter() - start
    report(
        10, ok,
        "threshold, high-risk set, predictor unchanged; error scales exactly",
        elapsed, 60.0,
    )
