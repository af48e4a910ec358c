"""Monte Carlo verification of the limit behaviour of the cross-validated
error: univariate and multivariate normality of the scaled deviations, and
their self-normalized versions with plug-in scales.

Each replication samples a fresh dataset with a seed derived from the
master seed and the replication index, so results do not depend on
execution order and any single replication can be reproduced in isolation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .estimator import (
    DEFAULT_SCHEDULE,
    EpsilonSchedule,
    cv_error_stack,
    dataset_counts,
    influence_stack,
    plugin_moments,
    row_keys,
)
from .linalg import inv_sqrt_symmetric
from .model import FactorSubset, JointDistribution, _integer, sample
from .oracle import asymptotic_moments, subset_oracle

# Asymptotic Kolmogorov-Smirnov critical value at the 1% level is
# 1.63 / sqrt(M); the self-normalized variants get a looser cap because
# the plug-in scale adds noise of its own.
KS_LEVEL_CONSTANT_1PCT = 1.63
SELF_NORM_KS_LIMIT = 0.065
VAR_RATIO_RTOL = 0.10
DEGENERATE_LIMIT = 1e-9
COV_ENTRY_LIMIT_FACTOR = 0.15
HISTOGRAM_BINS = 15
HISTOGRAM_WIDTH = 50
# Records per batch of replications: bounds the batch buffers whatever M is.
RECORDS_PER_BATCH = 2**15
# Degenerate counts a report leaves out while they are 0.
_OMITTED_AT_ZERO = ("zero_scale", "one_class_folds", "near_singular")


def _jsonable(value):
    """``value`` ready for ``json.dumps``: a check is its ``to_dict``, tuples
    and arrays are lists, a non-finite float is None (JSON null, never the
    nonstandard NaN token), and a count in ``_OMITTED_AT_ZERO`` is left out
    of its dict while it is 0."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items() if k not in _OMITTED_AT_ZERO or v}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def derive_seed(master_seed: int, replication: int) -> int:
    """Counter-mode mix of (master seed, replication index) into a sampler
    seed; no state is shared between replications."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(replication,))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Replications:
    """M replications as arrays; row m-1 is replication m, sampled with
    seed ``derive_seed(master_seed, m)``: scaled deviations and plug-in
    scales (M, S), plug-in covariances (M, S, S), one column per subset,
    and (M,) flags of the replications with a fold that lacks a label."""

    z: np.ndarray
    sds: np.ndarray
    covs: np.ndarray
    one_class: np.ndarray


# Set once per pool worker by ``_init_worker``, not pickled into every task.
_WORKER_CONTEXT: tuple | None = None


def _init_worker(context: tuple) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _replicate_batch(replications: range, context=None) -> tuple[np.ndarray, ...]:
    """B replications in one pass, returned as ``Replications`` fields: one
    ``sample`` call and ``row_keys`` array; per subset, keys coded on from
    those rows, one bincount, stacked CV values and influence values into
    one (B, S, N) buffer; one centring of it (``plugin_moments``).  The
    one-class flags read the fold label totals, the same for every subset."""
    context = context or _WORKER_CONTEXT
    dist, subsets, oracle_errors, n_records, n_folds, schedule, master_seed = context
    seeds = [derive_seed(master_seed, m) for m in replications]
    data = sample(dist, n_records, seeds)
    eps = schedule.value(n_records)
    rows = row_keys(data.y.reshape(len(seeds), n_records), n_folds)
    z = np.empty((len(seeds), len(subsets)))
    influences = np.empty((len(seeds), len(subsets), n_records))
    for i, (s, err) in enumerate(zip(subsets, oracle_errors)):
        keys, counts = dataset_counts(data, s, n_folds, rows)
        z[:, i] = math.sqrt(n_records) * (cv_error_stack(counts, eps)[0] - err)
        influences[:, i] = influence_stack(keys, counts, eps)
    return z, *plugin_moments(influences), (counts.sum(-1) == 0).any(axis=(-2, -1))


def run_replications(
    dist: JointDistribution,
    subsets: Sequence[FactorSubset],
    oracle_errors: Sequence[float],
    n_records: int,
    n_folds: int,
    schedule: EpsilonSchedule,
    n_replications: int,
    master_seed: int,
    workers: int = 1,
) -> Replications:
    """Replications 1..M, each on a fresh dataset; deterministic per-index
    seeds, row m-1 of every array is replication m.  Deviations are centred
    at ``oracle_errors``, each subset's exact optimal error.  Batches hold
    at most ``RECORDS_PER_BATCH`` records, each scored in one pass: one
    row key array, one bincount per subset, one (B, S, N) influence buffer
    and one centring.  ``workers > 1`` spreads them over a process pool of
    at most one process per CPU.  Neither changes any result."""
    if (n_replications := _integer("n_replications", n_replications)) < 1:
        raise ValidationError("need at least one replication")
    if (master_seed := _integer("master_seed", master_seed)) < 0:
        raise ValidationError(f"master_seed must be >= 0, got {master_seed}")
    if (n_records := _integer("n_records", n_records)) < 1:  # it divides the batch size
        raise ValidationError(f"sample size must be >= 1, got {n_records}")
    if (workers := _integer("workers", workers)) < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    subsets = list(subsets)
    if not subsets:
        raise ValidationError("need at least one subset")
    if len(oracle_errors) != len(subsets):
        raise ValidationError("need one oracle error per subset")
    per_batch = max(1, RECORDS_PER_BATCH // n_records)
    reps = range(1, n_replications + 1)
    batches = [reps[i : i + per_batch] for i in range(0, n_replications, per_batch)]
    context = (dist, subsets, oracle_errors, n_records, n_folds, schedule, master_seed)
    pool_size = min(workers, len(batches), os.cpu_count() or 1)
    if pool_size <= 1:
        chunks = [_replicate_batch(b, context) for b in batches]
    else:  # imported here: a serial run loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(pool_size, initializer=_init_worker, initargs=(context,)) as pool:
            chunks = list(pool.map(_replicate_batch, batches))
    return Replications(*(np.concatenate(field) for field in zip(*chunks)))


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def ks_statistic(samples: Sequence[float], sd: float = 1.0) -> float:
    """Sup distance between the empirical CDF of samples / sd and the
    standard normal CDF."""
    if sd <= 0:
        raise ValidationError(f"sd must be positive, got {sd}")
    arr = np.sort(np.asarray(samples, dtype=np.float64) / sd)
    if arr.size == 0:
        raise ValidationError("ks_statistic needs a nonempty sample")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("ks_statistic needs finite samples")
    cdf = np.array([normal_cdf(v) for v in arr])
    steps = np.arange(arr.size + 1) / arr.size  # the empirical CDF's levels
    return float(max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max()))


@dataclass(frozen=True)
class UnivariateCheck:
    """Normality checks for one subset's scaled deviations."""

    subset: tuple[int, ...]
    n_replications: int
    z_mean: float
    z_var: float
    oracle_var: float
    degenerate: bool
    ks_oracle: float | None
    ks_self_norm: float | None
    var_ratio: float | None
    zero_scale: int
    one_class_folds: int
    ks_limit: float
    passed: bool

    def to_dict(self) -> dict:
        return _jsonable({**vars(self), "self_norm_limit": SELF_NORM_KS_LIMIT,
                          "var_rtol": VAR_RATIO_RTOL})


def clt_check(
    z: np.ndarray,
    sds: np.ndarray,
    one_class: np.ndarray,
    oracle_sigma2: float,
    subset: FactorSubset,
) -> UnivariateCheck:
    """Compare one subset's scaled deviations ``z`` and plug-in scales
    ``sds`` (one entry per replication) against their limit law; ``one_class``
    flags the replications with a fold that lacks a label.

    With a positive oracle variance: KS of z/sigma against the standard
    normal, KS of the per-replication self-normalized values, and the
    empirical-to-oracle variance ratio.  A zero oracle variance routes to the
    degenerate branch, which reads no scale and needs every deviation to vanish.
    Replications with plug-in scale 0 (``zero_scale``) or, in either branch, a
    one-class fold (``one_class_folds``) are counted and fail the check; the
    self-normalized KS reads the others (None if none), the rest reads all.
    """
    m = len(z)
    if m < 1:
        raise ValidationError("need at least one replication")
    if oracle_sigma2 < 0:
        raise ValidationError("oracle variance cannot be negative")
    degenerate = oracle_sigma2 == 0.0
    z_var = float(z.var(ddof=1)) if m > 1 else 0.0 if degenerate else float("nan")
    ks_oracle, ks_self, ratio, ks_limit, zero_scale = None, None, None, float("nan"), 0
    one_class_folds = int(np.count_nonzero(one_class))
    if degenerate:
        passed = not one_class_folds and bool(np.max(np.abs(z)) < DEGENERATE_LIMIT)
    else:
        ks_limit = KS_LEVEL_CONSTANT_1PCT / math.sqrt(m)
        ks_oracle = ks_statistic(z, math.sqrt(oracle_sigma2))
        scaled = sds != 0.0
        zero_scale = m - int(np.count_nonzero(scaled))
        kept = scaled & ~one_class
        if kept.any():
            ks_self = ks_statistic(z[kept] / sds[kept])
        ratio = z_var / oracle_sigma2
        passed = (not zero_scale and not one_class_folds and ks_oracle < ks_limit
                  and ks_self < SELF_NORM_KS_LIMIT and abs(ratio - 1.0) <= VAR_RATIO_RTOL)
    return UnivariateCheck(
        subset=subset.indices,
        n_replications=m,
        z_mean=float(z.mean()),
        z_var=z_var,
        oracle_var=0.0 if degenerate else oracle_sigma2,
        degenerate=degenerate,
        ks_oracle=ks_oracle,
        ks_self_norm=ks_self,
        var_ratio=ratio,
        zero_scale=zero_scale,
        one_class_folds=one_class_folds,
        ks_limit=ks_limit,
        passed=passed,
    )


@dataclass(frozen=True)
class MultivariateCheck:
    """Joint checks across subsets: covariance match and whitened margins."""

    subsets: tuple[tuple[int, ...], ...]
    n_replications: int
    sample_cov: np.ndarray
    oracle_cov: np.ndarray
    max_abs_discrepancy: float
    frobenius_discrepancy: float
    entry_limit: float
    whitened_ks: tuple[float, ...] | None
    whitening_skipped: bool
    near_singular: int
    passed: bool

    def to_dict(self) -> dict:
        return _jsonable({**vars(self), "ks_limit": SELF_NORM_KS_LIMIT})


def multivariate_check(
    z: np.ndarray,
    covs: np.ndarray,
    oracle_cov: np.ndarray,
    subsets: Sequence[FactorSubset],
) -> MultivariateCheck:
    """Compare the joint law of the (M, S) deviations ``z`` against its
    limit, with ``covs`` the (M, S, S) plug-in covariances.

    (a) every entry of the sample covariance must match the oracle matrix
    within COV_ENTRY_LIMIT_FACTOR times the largest oracle variance;
    (b) each replication vector is whitened by its own plug-in covariance
    and every coordinate is KS-tested against the standard normal.  The
    replications whose plug-in matrix is near-singular whiten to NaN; they
    are counted in ``near_singular``, fail the check, and the KS skips them.
    """
    oracle_cov = np.asarray(oracle_cov, dtype=np.float64)
    s = oracle_cov.shape[0]
    if s < 2:
        raise ValidationError("multivariate check needs at least two subsets")
    z = np.ascontiguousarray(z, dtype=np.float64)
    m = z.shape[0]
    if m < 1:
        raise ValidationError("need at least one replication")
    # one replication has no sample covariance; np.cov would warn and divide by 0
    sample_cov = np.cov(z.T, ddof=1) if m > 1 else np.full((s, s), np.nan)
    disc = np.abs(sample_cov - oracle_cov)
    entry_limit = COV_ENTRY_LIMIT_FACTOR * float(oracle_cov.diagonal().max())

    whitened = (inv_sqrt_symmetric(covs) @ z[..., None])[..., 0]
    kept = whitened[~np.isnan(whitened).any(axis=-1)]
    skipped = len(kept) == 0
    whitened_ks = None if skipped else tuple(ks_statistic(w) for w in kept.T)

    entries_ok = bool(disc.max() <= entry_limit)
    whitening_ok = len(kept) == m and all(k < SELF_NORM_KS_LIMIT for k in whitened_ks)
    return MultivariateCheck(
        subsets=tuple(sub.indices for sub in subsets),
        n_replications=m,
        sample_cov=sample_cov,
        oracle_cov=oracle_cov,
        max_abs_discrepancy=float(disc.max()),
        frobenius_discrepancy=float(np.sqrt((disc**2).sum())),
        entry_limit=entry_limit,
        whitened_ks=whitened_ks,
        whitening_skipped=skipped,
        near_singular=m - len(kept),
        passed=entries_ok and whitening_ok,
    )


@dataclass(frozen=True)
class CltReport:
    """Full Monte Carlo summary for one scenario."""

    scenario: str
    n_records: int
    n_folds: int
    n_replications: int
    master_seed: int
    eps_c0: float
    eps_beta: float
    subsets: tuple[tuple[int, ...], ...]
    oracle_errors: tuple[float, ...]
    univariate: tuple[UnivariateCheck, ...]
    multivariate: MultivariateCheck | None = None

    def to_dict(self) -> dict:
        return _jsonable(vars(self))

    @property
    def passed(self) -> bool:
        joint_ok = self.multivariate is None or self.multivariate.passed
        return all(u.passed for u in self.univariate) and joint_ok


def verify_clt(
    dist: JointDistribution,
    subsets: Sequence[FactorSubset],
    n_records: int,
    n_folds: int,
    n_replications: int,
    master_seed: int,
    schedule: EpsilonSchedule = DEFAULT_SCHEDULE,
    scenario: str = "",
    workers: int = 1,
) -> tuple[CltReport, Replications]:
    """Run the full pipeline: the exact oracle (one optimal predictor and
    influence table per subset), replications, per-subset univariate
    checks, and the joint check when more than one subset is given."""
    subsets = list(subsets)
    oracle_errors, tables = subset_oracle(dist, subsets)
    oracle_vars, oracle_cov = asymptotic_moments(dist, tables)
    del tables  # a predictor byte per point per 8 subsets, not needed by the replications
    reps = run_replications(
        dist, subsets, oracle_errors, n_records, n_folds, schedule,
        n_replications, master_seed, workers=workers,
    )
    univariate = tuple(
        clt_check(reps.z[:, i], reps.sds[:, i], reps.one_class, var, s)
        for i, (s, var) in enumerate(zip(subsets, oracle_vars))
    )
    joint = len(subsets) > 1
    report = CltReport(
        scenario=scenario,
        n_records=_integer("n_records", n_records),
        n_folds=_integer("n_folds", n_folds),
        n_replications=_integer("n_replications", n_replications),
        master_seed=_integer("master_seed", master_seed),
        eps_c0=schedule.c0,
        eps_beta=schedule.beta,
        subsets=tuple(s.indices for s in subsets),
        oracle_errors=oracle_errors,
        univariate=univariate,
        multivariate=multivariate_check(reps.z, reps.covs, oracle_cov, subsets) if joint else None,
    )
    return report, reps


def text_histogram(values: Sequence[float]) -> str:
    """Plain-text histogram for eyeballing a distribution of statistics."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return "(no values)"
    counts, edges = np.histogram(arr, bins=HISTOGRAM_BINS)
    peak = max(int(counts.max()), 1)
    lines = []
    for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(HISTOGRAM_WIDTH * c / peak))
        lines.append(f"[{lo:+8.3f}, {hi:+8.3f}) {c:5d} {bar}")
    return "\n".join(lines)
