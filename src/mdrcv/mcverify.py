"""Monte Carlo verification of the limit behaviour of the cross-validated
error: univariate and multivariate normality of the scaled deviations, and
their self-normalized versions with plug-in scales.

Each replication samples a fresh dataset with a seed derived from the
master seed and the replication index, so results do not depend on
execution order and any single replication can be reproduced in isolation.
A run derives its seeds in one pass of an array SeedSequence replica; numpy draws.
A batch keeps each record as its atom index and keys it into the fold
count tables straight from that, never as levels and a label.
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
    fold_size,
    influence_values,
    plugin_moments,
)
from .linalg import inv_sqrt_symmetric
from .model import (
    FactorSpace,
    FactorSubset,
    JointDistribution,
    _integer,
    cylinder_codes,
    cylinder_count,
    sample,
)
from .oracle import asymptotic_moments, subset_oracle
from .seeding import _seed_state

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
RECORDS_PER_BATCH = 2**16
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


def derive_seed(master_seed: int, replication: int | np.ndarray) -> int | np.ndarray:
    """Counter-mode mix of (master seed, replication index) into a sampler seed,
    numpy's ``SeedSequence(master_seed, spawn_key=(replication,))``'s first
    uint64, bit for bit; a 1-D integer array of indices gives a uint64 array."""
    master_seed = _integer("master_seed", master_seed)
    if listed := np.ndim(replication) > 0:
        reps = np.asarray(replication)
        if reps.ndim != 1 or reps.dtype.kind not in "iu":
            raise ValidationError(f"replication must be a 1-D integer array, got {reps.dtype}")
        low = int(np.min(reps, initial=0))
    else:
        reps = [low := _integer("replication", replication)]
    for name, value in (("master_seed", master_seed), ("replication", low)):
        if value < 0:
            raise ValidationError(f"{name} must be >= 0, got {value}")
    seeds = _seed_state(reps, 1, master_seed)[:, 0]
    return seeds if listed else int(seeds[0])


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


# Set once per pool worker by ``_init_worker``, not pickled into every task:
# the run's context and the worker's own batch buffers.
_WORKER_CONTEXT: tuple | None = None


def _atom_codes(dist: JointDistribution, subset: FactorSubset) -> np.ndarray:
    """The lookup route's table: every atom a's ``code_s(a) = [y = +1] * cells
    + the cylinder code of point a >> 1``, from ``cylinder_codes`` on the
    guide grid."""
    codes = cylinder_codes(dist._guide[4], subset, dist.space.q)
    return (codes[:, None] + [0, cylinder_count(subset.r, dist.space.q)]).reshape(-1)


def _atom_counts(
    space: FactorSpace, subset: FactorSubset, n_folds: int, atoms: np.ndarray,
    n_records: int, table: np.ndarray | None, out: np.ndarray, scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(keys, counts) of B blocks of N records from their atom indices
    a = 2 * rank + [y = +1], as block b's ``dataset_counts`` with its keys
    offset by 2K * cells * b.  Key ``code_s(a) + 2 * cells * (k + K * b)``, k
    the record's fold, goes into ``out``, the offsets added by broadcast over
    a (B, K - 1, [N/K]) view of folds 1..K-1 and over the last.  The lookup
    route reads code_s from the subset's ``table`` (``_atom_codes``); with
    None, the digit route codes the subset's base-(q+1) digits of the rank
    a >> 1 after the label bit by divisions into ``scratch``, no remainder."""
    cells = cylinder_count(subset.r, space.q)
    fold = fold_size(n_records, n_folds)
    if table is not None:  # every atom indexes the table: "clip" only spares take a copy
        np.take(table, atoms, out=out, mode="clip")
    else:
        base = space.q + 1
        np.bitwise_and(atoms, 1, out=out)
        for i in subset.indices:  # digit a // d - (q+1) * (a // ((q+1) * d)), d = 2(q+1)^(n-i)
            out -= np.floor_divide(atoms, 2 * base ** (space.n - i + 1), out=scratch)
            out *= base
            out += np.floor_divide(atoms, 2 * base ** (space.n - i), out=scratch)
    keys = out.reshape(-1, n_records)
    offsets = 2 * cells * (np.arange(n_folds) + n_folds * np.arange(len(keys))[:, None])
    head = keys[:, : (n_folds - 1) * fold].reshape(len(keys), n_folds - 1, fold)
    head += offsets[:, :-1, None]
    keys[:, (n_folds - 1) * fold :] += offsets[:, -1:]
    counts = np.bincount(out, minlength=offsets.size * 2 * cells)
    return keys, counts.reshape(len(keys), n_folds, 2, cells)


def _batch_buffers(context: tuple, blocks: int) -> tuple:
    """The arrays of a batch of ``blocks`` replications, made once per run
    or pool worker; a shorter batch uses their leading entries.  They are
    ``sample``'s buffers (draws, atoms, scratch, mask), the (S, B, N)
    influence buffer, 8S + 17 bytes a record (33 for S = 2), and per subset
    the ``table`` of ``_atom_counts``: one ``_atom_codes`` table per distinct
    subset on the lookup route, taken when the table has no more atoms than
    the batch has draws, ``sample``'s guide-table test.  Roles never alive at
    once share an array: the draws live in the influence buffer, the search
    scratch holds each subset's keys, and its influence row its digits."""
    dist, subsets, _, n_records = context[:4]
    size = blocks * n_records
    influences = np.empty((len(subsets), blocks, n_records))
    records = (influences[0].reshape(-1), np.empty(size, dtype=np.intp), np.empty(size),
               np.empty(size, dtype=np.bool_))
    for s in subsets:
        s.validate_for(dist.space)
    tables = {s: _atom_codes(dist, s) for s in subsets} if dist.probs.size <= size else {}
    return records, [tables.get(s) for s in subsets], influences


def _init_worker(context: tuple, blocks: int) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context, _batch_buffers(context, blocks)


def _replicate_batch(batch: slice, work=None) -> tuple[np.ndarray, ...]:
    """B replications in one pass, returned as ``Replications`` fields: one
    ``sample`` call for the records' atoms; per subset, ``_atom_counts``,
    stacked CV values and influence values into its row of one (S, B, N)
    buffer; one centring of it, read as (B, S, N) (``plugin_moments``).  The
    one-class flags read the fold label totals, the same for every subset.
    ``work`` is the run's context and ``_batch_buffers``, the pool worker's
    by default; every returned array is new.  ``batch`` slices the run's
    seeds, the context's last entry."""
    context, (records, tables, influences) = work or _WORKER_CONTEXT
    dist, subsets, oracle_errors, n_records, n_folds, schedule, run_seeds = context
    seeds = run_seeds[batch]
    atoms = sample(dist, n_records, seeds, out=records)
    eps = schedule.value(n_records)
    keys_out = records[2][: atoms.size].view(np.int64)
    z = np.empty((len(seeds), len(subsets)))
    influences = influences[:, : len(seeds)]
    for i, (s, err, table) in enumerate(zip(subsets, oracle_errors, tables)):
        scratch = influences[i].reshape(-1).view(np.int64)
        keys, counts = _atom_counts(dist.space, s, n_folds, atoms, n_records, table,
                                    keys_out, scratch)
        z[:, i] = math.sqrt(n_records) * (cv_error_stack(counts, eps)[0] - err)
        influence_values(keys, counts, eps, influences[i])
    moments = plugin_moments(influences.transpose(1, 0, 2))
    return z, *moments, (counts.sum(-1) == 0).any(axis=(-2, -1))


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
    """Replications 1..M, each on a fresh dataset; per-index seeds from one
    ``derive_seed`` call, row m-1 of every array is replication m.
    Deviations are centred at ``oracle_errors``, each subset's exact optimal
    error.  Batches hold at most ``RECORDS_PER_BATCH`` records, each scored
    in one pass: one ``sample`` call, one key pass and bincount per subset
    (``_atom_counts``), one influence buffer and one centring, all in arrays
    made once per run (``_batch_buffers``).  ``workers > 1`` spreads them over
    a process pool of at most one process per CPU.  Neither changes any result."""
    if (n_replications := _integer("n_replications", n_replications)) < 1:
        raise ValidationError("need at least one replication")
    if (n_records := _integer("n_records", n_records)) < 1:  # it divides the batch size
        raise ValidationError(f"sample size must be >= 1, got {n_records}")
    if (workers := _integer("workers", workers)) < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    fold_size(n_records, n_folds)  # a fold count outside 2..N is refused before any batch
    subsets = list(subsets)
    if not subsets:
        raise ValidationError("need at least one subset")
    if len(oracle_errors) != len(subsets):
        raise ValidationError("need one oracle error per subset")
    per_batch = min(max(1, RECORDS_PER_BATCH // n_records), n_replications)
    batches = [slice(i, i + per_batch) for i in range(0, n_replications, per_batch)]
    seeds = derive_seed(master_seed, np.arange(1, n_replications + 1))
    context = (dist, subsets, oracle_errors, n_records, n_folds, schedule, seeds)
    pool_size = min(workers, len(batches), os.cpu_count() or 1)
    if pool_size <= 1:
        work = context, _batch_buffers(context, per_batch)
        chunks = [_replicate_batch(b, work) for b in batches]
    else:  # imported here: a serial run loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(pool_size, initializer=_init_worker,
                                 initargs=(context, per_batch)) as pool:
            chunks = list(pool.map(_replicate_batch, batches))
    return Replications(*(np.concatenate(field) for field in zip(*chunks)))


def normal_cdf(z):
    """Standard normal CDF, elementwise: one ``math.erf`` per value."""
    erf = np.frompyfunc(math.erf, 1, 1)(np.divide(z, math.sqrt(2.0)))
    return 0.5 * (1.0 + np.asarray(erf, dtype=np.float64))


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
    cdf = normal_cdf(arr)
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
