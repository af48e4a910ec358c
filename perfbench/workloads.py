"""The benchmark's workloads: inputs built from a seed, the timed call, and
the check of its output.

Every workload is a closed loop with one caller: one process, ``workers=1``.
The timed call ends with the serialization ``mdrcv clt-verify`` and
``mdrcv search`` use for their reports, and its output is that text.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

# Library functions are called through their modules, so that the tracer's
# rebinding of module attributes also covers the benchmark's own calls.
from mdrcv import dataio, mcverify, model, scenarios, search

GOLDEN_FILE = Path(__file__).with_name("golden.json")

# Seed-independent report fields are compared to this many decimals.
ORACLE_DECIMALS = 6


def serialize(report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_digests() -> dict[str, str]:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class CltWorkload:
    """``verify_clt`` on one distribution; the workload seed is the master
    seed of the replications."""

    name: str
    why: str
    preset: str | None  # None: ``scenario_a()``
    n: int
    q: int
    n_records: int
    n_folds: int
    n_replications: int
    oracle_errors: tuple[float, ...]
    oracle_vars: tuple[float, ...]
    require_passed: bool
    subsets: tuple[tuple[int, ...], ...] = ((1, 2), (1, 3))
    pinned_seed: int = 23

    @property
    def work_units(self) -> int:
        """Replications per timed call, the throughput numerator."""
        return self.n_replications

    @property
    def evaluations(self) -> int:
        """(dataset, subset) pairs the estimator scores per timed call."""
        return self.n_replications * len(self.subsets)

    @property
    def distinct_subsets(self) -> int:
        return len(self.subsets)

    @property
    def records_sampled(self) -> int:
        return self.n_replications * self.n_records

    @property
    def table_atoms(self) -> int:
        return 2 * (self.q + 1) ** self.n

    def setup(self, seed: int, workdir: Path):
        del seed, workdir
        if self.preset is None:
            dist = scenarios.scenario_a()
        else:
            dist = scenarios.generate_scenario(self.preset, self.n, self.q)
        return dist, [model.FactorSubset(s) for s in self.subsets]

    def call(self, inputs, seed: int):
        dist, subsets = inputs
        report, _ = mcverify.verify_clt(
            dist, subsets, self.n_records, self.n_folds, self.n_replications,
            seed, scenario=self.name, workers=1,
        )
        return report

    def check(self, report, text: str, seed: int, golden: str | None) -> list[str]:
        """Problems with one output; empty when it is correct."""
        problems = []
        if seed == self.pinned_seed:
            if digest(text) != golden:
                problems.append(f"report digest {digest(text)} != golden {golden}")
            if self.require_passed and not report.passed:
                problems.append("report.passed is false at the pinned seed")
        got_errors = tuple(round(e, ORACLE_DECIMALS) for e in report.oracle_errors)
        if got_errors != self.oracle_errors:
            problems.append(f"oracle errors {got_errors} != {self.oracle_errors}")
        got_vars = tuple(round(u.oracle_var, ORACLE_DECIMALS) for u in report.univariate)
        if got_vars != self.oracle_vars:
            problems.append(f"oracle variances {got_vars} != {self.oracle_vars}")
        if report.master_seed != seed or report.n_replications != self.n_replications:
            problems.append("report does not echo the seed and replication count")
        if any(u.n_replications != self.n_replications for u in report.univariate):
            problems.append("a univariate check saw the wrong replication count")
        return problems


@dataclass(frozen=True)
class SearchWorkload:
    """``rank_subsets`` on a CSV dataset; the workload seed is the sampling
    seed of the dataset written in setup."""

    name: str
    why: str
    n: int
    q: int
    n_records: int
    r: int
    n_folds: int
    must_select: tuple[int, ...] = (1, 2)
    pinned_seed: int = 7

    @property
    def work_units(self) -> int:
        """Subsets scored per timed call, the throughput numerator."""
        return math.comb(self.n, self.r)

    @property
    def evaluations(self) -> int:
        return self.work_units

    @property
    def distinct_subsets(self) -> int:
        return self.work_units

    @property
    def records_sampled(self) -> int:
        return self.n_records

    @property
    def table_atoms(self) -> int:
        return 2 * (self.q + 1) ** self.n

    def setup(self, seed: int, workdir: Path) -> Path:
        dist = scenarios.generate_scenario("pair-epistasis", self.n, self.q)
        path = workdir / f"{self.name}-{seed}.csv"
        dataio.write_dataset_csv(model.sample(dist, self.n_records, seed), path)
        return path

    def call(self, inputs: Path, seed: int):
        del seed
        return search.rank_subsets(dataio.ingest_csv(inputs), self.r, self.n_folds)

    def check(self, report, text: str, seed: int, golden: str | None) -> list[str]:
        problems = []
        if seed == self.pinned_seed and digest(text) != golden:
            problems.append(f"report digest {digest(text)} != golden {golden}")
        if not set(self.must_select) <= set(report.selected.indices):
            problems.append(f"selected {report.selected.indices} misses {self.must_select}")
        values = [v for _, v in report.entries]
        if len(values) != self.work_units:
            problems.append(f"ranked {len(values)} subsets, expected {self.work_units}")
        if not all(math.isfinite(v) for v in values) or values != sorted(values):
            problems.append("ranking is not finite and ascending")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        CltWorkload(
            name="clt-scenario-a",
            why=(
                "acceptance run on a 27-point table: estimator and sampling "
                "call overhead dominate, the oracle does almost nothing"
            ),
            preset=None, n=3, q=2,
            n_records=2000, n_folds=5, n_replications=1000,
            oracle_errors=(0.241758, 1.120879),
            oracle_vars=(1.13852, 3.60146),
            require_passed=True,
        ),
        SearchWorkload(
            name="search-csv",
            why=(
                "CSV ingest then 4845 subset evaluations on one 20000-record "
                "dataset: the per-subset estimator kernel, no sampling, no oracle"
            ),
            n=20, q=1, n_records=20000, r=4, n_folds=5,
        ),
        CltWorkload(
            name="clt-dense",
            why=(
                "4.78M-point table, 20 replications: exact oracles and "
                "table-bound sampling dominate, the estimator is about 1%"
            ),
            preset="pair-epistasis", n=14, q=2,
            n_records=2000, n_folds=5, n_replications=20,
            oracle_errors=(0.888889, 1.444444),
            oracle_vars=(2.880658, 3.652263),
            require_passed=False,
        ),
    )
}
