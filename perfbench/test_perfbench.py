"""The benchmark's own test, at reduced sizes.

Run with ``python3 -m pytest perfbench/test_perfbench.py``.  Tracing must
leave every output byte-identical, layer counts must repeat exactly between
runs, the emitted metric names must match ``BENCHMARK.json``, and the
benchmark must refuse to report without the library.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import mdrcv  # noqa: E402
import run  # noqa: E402
from child import timed_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 101  # not a pinned seed: outputs are checked without golden digests

SMALL = {
    "clt-scenario-a": dataclasses.replace(WORKLOADS["clt-scenario-a"], n_replications=30),
    "search-csv": dataclasses.replace(WORKLOADS["search-csv"], n=8, n_records=4000, r=2),
    "clt-dense": dataclasses.replace(WORKLOADS["clt-dense"], n=6, n_replications=4),
}

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", params=sorted(SMALL))
def runs(request, tmp_path_factory):
    workload = SMALL[request.param]
    workdir = tmp_path_factory.mktemp(request.param)
    results = []
    for i, traced in enumerate((False, True, True)):
        spans_path = workdir / f"spans-{i}.jsonl" if traced else None
        result = timed_run(workload, SEED, workdir, spans_path)
        # run.py adds these, measuring set-up from the spawn of the process
        result.update(traced=traced, setup_wall_s=1.0, setup_s=result["speed_scale"])
        results.append(result)
    return workload, results


def test_outputs_are_correct_and_tracing_leaves_them_byte_identical(runs):
    _, results = runs
    assert [r["problems"] for r in results] == [[], [], []]
    assert len({r["digest"] for r in results}) == 1


def test_layer_counts_repeat_exactly(runs):
    _, (_, first, second) = runs
    for key in ("calls", "errors", "codes_under_estimator"):
        assert first["trace"][key] == second["trace"][key]


def test_tracer_restores_the_library(runs):
    assert mdrcv.sample.__module__ == "mdrcv.model"
    assert not hasattr(mdrcv.model.sample, "__wrapped__")
    assert not hasattr(mdrcv.estimator.cylinder_codes, "__wrapped__")
    assert not hasattr(mdrcv.JointDistribution.point_probs, "__wrapped__")


def test_derived_counts(runs):
    workload, results = runs
    metrics = run.layer_metrics(workload, results)
    assert metrics["scenarios.generate_scenario.calls"][0] == 1
    if workload.name == "search-csv":
        assert metrics["estimator.codes_per_eval"][0] == 1.0
        assert metrics["oracle.predictors_per_subset"][0] == 0.0
        assert metrics["dataio.ingest_csv.calls"][0] == 1
        assert metrics["search.rank_subsets.calls"][0] == 1
    else:
        assert metrics["estimator.codes_per_eval"][0] == 3.0
        assert metrics["oracle.predictors_per_subset"][0] == 4.0
        assert metrics["mcverify.verify_clt.calls"][0] == 1
        assert metrics["model.sample.calls"][0] == workload.n_replications


def test_metric_names_match_benchmark_json(runs):
    workload, results = runs
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    emitted = {k: u for k, (_, u) in run.layer_metrics(workload, results).items()}
    assert emitted == declared
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    emitted = {k: u for k, (_, u) in run.end_to_end_metrics(workload, results).items()}
    assert emitted == declared
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def test_refuses_to_report_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clt-scenario-a",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
