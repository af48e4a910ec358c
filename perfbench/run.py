"""Benchmark of the mdrcv library on three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload clt-scenario-a --seed 23 --seconds 40 --trace 0

Each timed run is a fresh interpreter (``child.py``) that builds its inputs
from the seed, makes one timed call into the library from ``src/`` and
checks the output.  Runs go one after another for about ``--seconds``.
With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` untraced and traced runs alternate and it carries the
per-layer metrics.  A line before it records the provenance of the result,
and the same with every sample goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SPAN_NAMES, TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_UNTRACED_RUNS = 3
MIN_TRACED_PAIRS = 2
# The whole benchmark must end within 180 s; no run starts past this.
LOOP_LIMIT_S = 150.0
# One caller and one BLAS thread: the benchmark measures a single process.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(name: str, seed: int, traced: bool, timeout: float) -> dict:
    """One timed run in a fresh interpreter; returns its result, or a record
    of why it produced none."""
    t_spawn = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), name, str(seed),
             "1" if traced else "0", str(OUT_DIR)],
            cwd=ROOT, env={**os.environ, **CHILD_ENV},
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError("no result")
        result = json.loads(lines[-1])
    except ValueError:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
        return {"traced": traced, "problems": [f"exit {proc.returncode}: {tail[0]}"]}
    result["traced"] = traced
    result["setup_wall_s"] = result["t_start"] - t_spawn
    result["setup_s"] = result["setup_wall_s"] * result["speed_scale"]
    return result


def run_loop(name: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Closed loop, one run at a time, until the next round would pass
    ``seconds`` (or the hard limit) and the minimum rounds are done."""
    kinds = (False, True) if trace else (False,)
    min_rounds = MIN_TRACED_PAIRS if trace else MIN_UNTRACED_RUNS
    start = monotonic()
    runs: list[dict] = []
    rounds = 0
    while True:
        for traced in kinds:
            timeout = max(1.0, LOOP_LIMIT_S + 20.0 - (monotonic() - start))
            runs.append(launch(name, seed, traced, timeout))
        rounds += 1
        elapsed = monotonic() - start
        per_round = elapsed / rounds
        if elapsed + per_round > LOOP_LIMIT_S:
            break
        if rounds >= min_rounds and elapsed + per_round > seconds:
            break
    return runs


def end_to_end_metrics(workload, runs: list[dict]) -> dict:
    """Medians over the run's processes; ``setup_s`` and ``run_s`` are
    host-calibrated times (see ``child.py``)."""
    done = [r for r in runs if "run_s" in r]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in done), "s"),
        "run_s": (statistics.median(r["run_s"] for r in done), "s"),
        "throughput": (statistics.median(workload.work_units / r["run_s"] for r in done), "1/s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in done), "MiB"),
    }


def time_summary(runs: list[dict]) -> dict:
    """Sample count and median and fastest calibrated and raw times of each
    kind of run."""
    summary = {}
    for traced in (False, True):
        done = [r for r in runs if "run_s" in r and r["traced"] == traced]
        if done:
            summary["traced" if traced else "untraced"] = {"n": len(done)} | {
                f"{key}_{stat.__name__}": stat(r[key] for r in done)
                for key in ("setup_s", "setup_wall_s", "run_s", "wall_s", "calibration_s")
                for stat in (statistics.median, min)
            }
    return summary


def layer_metrics(workload, runs: list[dict]) -> dict:
    traced = [r["trace"] for r in runs if r.get("trace")]
    first = traced[0]
    times = time_summary(runs)

    def median_of(key, name):
        return statistics.median(t[key][name] for t in traced)

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (first["calls"][name], "count")
        metrics[f"{name}.self_s"] = (median_of("self_s", name), "s")
        metrics[f"{name}.errors"] = (first["errors"][name], "count")
    for module in TARGETS:
        metrics[f"{module}.self_s"] = (median_of("module_self_s", module), "s")
    sample_s = median_of("self_s", "model.sample")
    metrics.update({
        "estimator.codes_per_eval": (
            first["codes_under_estimator"] / workload.evaluations, "ratio"),
        "oracle.predictors_per_subset": (
            first["calls"]["oracle.optimal_predictor"] / workload.distinct_subsets, "ratio"),
        "model.sample.table_atoms": (workload.table_atoms, "count"),
        "model.sample.records_per_s": (workload.records_sampled / sample_s, "1/s"),
        "tracing_overhead_s": (
            times["traced"]["run_s_median"] - times["untraced"]["run_s_median"], "s"),
    })
    return metrics


def mark_inconsistent(runs: list[dict]) -> None:
    """Fail a run whose output differs from the first untraced run of the
    same seed, or whose layer counts differ from the first traced run."""
    done = [r for r in runs if "digest" in r]
    reference = next((r["digest"] for r in done if not r["traced"]), None)
    traced = [r["trace"] for r in done if r.get("trace")]
    for r in done:
        if r["digest"] != reference:
            r["problems"].append("output differs from the untraced run")
        keys = ("calls", "errors", "codes_under_estimator")
        if r.get("trace") and any(r["trace"][k] != traced[0][k] for k in keys):
            r["problems"].append("layer counts differ between traced runs")


def git_rev() -> str | None:
    """HEAD's commit, read from the checkout's files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, runs: list[dict], seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "runs": len(runs),
        "times": time_summary(runs),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "src_lines": src_lines,
        "child_env": CHILD_ENV,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mdrcv
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(mdrcv.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: mdrcv comes from {mdrcv.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    trace = bool(args.trace)
    runs = run_loop(workload.name, args.seed, args.seconds, trace)
    if not all(any("run_s" in r and r["traced"] == k for r in runs) for k in {False, trace}):
        for r in runs:
            print(f"perfbench: {'; '.join(r['problems'])}", file=sys.stderr)
        print("perfbench: no timed run completed", file=sys.stderr)
        return 1
    mark_inconsistent(runs)
    metrics = layer_metrics(workload, runs) if trace else end_to_end_metrics(workload, runs)
    failed = sum(1 for r in runs if r["problems"])
    meta = provenance(workload, runs, args.seed, args.seconds, trace)
    meta["problems"] = [p for r in runs for p in r["problems"]]

    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"meta": meta, "result": result, "runs": runs}, indent=1))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
