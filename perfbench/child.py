"""One timed run of one workload, in a fresh interpreter.

Run by ``run.py``: ``python3 perfbench/child.py WORKLOAD SEED TRACE WORKDIR``.
Builds the inputs from the seed, times the call, checks the output and
prints one JSON line with the timings, the peak RSS and, when traced, the
layer summary.  A fresh process per run keeps process-lifetime caches cold,
as they are for a CLI user.

On a shared host the speed of the same code drifts by up to 1.6x, in spells
that last minutes, longer than a whole benchmark run.  So right after the
call the process times a fixed kernel that does not use the library, and
``run_s`` is the call's wall time scaled by ``speed_scale`` to a host on
which that kernel takes ``REFERENCE_CALIBRATION_S``; ``run.py`` scales the
set-up time the same way.  The raw wall time is ``wall_s``.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, digest, golden_digests, serialize  # noqa: E402  (imports mdrcv)


CALIBRATION_REPEATS = 5
REFERENCE_CALIBRATION_S = 0.02


def monotonic() -> float:
    """System-wide clock, comparable between the parent and this process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibration_s() -> float:
    """Fastest of a few timings of a fixed interpreter-and-numpy kernel."""
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        levels = np.arange(200_000) % 7
        np.bincount(levels)
        np.sort(levels)
        best = min(best, time.perf_counter() - start)
    return best


def timed_run(workload, seed: int, workdir: Path, spans_path: Path | None = None) -> dict:
    """Set up, time and check one call of a ``workloads`` entry; traced, with
    its spans written to ``spans_path``, when that is given."""
    tracer = Tracer(f"{workload.name}-{seed}-{os.getpid()}") if spans_path else None
    with tracer or contextlib.nullcontext(), tempfile.TemporaryDirectory(
        dir=workdir
    ) as scratch:
        inputs = workload.setup(seed, Path(scratch))
        t_start = monotonic()
        report = workload.call(inputs, seed)
        text = serialize(report)
        t_end = monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration = calibration_s()
    speed_scale = REFERENCE_CALIBRATION_S / calibration
    if tracer is not None:
        tracer.write(spans_path)
    golden = golden_digests().get(workload.name)
    return {
        "t_start": t_start,
        "wall_s": t_end - t_start,
        "calibration_s": calibration,
        "speed_scale": speed_scale,
        "run_s": (t_end - t_start) * speed_scale,
        "digest": digest(text),
        "problems": workload.check(report, text, seed, golden),
        "rss_mb": rss_mb,
        "trace": tracer.summary() if tracer is not None else None,
    }


def main(argv: list[str]) -> int:
    name, seed, trace, workdir = argv
    spans_path = Path(workdir) / f"spans-{name}.jsonl" if trace == "1" else None
    print(json.dumps(timed_run(WORKLOADS[name], int(seed), Path(workdir), spans_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
