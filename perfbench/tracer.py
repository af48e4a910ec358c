"""Layer tracing for the benchmark, applied from outside the library.

Each listed public function of an ``mdrcv`` module is replaced by a wrapper
that records one span per call: (id, parent id, name, start, end).  Spans
live in memory until the run ends.  A module that did ``from .model import
sample`` holds its own binding of the function, so the wrapper replaces
every ``mdrcv.*`` module attribute that is the original function object,
not just the one in the defining module.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# Layers are the library's modules; ``cli`` is not timed as a layer.
TARGETS: dict[str, tuple[str, ...]] = {
    "mcverify": (
        "verify_clt",
        "run_replications",
        "derive_seed",
        "clt_check",
        "multivariate_check",
        "ks_statistic",
    ),
    "model": ("sample", "cylinder_codes", "cylinder_masses", "point_probs"),
    "scenarios": ("generate_scenario",),
    "estimator": (
        "cv_prediction_error",
        "influence_values",
        "asymptotic_sd_estimate",
        "asymptotic_covariance_estimate",
    ),
    "oracle": (
        "optimal_predictor",
        "prediction_error",
        "influence_table",
        "asymptotic_variance",
        "asymptotic_covariance",
    ),
    "linalg": ("inv_sqrt_symmetric",),
    "search": ("rank_subsets",),
    "dataio": ("ingest_csv",),
}

# Methods are traced on their class rather than as module attributes.
METHOD_OWNERS = {("model", "point_probs"): "JointDistribution"}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


class Tracer:
    """Records a span around every call of the ``TARGETS`` functions.

    Use as a context manager: entering rebinds the wrappers, leaving
    restores every original binding.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.errors: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                stack.pop()
                span[4] = clock()

        return traced

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        homes = {mod: importlib.import_module(f"mdrcv.{mod}") for mod in TARGETS}
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "mdrcv" or name.startswith("mdrcv."))
        ]
        for mod, fns in TARGETS.items():
            home = homes[mod]
            for fn_name in fns:
                name = f"{mod}.{fn_name}"
                owner_name = METHOD_OWNERS.get((mod, fn_name))
                if owner_name is not None:
                    owner = getattr(home, owner_name)
                    self._rebind(owner, fn_name, self._wrap(name, vars(owner)[fn_name]))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: calls, self seconds and errors; per module: self
        seconds; and the cylinder-coding calls made under the estimator.

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter({name: 0 for name in SPAN_NAMES})
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for sid, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
        module_self_s = dict.fromkeys(TARGETS, 0.0)
        for name, secs in self_s.items():
            module_self_s[name.split(".", 1)[0]] += secs
        return {
            "calls": dict(calls),
            "self_s": self_s,
            "errors": {name: self.errors[name] for name in SPAN_NAMES},
            "module_self_s": module_self_s,
            "codes_under_estimator": self._calls_under("model.cylinder_codes", "estimator."),
        }

    def _calls_under(self, name: str, ancestor_prefix: str) -> int:
        count = 0
        for _, parent, span_name, _, _ in self.spans:
            if span_name != name:
                continue
            while parent >= 0:
                if self.spans[parent][2].startswith(ancestor_prefix):
                    count += 1
                    break
                parent = self.spans[parent][1]
        return count

    def write(self, path) -> None:
        """Write the run id and then one span per line, as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "fields": [
                "id", "parent", "name", "start", "end"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
