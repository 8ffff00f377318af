"""Spans and counts recorded around mixsweep's public functions.

The benchmark installs these wrappers from its own files, only in a traced
run; nothing under ``src/`` is edited. Each wrapper records a span (id,
parent id, name, start, end, self time) and the counts of the layer it
wraps. Spans stay in memory until the run ends.

A span's self time is its duration minus the time of the spans it caused.
A generator (``read_jsonl``, ``read_results_csv``, ``schedule_rows``) gets
one span whose duration is the time spent inside its ``next()`` calls, so
the work its consumer does between items stays with the consumer.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.util
import itertools
import sys
from collections import Counter
from time import perf_counter

# Per-layer metric -> span name whose self time it sums over one pass.
SPAN_METRICS = {
    "cli.self_s": "cli.run",
    "space.enumerate_s": "space.enumerate",
    "space.write_jsonl_s": "space.write_jsonl",
    "space.read_jsonl_s": "space.read_jsonl",
    "budget.derive_s": "budget.derive",
    "trainplan.build_training_plan_s": "trainplan.build_training_plan",
    "schedule.build_schedule_s": "schedule.build_schedule",
    "schedule.schedule_rows_s": "schedule.schedule_rows",
    "surrogate.generate_dataset_s": "surrogate.generate_dataset",
    "analysis.read_results_csv_s": "analysis.read_results_csv",
    "analysis.ingest_s": "analysis.ingest",
    "analysis.for_pair_s": "analysis.for_pair",
    "analysis.build_report_s": "analysis.build_report",
    "fitting.fit_kstar_model_s": "fitting.fit_kstar_model",
    "fitting.fit_epoch_quadratic_s": "fitting.fit_epoch_quadratic",
    "fitting.fit_ratio_power_law_s": "fitting.fit_ratio_power_law",
    "fitting.predict_kstar_s": "fitting.predict_kstar",
}

# Per-layer metrics that are exact counts, recorded by the wrappers below.
COUNT_METRICS = (
    "space.setups_parsed",
    "budget.derive_calls",
    "trainplan.plans_built",
    "schedule.rows_emitted",
    "surrogate.records",
    "analysis.rows_read",
    "analysis.duplicates_reduced",
    "analysis.for_pair_scans",
    "fitting.kstar_solves",
    "fitting.kstar_nfev",
    "fitting.kstar_nit",
    "fitting.epoch_fits",
)


def _one(result) -> int:
    return 1


def _duplicates(result) -> int:
    return sum(extra for _, extra in result.summary.duplicates)


# (module, attribute, span name, counter, count of one call's result).
# A counter on a generator counts its items instead.
_CALLS = (
    ("cli", "run", "cli.run", None, None),
    ("space", "enumerate_all", "space.enumerate", None, None),
    ("space", "enumerate_single_stage", "space.enumerate", None, None),
    ("space", "enumerate_two_stage", "space.enumerate", None, None),
    ("space", "write_jsonl", "space.write_jsonl", None, None),
    ("space", "SetupSpec.derived", "budget.derive", "budget.derive_calls", _one),
    ("trainplan", "build_training_plan", "trainplan.build_training_plan",
     "trainplan.plans_built", _one),
    ("schedule", "build_schedule", "schedule.build_schedule", None, None),
    ("surrogate", "generate_dataset", "surrogate.generate_dataset", "surrogate.records", len),
    ("analysis", "ingest", "analysis.ingest", "analysis.duplicates_reduced", _duplicates),
    ("analysis", "ResultSet.for_pair", "analysis.for_pair", "analysis.for_pair_scans", _one),
    ("analysis", "build_report", "analysis.build_report", None, None),
    ("fitting", "fit_kstar_model", "fitting.fit_kstar_model", None, None),
    ("fitting", "fit_epoch_quadratic", "fitting.fit_epoch_quadratic", "fitting.epoch_fits", _one),
    ("fitting", "fit_ratio_power_law", "fitting.fit_ratio_power_law", None, None),
    ("fitting", "predict_kstar", "fitting.predict_kstar", None, None),
)
_GENERATORS = (
    ("space", "read_jsonl", "space.read_jsonl", "space.setups_parsed"),
    ("schedule", "schedule_rows", "schedule.schedule_rows", "schedule.rows_emitted"),
    ("analysis", "read_results_csv", "analysis.read_results_csv", "analysis.rows_read"),
)


class Tracer:
    """In-memory spans and counts of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self_s)
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._stack: list[list] = []  # [id, name, start, child seconds]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def active(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    def take(self) -> tuple[list[tuple], Counter]:
        """Return and clear what was recorded since the last call."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _parent(self):
        return self._stack[-1][0] if self._stack else None

    def _close(self, frame: list) -> float:
        duration = perf_counter() - frame[2]
        if self._stack:
            self._stack[-1][3] += duration
        return duration

    def call(self, name: str, fn, args, kwargs):
        parent = self._parent()
        frame = [next(self._ids), name, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            duration = self._close(frame)
            self.spans.append(
                (frame[0], parent, name, frame[2], frame[2] + duration, duration - frame[3])
            )

    def iterate(self, name: str, counter: str, items):
        span_id, parent = next(self._ids), self._parent()
        start = end = None
        busy = child = 0.0
        n = 0
        iterator = iter(items)
        try:
            while True:
                frame = [span_id, name, perf_counter(), 0.0]
                if start is None:
                    start = frame[2]
                self._stack.append(frame)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._stack.pop()
                    duration = self._close(frame)
                    busy += duration
                    child += frame[3]
                    end = frame[2] + duration
                n += 1
                yield item
        finally:
            self.count(counter, n)
            if start is not None:
                self.spans.append((span_id, parent, name, start, end, busy - child))


def _resolve(owner, dotted: str):
    for part in dotted.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, dotted.rsplit(".", 1)[-1]


class Instrumentation:
    """Installs the wrappers into mixsweep (and scipy's ``minimize``); undoes them on exit.

    Every reference to a wrapped function in a loaded ``mixsweep`` module is
    replaced, so names bound by ``from x import f`` are wrapped too. If
    ``scipy.optimize`` is not imported yet, it is wrapped when first
    imported, so a lazy import inside mixsweep is still counted.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple] = []
        self._finder = None

    def __enter__(self) -> "Instrumentation":
        if "scipy.optimize" in sys.modules:
            self._wrap_minimize(sys.modules["scipy.optimize"])
        else:
            self._finder = _PatchOnImport("scipy.optimize", self._wrap_minimize)
            sys.meta_path.insert(0, self._finder)
        importlib.import_module("mixsweep.cli")
        tracer = self.tracer
        for module, attr, name, counter, measure in _CALLS:
            self._replace(module, attr, _call_wrapper(tracer, name, counter, measure))
        for module, attr, name, counter in _GENERATORS:
            self._replace(module, attr, _generator_wrapper(tracer, name, counter))
        return self

    def __exit__(self, *exc) -> None:
        if self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, module: str, dotted: str, make_wrapper) -> None:
        owner, attr = _resolve(importlib.import_module(f"mixsweep.{module}"), dotted)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        self._set(owner, attr, wrapper)
        self._rebind(original, wrapper)

    def _rebind(self, original, wrapper) -> None:
        """Point every name a ``mixsweep`` module binds to ``original`` at ``wrapper``."""
        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] == "mixsweep" and loaded is not None:
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_minimize(self, optimize) -> None:
        original = optimize.minimize
        tracer = self.tracer

        @functools.wraps(original)
        def minimize(*args, **kwargs):
            result = original(*args, **kwargs)
            if tracer.active("fitting.fit_kstar_model"):
                tracer.count("fitting.kstar_solves")
                tracer.count("fitting.kstar_nfev", int(result.nfev))
                tracer.count("fitting.kstar_nit", int(result.nit))
                tracer.count("fitting.kstar_converged", int(bool(result.success)))
            return result

        self._set(optimize, "minimize", minimize)
        self._rebind(original, minimize)  # e.g. mixsweep.fitting's own `minimize` name


def _call_wrapper(tracer: Tracer, name: str, counter, measure):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if counter is not None:
                tracer.count(counter, measure(result))
            return result

        return wrapper

    return make


def _generator_wrapper(tracer: Tracer, name: str, counter: str):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.iterate(name, counter, fn(*args, **kwargs))

        return wrapper

    return make


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Runs ``patch(module)`` right after ``fullname`` is first executed."""

    def __init__(self, fullname: str, patch) -> None:
        self.fullname = fullname
        self.patch = patch

    def find_spec(self, fullname, path, target=None):
        if fullname != self.fullname:
            return None
        sys.meta_path.remove(self)
        try:
            spec = importlib.util.find_spec(fullname)
        finally:
            sys.meta_path.insert(0, self)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def pass_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and counts."""
    self_by_name: Counter = Counter()
    for span in spans:
        self_by_name[span[2]] += span[5]
    metrics = {metric: self_by_name[name] for metric, name in SPAN_METRICS.items()}
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    solves = metrics["fitting.kstar_solves"]
    # 0 when no k* solve ran in the pass.
    metrics["fitting.kstar_converged_ratio"] = (
        counts.get("fitting.kstar_converged", 0) / solves if solves else 0.0
    )
    return metrics
