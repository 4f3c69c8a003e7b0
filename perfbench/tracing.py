"""Per-layer tracing from outside the library.

The tracer rebinds the public functions of each ``imbenhance`` module in
every module namespace that holds them (the defining module, each module that
imported the name, and the package itself), so a call is attributed to the
module it was made from: ``fit`` bound in ``synthesis`` records caller
``synthesis``. ``Preprocessor.fit_transform`` and ``transform`` are methods,
so they are rebound on the class and take their caller from the calling
frame. Spans stay in memory until ``write_spans`` at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

PACKAGE = "imbenhance"
MODULES = ("classifiers", "data", "filtering", "metrics", "pipeline", "selflearn",
           "synthesis", "cli")
TRACED = {
    "classifiers": ("fit", "predict", "predict_proba"),
    "data": ("load_csv", "write_csv", "stratified_split", "concat_datasets"),
    "filtering": ("filter_sweep", "margins"),
    "metrics": ("evaluate",),
    "pipeline": ("run_pipeline", "benchmark", "emit_report"),
    "selflearn": ("select_strategy", "kfulf", "dds"),
    "synthesis": ("meta_synthesize", "random_oversample", "smote"),
    "cli": ("main",),
}
TRACED_METHODS = {("data", "Preprocessor"): ("fit_transform", "transform")}
METHOD_SPAN = "data.preprocess"
REPETITION = "harness.repetition"


def max_rss_mb() -> float:
    """High-water mark of this process's resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    caller: str
    parent: int          # index of the enclosing span, -1 at the top
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def _observe(name, args, kwargs, result, attrs):
    """Counts read from a call's arguments and result."""
    if name == "classifiers.fit":
        attrs["rows"] = (args[1] if len(args) > 1 else kwargs["train"]).n_rows
    elif name == "classifiers.predict":
        attrs["rows"] = len(result)
    elif name == "synthesis.meta_synthesize":
        attrs["techniques"] = len(args[1] if len(args) > 1 else kwargs["techniques"])
    elif name == "filtering.filter_sweep":
        kept = [e.kept_count for e in result.table]
        fitted = {e.kept_count for e in result.table if e.f1 != -1.0}
        attrs["duplicates"] = sum(a == b for a, b in zip(kept, kept[1:]))
        attrs["distinct_fitted"] = len(fitted)
    elif name == "selflearn.dds":
        steps = [e for e in result.log if e.get("event") == "iteration"]
        attrs["iterations"] = len(steps)
        attrs["accepted"] = sum(bool(e["accepted"]) for e in steps)
    elif name == "selflearn.select_strategy":
        attrs["pseudo_rows"] = result.pseudo_count


class Tracer:
    """Records a span per traced call while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _record(self, fn, name, caller, args, kwargs):
        span = Span(name, caller, self._stack[-1] if self._stack else -1, 0.0)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        rss = max_rss_mb() if name == "synthesis.smote" else None
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if rss is not None:
            span.attrs["rss_delta_mb"] = max_rss_mb() - rss
        _observe(name, args, kwargs, result, span.attrs)
        return result

    def _function(self, fn, name, caller):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(fn, name, caller, args, kwargs)
        return traced

    def _method(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "?").rsplit(".", 1)[-1]
            return self._record(fn, name, caller, args, kwargs)
        return traced

    def repetition(self, fn, *args):
        """Run ``fn(*args)`` under a harness span, the root of the repetition's
        spans; it is recorded at index ``len(self.spans)`` as of the call."""
        return self._record(fn, REPETITION, "harness", args, {})

    def __enter__(self):
        package = importlib.import_module(PACKAGE)
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        namespaces = [("harness", package)] + list(modules.items())
        for home, names in TRACED.items():
            for fname in names:
                original = getattr(modules[home], fname)
                for caller, ns in namespaces:
                    if ns.__dict__.get(fname) is original:
                        self._restore.append((ns, fname, original))
                        setattr(ns, fname, self._function(original, f"{home}.{fname}", caller))
        for (home, cls_name), methods in TRACED_METHODS.items():
            cls = getattr(modules[home], cls_name)
            for mname in methods:
                original = cls.__dict__[mname]
                self._restore.append((cls, mname, original))
                setattr(cls, mname, self._method(original, METHOD_SPAN))
        return self

    def __exit__(self, *exc):
        for ns, fname, original in reversed(self._restore):
            setattr(ns, fname, original)
        self._restore.clear()
        return False

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


# What each per-layer metric should move (end-to-end metric, workload):
#   classifiers.fit.calls and the per-caller fit counts: wall_s, all workloads
#   classifiers.fit.ms, ms_per_fit, rows, ms_per_krow: wall_s on tree-bench and
#     forest-bench, no change on logreg-enhance-csv
#   classifiers.predict.*, predict_proba.*: wall_s on forest-bench
#   synthesis.meta_synthesize.ms, random_oversample.ms, race_refits: wall_s, all
#   synthesis.smote.calls, ms: wall_s on logreg-enhance-csv; smote.rss_delta_mb:
#     peak_rss_mb on logreg-enhance-csv, flat on tree-bench
#   filtering.*: wall_s on tree-bench
#   selflearn.*: wall_s, all; dds.iterations, accepted_share and pseudo_rows
#     explain changes in fit count
#   metrics.evaluate.*: wall_s on tree-bench and forest-bench
#   data.load_csv.ms, preprocess.ms, write_csv.ms: wall_s on logreg-enhance-csv,
#     0 elsewhere; data.stratified_split.ms, concat_datasets.*: wall_s, all
#   pipeline.*.ms, cli.main.ms, <layer>.self.ms: the stage-to-total breakdown
def repetition_metrics(spans: list[Span], root: int) -> dict:
    """Per-layer metrics of the spans under the repetition span ``root``."""
    inside = {root}
    mine = []
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
            mine.append(i)
    calls = defaultdict(int)
    ms = defaultdict(float)
    self_ms = defaultdict(float)
    child_ms = defaultdict(float)
    attr = defaultdict(float)
    fits_by_caller = defaultdict(int)
    base_refits = 0
    for i in mine:
        s = spans[i]
        calls[s.name] += 1
        ms[s.name] += s.ms
        child_ms[s.parent] += s.ms
        for key, value in s.attrs.items():
            attr[f"{s.name}.{key}"] += value
        if s.name == "classifiers.fit":
            fits_by_caller[s.caller] += 1
            if s.caller == "pipeline" and spans[s.parent].name == "pipeline.run_pipeline":
                base_refits += 1
    for i in mine:
        layer = spans[i].name.split(".", 1)[0]
        self_ms[layer] += spans[i].ms - child_ms[i]

    fits = calls["classifiers.fit"]
    fit_rows = attr["classifiers.fit.rows"]
    iterations = attr["selflearn.dds.iterations"]
    sweep_fits = fits_by_caller["filtering"]
    out = {
        "classifiers.fit.calls": fits,
        "synthesis.fit.calls": fits_by_caller["synthesis"],
        "filtering.fit.calls": sweep_fits,
        "selflearn.fit.calls": fits_by_caller["selflearn"],
        "pipeline.fit.calls": fits_by_caller["pipeline"],
        "pipeline.fit.base_refits": base_refits,
        "classifiers.fit.ms": ms["classifiers.fit"],
        "classifiers.fit.ms_per_fit": ms["classifiers.fit"] / fits if fits else 0.0,
        "classifiers.fit.rows": fit_rows,
        "classifiers.fit.ms_per_krow": ms["classifiers.fit"] / (fit_rows / 1000.0)
        if fit_rows else 0.0,
        "classifiers.predict.calls": calls["classifiers.predict"],
        "classifiers.predict.ms": ms["classifiers.predict"],
        "classifiers.predict.rows": attr["classifiers.predict.rows"],
        "classifiers.predict_proba.calls": calls["classifiers.predict_proba"],
        "classifiers.predict_proba.ms": ms["classifiers.predict_proba"],
        "synthesis.meta_synthesize.ms": ms["synthesis.meta_synthesize"],
        "synthesis.random_oversample.ms": ms["synthesis.random_oversample"],
        "synthesis.smote.calls": calls["synthesis.smote"],
        "synthesis.smote.ms": ms["synthesis.smote"],
        "synthesis.smote.rss_delta_mb": attr["synthesis.smote.rss_delta_mb"],
        "synthesis.race_refits": fits_by_caller["synthesis"]
        - attr["synthesis.meta_synthesize.techniques"],
        "filtering.filter_sweep.ms": ms["filtering.filter_sweep"],
        "filtering.margins.ms": ms["filtering.margins"],
        "filtering.duplicate_candidates": attr["filtering.filter_sweep.duplicates"],
        "filtering.useful_fit_ratio": attr["filtering.filter_sweep.distinct_fitted"] / sweep_fits
        if sweep_fits else 0.0,
        "selflearn.select_strategy.ms": ms["selflearn.select_strategy"],
        "selflearn.kfulf.ms": ms["selflearn.kfulf"],
        "selflearn.dds.ms": ms["selflearn.dds"],
        "selflearn.dds.iterations": iterations,
        "selflearn.dds.accepted_share": attr["selflearn.dds.accepted"] / iterations
        if iterations else 0.0,
        "selflearn.pseudo_rows": attr["selflearn.select_strategy.pseudo_rows"],
        "metrics.evaluate.calls": calls["metrics.evaluate"],
        "metrics.evaluate.ms": ms["metrics.evaluate"],
        "data.load_csv.ms": ms["data.load_csv"],
        "data.preprocess.ms": ms[METHOD_SPAN],
        "data.write_csv.ms": ms["data.write_csv"],
        "data.stratified_split.ms": ms["data.stratified_split"],
        "data.concat_datasets.calls": calls["data.concat_datasets"],
        "data.concat_datasets.ms": ms["data.concat_datasets"],
        "pipeline.run_pipeline.ms": ms["pipeline.run_pipeline"],
        "pipeline.benchmark.ms": ms["pipeline.benchmark"],
        "pipeline.emit_report.ms": ms["pipeline.emit_report"],
        "cli.main.ms": ms["cli.main"],
    }
    for layer in MODULES:
        out[f"{layer}.self.ms"] = self_ms[layer]
    return out
