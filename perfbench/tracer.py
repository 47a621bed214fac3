"""Outside-in span tracer for the typical_clt package.

The tracer wraps public functions of the package's modules from outside
(the package itself carries no instrumentation).  Each call of a wrapped
function becomes a span: name, start, end, thread, and the span that
caused it.  On the calling thread the cause is the enclosing span; on a
worker thread of a `ThreadPoolExecutor` created by the package it is the
span that submitted the work, so the time a pool spends on behalf of
`mean_theta_distance` is charged to its children and not to its own self
time.  Spans and counters stay in memory until `dump` writes them.

`summarise` turns a span list into per-name busy and self seconds.  The
self time of a span is its duration minus the union of its children's
intervals, whichever thread they ran on, so the self times of one run add
up to its thread-busy seconds: a thread blocked on pool work it submitted
is not counted as busy.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

# Layers are the package's modules; rng and quadrature are too small to
# time on their own and are charged to their callers.
LAYERS = ("cli", "experiments", "systems", "sphere_law", "distributions",
          "functionals", "charfn", "reports")


class Tracer:
    """Records spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, thread, start, end)
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span on this thread, else its cause."""
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "cause", None)

    def count(self, name: str, k: int) -> None:
        with self._count_lock:
            self.counts[name] += int(k)

    def wrap(self, name: str, fn, on_result=None):
        """Return fn traced as span `name`; on_result(tracer, args, kwargs, result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self.current()
            stack = self._stack()
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name,
                                   threading.get_ident(), start, end))
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def caused_by_current(self, fn):
        """Wrap fn so that, on another thread, its spans name this thread's span."""
        cause = self.current()

        def run(*args, **kwargs):
            saved = getattr(self._local, "cause", None)
            self._local.cause = cause
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.cause = saved

        return run

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks keep the submitting span as cause."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.caused_by_current(fn), *args, **kwargs)

        return TracedPool

    def dump(self, path: str, **extra) -> None:
        record = {"spans": [list(s) for s in self.spans],
                  "counts": dict(self.counts), **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


# ---------------------------------------------------------------------------
# Installing the tracer on the package
# ---------------------------------------------------------------------------

def _count_rows(tracer, args, kwargs, batch):
    rows, n = batch.matrix.shape
    tracer.count("systems.rows_sampled", rows)
    # computed from the shape, not measured: rows x n float64 entries
    tracer.count("systems.matrix_bytes", rows * n * 8)


def _count_atoms(tracer, args, kwargs, mixture):
    tracer.count("distributions.mixture_atoms", mixture.radii.size)


def _count_points(tracer, args, kwargs, report):
    tracer.count("distributions.kolmogorov.points", report.metadata.get("points", 0))


def _count_csv(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("reports.csv_bytes", os.path.getsize(path))


# (module, function, span name, counter hook).  Span names are
# "<layer>.<name>"; the layer prefix is what `summarise` groups by.
TRACED_FUNCTIONS = (
    ("experiments", "parse_config", "experiments.parse_config", None),
    ("experiments", "run_sweep", "experiments.run_sweep", None),
    ("experiments", "run_verify", "experiments.run_verify", None),
    ("experiments", "fit_rate", "experiments.fit_rate", None),
    ("systems", "sample_vector", "systems.sample_vector", _count_rows),
    ("systems", "weighted_sum", "systems.weighted_sum", None),
    ("sphere_law", "sample_direction", "sphere_law.sample_direction", None),
    ("sphere_law", "cdf_table", "sphere_law.cdf_table", None),
    ("sphere_law", "gap_report", "sphere_law.gap_report", None),
    ("sphere_law", "charfn_Jn_grid", "sphere_law.charfn_Jn_grid", None),
    ("sphere_law", "jn_table", "sphere_law.jn_table", None),
    ("distributions", "mean_theta_distance",
     "distributions.mean_theta_distance", None),
    ("distributions", "build_target", "distributions.build_target", _count_atoms),
    ("distributions", "kolmogorov_distance", "distributions.kolmogorov",
     _count_points),
    ("functionals", "moment_Mp", "functionals.moment_Mp", None),
    ("functionals", "moment_mp", "functionals.moment_mp", None),
    ("functionals", "sigma_2p", "functionals.sigma_2p", None),
    ("functionals", "norm_variance_check", "functionals.norm_variance_check", None),
    ("functionals", "small_ball", "functionals.small_ball", None),
    ("functionals", "lower_tail_bound", "functionals.lower_tail_bound", None),
    ("charfn", "poincare_gap_check", "charfn.poincare_gap_check", None),
    ("charfn", "decay_bound_check", "charfn.decay_bound_check", None),
    ("reports", "write_csv", "reports.write_csv", _count_csv),
)


def install(tracer: Tracer):
    """Wrap the package's public functions; return the traced `cli.main`.

    Modules import each other's functions by name, so every module
    attribute bound to a wrapped function is rebound to its wrapper.
    """
    package = "typical_clt"
    cli = importlib.import_module(f"{package}.cli")
    modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
    modules.append(importlib.import_module(package))
    for module_name, attr, span, hook in TRACED_FUNCTIONS:
        original = getattr(importlib.import_module(f"{package}.{module_name}"), attr)
        traced = tracer.wrap(span, original, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    distributions = importlib.import_module(f"{package}.distributions")
    step_cdf = distributions.StepCDF
    step_cdf.from_samples = classmethod(tracer.wrap(
        "distributions.step_cdf", step_cdf.__dict__["from_samples"].__func__))
    distributions.ThreadPoolExecutor = tracer.pool_class()

    experiments = importlib.import_module(f"{package}.experiments")
    for name, suite in list(experiments.SUITES.items()):
        experiments.SUITES[name] = tracer.wrap(f"experiments.suite.{name}", suite)
    return tracer.wrap("cli.main", cli.main)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def summarise(spans) -> dict:
    """Per-name calls, busy and self seconds; per-layer self seconds.

    busy: summed durations of the name's spans, not counting a span nested
    in another span of the same name.  self: duration minus the union of
    the children's intervals clipped to the span.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)
    names: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    layers = dict.fromkeys(LAYERS, 0.0)
    for span_id, parent, name, _thread, start, end in spans:
        kids = [(max(c[4], start), min(c[5], end)) for c in children[span_id]]
        self_s = (end - start) - _covered([k for k in kids if k[1] > k[0]])
        entry = names[name]
        entry["calls"] += 1
        entry["self_s"] += self_s
        layers[name.split(".", 1)[0]] += self_s
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            entry["busy_s"] += end - start
    root = [s for s in spans if s[1] is None]
    return {
        "names": dict(names),
        "layers": layers,
        "thread_busy_s": sum(layers.values()),
        "root_wall_s": sum(s[5] - s[4] for s in root),
    }
