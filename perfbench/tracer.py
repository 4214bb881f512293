"""Spans and counts around the calls into each cfcontrol layer.

The tracer wraps the public functions from outside the package: it
replaces every module attribute through which a caller looks one of them
up (``cli.picard_solve`` and ``control.picard_solve`` both name
``mild.picard_solve``) and restores the originals on exit.  The family and
nonlinearity callables are wrapped where the config builds them, so each
evaluation is counted.  Spans stay in memory until the worker returns them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict

from cfcontrol import cli, config, control, evolution, mild
from cfcontrol.config import ScenarioConfig

_MODULES = (cli, config, control, evolution, mild)

# (span name, defining module, function name)
TRACED = (
    ("cli.run_scenario", cli, "run_scenario"),
    ("config.parse_config", config, "parse_config"),
    ("evolution.build_propagator", evolution, "build_propagator"),
    ("evolution.build_kernel", evolution, "build_kernel"),
    ("control.build_gramian", control, "build_gramian"),
    ("mild.contraction_report", mild, "contraction_report"),
    ("mild.picard_solve", mild, "picard_solve"),
    ("control.exact_null_control_semilinear", control,
     "exact_null_control_semilinear"),
)

COUNTS = ("evolution.kernel_terms", "evolution.family_evals",
          "evolution.table_mb", "mild.picard_calls", "mild.picard_sweeps",
          "mild.nonlinearity_calls", "control.outer_rounds",
          "control.gramian_jitter")

UNITS = {
    "evolution.build_propagator.self_s": "s",
    "evolution.build_propagator_s": "s",
    "evolution.kernel_terms": "count",
    "evolution.family_evals": "count",
    "evolution.table_mb": "MB",
    "mild.picard_solve_s": "s",
    "mild.picard_calls": "count",
    "mild.picard_sweeps": "count",
    "mild.nonlinearity_calls": "count",
    "mild.contraction_report_s": "s",
    "control.build_gramian_s": "s",
    "control.semilinear.self_s": "s",
    "control.outer_rounds": "count",
    "control.gramian_jitter": "1",
    "config.parse_s": "s",
    "cli.run_scenario.self_s": "s",
    "cli.bytes_written": "B",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
}


def _table_mb(table):
    """Megabytes held in the stored (n, n, d, d) arrays of a dense table."""
    if not hasattr(table, "matrices"):
        return 0.0
    arrays = (table.matrices, table.kernel_table.kernel,
              table.kernel_table.resolvent)
    return sum(a.nbytes for a in arrays) / 1e6


def _count_propagator(table, counts):
    counts["evolution.table_mb"] += _table_mb(table)


def _count_kernel(ktab, counts):
    counts["evolution.kernel_terms"] += ktab.n_terms_used


def _count_picard(result, counts):
    counts["mild.picard_calls"] += 1
    counts["mild.picard_sweeps"] += result.iterations


def _count_semilinear(result, counts):
    counts["control.outer_rounds"] += result.iterations


def _count_gramian(gramian, counts):
    counts["control.gramian_jitter"] += gramian.jitter


_ON_RESULT = {
    "evolution.build_propagator": _count_propagator,
    "evolution.build_kernel": _count_kernel,
    "mild.picard_solve": _count_picard,
    "control.exact_null_control_semilinear": _count_semilinear,
    "control.build_gramian": _count_gramian,
}


class Tracer:
    """Records ``(request, name, start, end, parent)`` spans and counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.request = 0
        self._first = 0
        self._stack = []

    def begin(self, request):
        """Start a new request: later spans and counts belong to it."""
        self.request = request
        self._first = len(self.spans)
        self.counts.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        on_result = _ON_RESULT.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([self.request, name, time.perf_counter(), None,
                          stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter()
            if on_result is not None:
                on_result(result, self.counts)
            return result
        return traced

    def _counted(self, fn, key):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)
        return counted

    def _counted_family(self):
        build = ScenarioConfig.family

        def family(cfg):
            fam = build(cfg)
            field = "matrix" if fam.kind == "dense_matrix" else "potential"
            fn = self._counted(getattr(fam, field), "evolution.family_evals")
            return dataclasses.replace(fam, **{field: fn})
        return family

    def _counted_nonlinearity(self):
        build = ScenarioConfig.nonlinearity

        def nonlinearity(cfg):
            fun, growth = build(cfg)
            if fun is not None:
                fun = self._counted(fun, "mild.nonlinearity_calls")
            return fun, growth
        return nonlinearity

    @contextlib.contextmanager
    def installed(self):
        """Route the traced functions through span-recording wrappers."""
        patches = []
        for name, module, attr in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            patches += [(caller, attr, wrapper) for caller in _MODULES
                        if getattr(caller, attr, None) is original]
        patches += [(ScenarioConfig, "family", self._counted_family()),
                    (ScenarioConfig, "nonlinearity",
                     self._counted_nonlinearity())]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
        try:
            for obj, attr, value in patches:
                setattr(obj, attr, value)
            yield self
        finally:
            for obj, attr, original in saved:
                setattr(obj, attr, original)

    def layer_metrics(self):
        """Per-layer times and counts of the current request."""
        spans = self.spans[self._first:]
        total = defaultdict(float)
        children = defaultdict(float)
        for _, name, start, end, parent in spans:
            total[name] += end - start
            if parent is not None:
                children[self.spans[parent][1]] += end - start

        def self_time(name):
            return total[name] - children[name]

        metrics = {key: self.counts[key] for key in COUNTS}
        metrics.update({
            "evolution.build_propagator.self_s":
                self_time("evolution.build_propagator"),
            "evolution.build_propagator_s":
                total["evolution.build_propagator"],
            "mild.picard_solve_s": total["mild.picard_solve"],
            "mild.contraction_report_s": total["mild.contraction_report"],
            "control.build_gramian_s": total["control.build_gramian"],
            "control.semilinear.self_s":
                self_time("control.exact_null_control_semilinear"),
            "config.parse_s": total["config.parse_config"],
            "cli.run_scenario.self_s": self_time("cli.run_scenario"),
        })
        return metrics
