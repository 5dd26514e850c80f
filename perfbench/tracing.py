"""Traced-run wrappers around the library's public functions.

install() swaps each traced function, in every quasigrid module that holds
a reference to it, for a wrapper that records a span (name, start, end,
parent span, request) and the layer's counts.  Nothing is patched unless
the benchmark runs with --trace 1, and uninstall() puts every original
back.  Spans stay in memory until the run writes them out at exit.

A layer's self time is its spans' durations minus the time covered by
their child spans, so `cutproject.enumerate.self_s` excludes the
latticeenum, ratmath and pointset work it calls.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import quasigrid.analysis as q_analysis
import quasigrid.cutproject as q_cutproject
import quasigrid.discretize as q_discretize
import quasigrid.latticeenum as q_latticeenum
import quasigrid.pointset as q_pointset
import quasigrid.ratmath as q_ratmath

# (module, attribute, span name or None for a count-only wrapper, counter);
# a counter maps (args, result) to the (count key, increment) pairs it adds.
TRACED = [
    (q_latticeenum, "solve_integer_box", "latticeenum",
     lambda a, r: [("latticeenum.solutions", len(r))]),
    (q_latticeenum, "_solve_python", None,
     lambda a, r: [("latticeenum.bigint_calls", 1)]),
    (q_ratmath, "preimage_bounds", "ratmath.preimage_bounds",
     lambda a, r: [("ratmath.preimage_bounds.corners", 2 ** a[1].dim)]),
    (q_cutproject, "enumerate_model_set", "cutproject.enumerate",
     lambda a, r: [("cutproject.points_out", len(r.patch)),
                   ("cutproject.multiplicity_dropped", r.multiplicity_dropped)]),
    (q_pointset, "translate", "pointset.translate", None),
    (q_pointset, "sym_diff", "pointset.sym_diff", None),
    (q_pointset, "dumps_qps", "io.dumps_qps", lambda a, r: [("io.bytes", len(r))]),
    (q_pointset, "loads_qps", "io.loads_qps", lambda a, r: [("io.bytes", len(a[0]))]),
    (q_discretize, "apply_chain", "discretize.apply_chain",
     lambda a, r: [("discretize.image_points", len(r))]),
    (q_discretize, "_region_int_points", None,
     lambda a, r: [("discretize.input_points", len(r))]),
    (q_discretize, "sample_sl2_chain", "discretize.sample", None),
    (q_analysis, "uniform_density", "analysis.uniform_density", None),
    (q_analysis, "epsilon_translations", "analysis.epsilon_translations",
     lambda a, r: [("analysis.translations_accepted", len(r.translations))]),
    (q_analysis, "subadditivity_check", "analysis.subadditivity", None),
    (q_analysis, "weak_ap_probe", "analysis.weak_ap_probe", None),
    (q_analysis, "_difference_candidates", None,
     lambda a, r: [("analysis.translation_candidates", len(r))]),
]

# per-layer metric -> (kind, key); kind "self" sums self time over span names
LAYER_METRICS = {
    "latticeenum.calls": ("calls", ["latticeenum"]),
    "latticeenum.self_s": ("self", ["latticeenum"]),
    "latticeenum.solutions": ("count", "latticeenum.solutions"),
    "latticeenum.visited": ("count", "latticeenum.visited"),
    "latticeenum.bigint_calls": ("count", "latticeenum.bigint_calls"),
    "ratmath.preimage_bounds.calls": ("calls", ["ratmath.preimage_bounds"]),
    "ratmath.preimage_bounds.self_s": ("self", ["ratmath.preimage_bounds"]),
    "ratmath.preimage_bounds.corners": ("count", "ratmath.preimage_bounds.corners"),
    "cutproject.enumerate.calls": ("calls", ["cutproject.enumerate"]),
    "cutproject.enumerate.self_s": ("self", ["cutproject.enumerate"]),
    "cutproject.points_out": ("count", "cutproject.points_out"),
    "cutproject.multiplicity_dropped": ("count", "cutproject.multiplicity_dropped"),
    "pointset.build.calls": ("calls", ["pointset.build"]),
    "pointset.build.points": ("count", "pointset.build.points"),
    "pointset.build.self_s": ("self", ["pointset.build"]),
    "pointset.translate.calls": ("calls", ["pointset.translate"]),
    "pointset.sym_diff.calls": ("calls", ["pointset.sym_diff"]),
    "pointset.self_s": ("self", ["pointset.build", "pointset.translate",
                                 "pointset.sym_diff"]),
    "discretize.apply_chain.calls": ("calls", ["discretize.apply_chain"]),
    "discretize.apply_chain.self_s": ("self", ["discretize.apply_chain"]),
    "discretize.input_points": ("count", "discretize.input_points"),
    "discretize.image_points": ("count", "discretize.image_points"),
    "discretize.sample.self_s": ("self", ["discretize.sample"]),
    "analysis.uniform_density.self_s": ("self", ["analysis.uniform_density"]),
    "analysis.epsilon_translations.self_s": ("self", ["analysis.epsilon_translations"]),
    "analysis.subadditivity.self_s": ("self", ["analysis.subadditivity"]),
    "analysis.weak_ap_probe.self_s": ("self", ["analysis.weak_ap_probe"]),
    "analysis.translation_candidates": ("count", "analysis.translation_candidates"),
    "analysis.translations_accepted": ("count", "analysis.translations_accepted"),
    "io.dumps_qps.self_s": ("self", ["io.dumps_qps"]),
    "io.loads_qps.self_s": ("self", ["io.loads_qps"]),
    "io.bytes": ("count", "io.bytes"),
}


class Tracer:
    """In-memory spans and counts for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.request = None
        self._stack: list[list] = []  # [span id, time covered by children]
        self._restore: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                tracer._count(counter, args, result)
                return result
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [len(tracer.spans) + len(tracer._stack), 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans.append((frame[0], name, start, end, parent,
                                     tracer.request))
            tracer._count(counter, args, result)
            return result

        return traced

    def wrap_request(self, run, kind):
        """A root span for one request; its self time is the benchmark's own
        glue plus library code that no other span covers."""
        return self._wrap(run, f"request.{kind}", None)

    def _count(self, counter, args, result) -> None:
        if counter is not None:
            for key, amount in counter(args, result):
                self.counts[key] += amount

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "quasigrid" or name.startswith("quasigrid.")]
        for module, attr, name, counter in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, counter)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)
        build = q_pointset.PointSet.__dict__["build"]
        self._restore.append((q_pointset.PointSet, "build", build))
        q_pointset.PointSet.build = classmethod(self._wrap(
            build.__func__, "pointset.build",
            lambda a, r: [("pointset.build.points", len(r))]))
        meter = q_latticeenum._BudgetMeter
        counts = self.counts

        class CountingMeter(meter):
            def charge(self, count):
                counts["latticeenum.visited"] += count
                super().charge(count)

        self._restore.append((q_latticeenum, "_BudgetMeter", meter))
        q_latticeenum._BudgetMeter = CountingMeter

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    # -- reporting ------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per round of the request mix."""
        out = {}
        for metric, (kind, key) in LAYER_METRICS.items():
            if kind == "self":
                out[metric] = (sum(self.self_s[k] for k in key) / rounds, "s")
            elif kind == "calls":
                out[metric] = (sum(self.calls[k] for k in key) / rounds, "count")
            else:
                out[metric] = (self.counts[key] / rounds, "count")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent,
                                     "request": request}) + "\n")
