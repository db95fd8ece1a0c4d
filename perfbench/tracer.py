"""Spans around the package's public functions, recorded from outside.

`Tracer.install()` replaces each function listed in PATCHES in the module
namespace where its callers look it up (for example
`stacky_brauer.cohomology.homology_at`, not `stacky_brauer.abelian.homology_at`),
so calls made inside the package are seen.  Spans (id, parent id, name,
start, end, counters) are kept in memory and written once, when the
process is done.  `aggregate` turns span files into per-layer metrics;
self time is a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import json
from importlib import import_module
from time import perf_counter

# (module whose namespace is patched, attribute, span name).  Span names
# are "<defining module>.<function>".
PATCHES = (
    ("cohomology", "homology_at", "abelian.homology_at"),
    ("cohomology", "induced_map", "abelian.induced_map"),
    ("fibers", "is_split_injection", "abelian.is_split_injection"),
    ("curves", "cokernel", "abelian.cokernel"),
    ("cohomology", "bar_differential", "cohomology.bar_differential"),
    ("cohomology", "pullback_matrix", "cohomology.pullback_matrix"),
    ("cohomology", "cohomology", "cohomology.cohomology"),
    ("cli", "cohomology", "cohomology.cohomology"),
    ("cohomology", "inflation_kernel_trivial", "cohomology.inflation_kernel_trivial"),
    ("fibers", "inflation_kernel_trivial", "cohomology.inflation_kernel_trivial"),
    ("cohomology", "bockstein_r", "cohomology.bockstein_r"),
    ("fibers", "bockstein_r", "cohomology.bockstein_r"),
    ("curves", "bockstein_r", "cohomology.bockstein_r"),
    ("cohomology", "enumerate_extension_classes", "cohomology.enumerate_extension_classes"),
    ("groups", "central_extension", "groups.central_extension"),
    ("cli", "central_extension", "groups.central_extension"),
    ("curves", "analyze_fiber", "fibers.analyze_fiber"),
    ("fibers", "h3_inflation_injective", "fibers.h3_inflation_injective"),
    ("fibers", "h2_section_exists", "fibers.h2_section_exists"),
    ("fibers", "fiber_is_root_gerbe_via_inflation", "fibers.fiber_is_root_gerbe_via_inflation"),
    ("curves", "brauer_report", "curves.brauer_report"),
    ("cli", "brauer_report", "curves.brauer_report"),
    ("cli", "parse_input", "cli.parse_input"),
    ("cli", "build_report_lines", "cli.build_report_lines"),
)

BRANCHES = ("smooth-shortcut", "coprime", "sections", "unknown")

# Per-layer metrics: (name, unit, better).  Every name is printed on every
# workload; a function a workload never calls reads 0.
PER_LAYER = (
    ("abelian.homology_at.calls", "count", "lower"),
    ("abelian.homology_at.self_s", "s", "lower"),
    ("abelian.homology_at.in_nnz", "count", "lower"),
    ("abelian.induced_map.calls", "count", "lower"),
    ("abelian.induced_map.self_s", "s", "lower"),
    ("abelian.is_split_injection.self_s", "s", "lower"),
    ("abelian.cokernel.calls", "count", "lower"),
    ("abelian.cokernel.self_s", "s", "lower"),
    ("cohomology.bar_differential.calls", "count", "lower"),
    ("cohomology.bar_differential.self_s", "s", "lower"),
    ("cohomology.bar_differential.out_nnz", "count", "lower"),
    ("cohomology.pullback_matrix.self_s", "s", "lower"),
    ("cohomology.cohomology.calls", "count", "lower"),
    ("cohomology.cohomology.self_s", "s", "lower"),
    ("cohomology.cohomology.cache_hits", "count", "higher"),
    ("cohomology.cohomology.cache_misses", "count", "lower"),
    ("cohomology.cohomology.cache_hit_ratio", "ratio", "higher"),
    ("cohomology.cohomology.cache_entries_peak", "count", "lower"),
    ("cohomology.inflation_kernel_trivial.calls", "count", "lower"),
    ("cohomology.inflation_kernel_trivial.self_s", "s", "lower"),
    ("cohomology.bockstein_r.self_s", "s", "lower"),
    ("groups.central_extension.calls", "count", "lower"),
    ("groups.central_extension.self_s", "s", "lower"),
    ("cohomology.enumerate_extension_classes.self_s", "s", "lower"),
    ("fibers.analyze_fiber.calls", "count", "lower"),
    ("fibers.analyze_fiber.self_s", "s", "lower"),
    ("fibers.h3_inflation_injective.total_s", "s", "lower"),
    ("fibers.h2_section_exists.total_s", "s", "lower"),
    ("fibers.fiber_is_root_gerbe_via_inflation.total_s", "s", "lower"),
    ("curves.brauer_report.calls", "count", "lower"),
    ("curves.brauer_report.self_s", "s", "lower"),
) + tuple((f"curves.branch.{b}", "count", "higher") for b in BRANCHES) + (
    ("cli.parse_input.self_s", "s", "lower"),
    ("cli.build_report_lines.self_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _matrix_args_nnz(args, kwargs):
    d_out = kwargs.get("d_out", args[0] if args else None)
    d_in = kwargs.get("d_in", args[1] if len(args) > 1 else None)
    return d_out.nnz + d_in.nnz


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans = []       # [id, parent, name, start, end, counters]
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, cache):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else -1, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            before = len(cache) if cache is not None else 0
            span[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if name == "cohomology.cohomology":
                span[5] = {"miss": int(len(cache) > before), "entries": len(cache)}
            elif name == "abelian.homology_at":
                span[5] = {"nnz": _matrix_args_nnz(args, kwargs)}
            elif name == "cohomology.bar_differential":
                span[5] = {"nnz": out.nnz}
            elif name == "curves.brauer_report":
                span[5] = {"branch": out.splitting}
            return out

        return wrapper

    def install(self):
        cache = import_module("stacky_brauer.cohomology")._CACHE
        wrappers = {}
        for mod_name, attr, span_name in PATCHES:
            module = import_module(f"stacky_brauer.{mod_name}")
            original = getattr(module, attr)
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self._wrap(
                    span_name, original,
                    cache if span_name == "cohomology.cohomology" else None)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[key])

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def aggregate(span_lists):
    """Per-layer metrics (every PER_LAYER name except trace.*) from span lists.

    Each list is one process's spans; parent ids refer within a list.
    """
    total = {}
    self_time = {}
    calls = {}
    counters = {"abelian.homology_at.in_nnz": 0, "cohomology.bar_differential.out_nnz": 0,
                "cohomology.cohomology.cache_misses": 0,
                "cohomology.cohomology.cache_entries_peak": 0}
    branches = dict.fromkeys(BRANCHES, 0)
    for spans in span_lists:
        child_cover = [0.0] * len(spans)
        for sid, parent, name, start, end, extra in spans:
            if parent >= 0:
                child_cover[parent] += end - start
        for sid, parent, name, start, end, extra in spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + dur - child_cover[sid]
            calls[name] = calls.get(name, 0) + 1
            if name == "abelian.homology_at":
                counters["abelian.homology_at.in_nnz"] += extra["nnz"]
            elif name == "cohomology.bar_differential":
                counters["cohomology.bar_differential.out_nnz"] += extra["nnz"]
            elif name == "cohomology.cohomology":
                counters["cohomology.cohomology.cache_misses"] += extra["miss"]
                peak = counters["cohomology.cohomology.cache_entries_peak"]
                counters["cohomology.cohomology.cache_entries_peak"] = max(peak, extra["entries"])
            elif name == "curves.brauer_report":
                branches[extra["branch"]] = branches.get(extra["branch"], 0) + 1
    coh_calls = calls.get("cohomology.cohomology", 0)
    misses = counters["cohomology.cohomology.cache_misses"]
    counters["cohomology.cohomology.cache_hits"] = coh_calls - misses
    counters["cohomology.cohomology.cache_hit_ratio"] = \
        (coh_calls - misses) / coh_calls if coh_calls else 0.0
    for b, n in branches.items():
        counters[f"curves.branch.{b}"] = n
    out = {}
    for name, _, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        fn, _, stat = name.rpartition(".")
        if name in counters:
            out[name] = counters[name]
        elif stat == "calls":
            out[name] = calls.get(fn, 0)
        elif stat == "self_s":
            out[name] = self_time.get(fn, 0.0)
        elif stat == "total_s":
            out[name] = total.get(fn, 0.0)
    return out
