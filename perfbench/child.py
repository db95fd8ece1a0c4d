"""Child processes of the benchmark; each runs with the work directory as cwd.

    child.py setup PLAN            import the package, build the inputs, exit
    child.py inproc PLAN RESULT    set up, then run passes in this process
    child.py cli SPANS ARGV...     one traced CLI invocation

PLAN is a JSON file written by run.py: the workload, its items, the
measuring time in seconds (0 runs one pass) and a span file path when the
process is traced.  RESULT receives one JSON line per pass: each item's
measured time "t", its speed-corrected time "tc" (speed.py), exit code,
report summary and error.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from importlib import import_module
from time import perf_counter

import speed
from catalog import another_pass_fits, report_argv, summarize
from tracer import Tracer

cli = import_module("stacky_brauer.cli")
cohomology = import_module("stacky_brauer.cohomology")
curves = import_module("stacky_brauer.curves")


def build_inputs(items):
    """The groups, extensions and parsed documents a workload starts from."""
    built = []
    for item in items:
        if item["kind"] == "cohomology":
            spec, _, coeff = item["argv"]
            built.append((cli.parse_group_spec(spec), cli.parse_coefficients(coeff)))
        else:
            with open(item["doc"]) as fh:
                text = fh.read()
            doc = cli.parse_input(text)
            built.append((text, doc, doc.curve_spec()))
    return built


def timed(run_one, n):
    """Run items 0..n-1, timing each one between two reference probes.

    run_one(i) returns the item's result dict (or raises); "t" and "tc" are
    added to it."""
    results = []
    before = speed.probe()
    for i in range(n):
        t0 = perf_counter()
        try:
            res = run_one(i)
        except Exception:
            res = {"exit": None, "error": traceback.format_exc()}
        res["t"] = perf_counter() - t0
        after = speed.probe()
        res["tc"] = res["t"] * speed.scale(before, after)
        before = after
        results.append(res)
    return results


def sweep_pass(items, built):
    """One class-sweep pass: brauer_report(..., verify=True) per document.
    Reports are rendered after every item has been timed."""
    reports = [None] * len(built)

    def run_one(i):
        text, doc, curve = built[i]
        reports[i] = curves.brauer_report(curve, doc.r, verify=True)
        return {"error": ""}

    results = timed(run_one, len(built))
    for res, report, (text, doc, _) in zip(results, reports, built):
        if report is not None and not res["error"]:
            lines = cli.build_report_lines(doc, report, text)
            res["report"] = summarize("\n".join(lines) + "\n")
            res["exit"] = 0 if report.result.status == "determined" else 2
    return results


def batch_pass(items, built):
    """One shortcut-batch pass: cli.main(["brauer", ...]) per document.
    Report files are read after every item has been timed."""
    for i in range(len(items)):
        with contextlib.suppress(FileNotFoundError):
            os.remove(f"report-{i}.txt")
    sink = io.StringIO()

    def run_one(i):
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return {"exit": cli.main(report_argv(items[i], f"report-{i}.txt")), "error": ""}

    results = timed(run_one, len(items))
    for i, res in enumerate(results):
        res["report"] = None
        with contextlib.suppress(FileNotFoundError), open(f"report-{i}.txt") as fh:
            res["report"] = summarize(fh.read())
    return results


PASSES = {"class-sweep": sweep_pass, "shortcut-batch": batch_pass}


def main(argv):
    mode = argv[0]
    if mode == "cli":
        tracer = Tracer()
        tracer.install()
        try:
            return cli.main(argv[2:])
        finally:
            tracer.write(argv[1])
    with open(argv[1]) as fh:
        plan = json.load(fh)
    tracer = None
    if plan.get("spans"):
        tracer = Tracer()
        tracer.install()
    items = plan["items"]
    built = build_inputs(items)
    if mode == "setup":
        return 0
    run_pass = PASSES[plan["workload"]]
    walls = []
    t_first = perf_counter()
    # one JSON line per pass, written as it ends, so that memory does not
    # grow with the number of passes
    with open(argv[2], "w") as fh:
        while not walls or another_pass_fits(
                perf_counter() - t_first, walls, plan["seconds"]):
            cohomology.clear_cache()   # every pass starts cold and does the same work
            t0 = perf_counter()
            results = run_pass(items, built)
            walls.append(perf_counter() - t0)
            fh.write(json.dumps({"items": results}) + "\n")
    if tracer is not None:
        tracer.write(plan["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
