"""End-to-end and per-layer benchmark of the stacky-brauer pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see catalog.py and BENCHMARK.json for why each one exists):

    class-sweep      brauer_report(..., verify=True) over every extension class
                     with |G| * r <= 10, in one long-lived process
    cohomology-cold  `stacky-brauer cohomology`, one fresh process per query
    shortcut-batch   cli.main(["brauer", ...]) over 200 smooth and coprime
                     documents, in one long-lived process

A pass runs every item of the workload once.  Whole passes are repeated
while the next one should end within S seconds; there is at least one.
The package is imported from the checkout's src/ only, and sees nothing
but the generated documents, tables and cocycle files, written under
.perfbench_work/ and removed afterwards.  Every item is checked outside
the timed region (catalog.check_item).  The benchmark and its children
run on one CPU, one process at a time.

A pass's wall time is the sum of its items' times.  Each item's time, and
each set-up child's, is corrected for the host's speed (speed.py) by the
reference routine timed just before and just after it: in the worker for
the in-process workloads, in this process (on the same CPU) around each
child process otherwise.

--trace 0 prints the end-to-end metrics: wall_s (mean pass wall time),
item_p50_s and item_p90_s (nearest-rank percentiles of the item times
pooled over the run's passes), peak_rss_mb (largest ru_maxrss of a
pass's child processes, by os.wait4) and setup_s (median over
SETUP_REPEATS fresh children of starting Python, importing the package
and building the inputs).

--trace 1 runs one traced pass, whose processes (and the input generator)
carry tracer.py's wrappers, then untraced passes, and prints the
per-layer metrics of tracer.PER_LAYER for that one pass, including
trace.overhead_s = traced pass wall time - mean untraced pass wall time.
Per-layer seconds get the traced pass's speed correction.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when a result
was printed, 2 when the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from functools import lru_cache
from importlib import import_module
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HAVE_PACKAGE = (SRC / "stacky_brauer" / "__init__.py").is_file()
sys.path[:0] = [str(SRC), str(BENCH)]
if HAVE_PACKAGE:
    import catalog
    import speed
    import tracer
SETUP_REPEATS = 9
PROBE_REPS = 5         # reference runs per probe around a CLI process
RUN_LIMIT_S = 160      # children still running this long into the run are killed
END_TO_END = (("wall_s", "s"), ("item_p50_s", "s"), ("item_p90_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))
IN_PROCESS = ("class-sweep", "shortcut-batch")


def percentile(values, q):
    """Nearest-rank percentile: always one of the measured values."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


class Runner:
    """Spawns the benchmark's child processes inside one work directory."""

    def __init__(self, workload, work, started):
        self.workload = workload
        self.work = work
        self.deadline = started + RUN_LIMIT_S
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))

    def spawn(self, argv, log):
        """Run a child to completion; returns (exit code, seconds, peak RSS MB, killed)."""
        with open(self.work / log, "wb") as out:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=out)
            timer = threading.Timer(max(self.deadline - perf_counter(), 0.0), proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - t0
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        timer.join()
        killed = os.WIFSIGNALED(status)
        return proc.returncode, elapsed, usage.ru_maxrss / 1024.0, killed

    def read(self, name):
        try:
            return (self.work / name).read_text()
        except FileNotFoundError:
            return None

    def setup_time(self, plan):
        """Median corrected time of SETUP_REPEATS set-up-only children."""
        times = []
        before = speed.probe(PROBE_REPS)
        for _ in range(SETUP_REPEATS):
            code, elapsed, _, _ = self.spawn(
                [sys.executable, str(BENCH / "child.py"), "setup", plan], "setup.log")
            if code != 0:
                raise RuntimeError("set-up child failed:\n" + (self.read("setup.log") or ""))
            after = speed.probe(PROBE_REPS)
            times.append(elapsed * speed.scale(before, after))
            before = after
        return statistics.median(times)

    def cli_pass(self, items, span_prefix=None):
        """One fresh CLI process per item; returns (pass, span files)."""
        outcomes, spans, peak = [], [], 0.0
        for i in range(len(items)):
            (self.work / f"report-{i}.txt").unlink(missing_ok=True)
        before = speed.probe(PROBE_REPS)
        for i, item in enumerate(items):
            argv = catalog.report_argv(item, f"report-{i}.txt")
            if span_prefix is None:
                cmd = [sys.executable, "-m", "stacky_brauer", *argv]
            else:
                spans.append(f"{span_prefix}-{i}.json")
                cmd = [sys.executable, str(BENCH / "child.py"), "cli", spans[-1], *argv]
            code, elapsed, mb, killed = self.spawn(cmd, f"output-{i}.txt")
            after = speed.probe(PROBE_REPS)
            peak = max(peak, mb)
            outcomes.append({"t": elapsed, "tc": elapsed * speed.scale(before, after),
                             "exit": code,
                             "error": "killed at the run's time limit" if killed else ""})
            before = after
        for i, out in enumerate(outcomes):
            out["report"] = catalog.summarize(self.read(f"report-{i}.txt"))
            out["error"] += self.read(f"output-{i}.txt") or ""
        return {"items": outcomes, "rss_mb": peak}, spans

    def inproc_passes(self, items, seconds, spans=None):
        """One long-lived child running passes; returns the passes."""
        plan = {"workload": self.workload, "items": items, "seconds": seconds,
                "spans": spans}
        (self.work / "run-plan.json").write_text(json.dumps(plan))
        (self.work / "result.json").unlink(missing_ok=True)
        code, _, mb, killed = self.spawn(
            [sys.executable, str(BENCH / "child.py"), "inproc", "run-plan.json",
             "result.json"], "inproc.log")
        result = self.read("result.json")
        if code != 0 or result is None:
            why = "killed at the run's time limit" if killed else (self.read("inproc.log") or "")
            return [{"items": [{"t": 0.0, "tc": 0.0, "exit": code, "error": why}
                               for _ in items], "rss_mb": mb}]
        passes = [json.loads(line) for line in result.splitlines()]
        for p in passes:
            p["rss_mb"] = mb
        return passes


def measure(runner, items, seconds, traced):
    """Run passes; returns (passes, span files).

    A pass is {"items": outcomes, "rss_mb": peak RSS}.  A traced
    measurement is one pass whose processes record spans."""
    if traced:
        seconds = 0
    if runner.workload in IN_PROCESS:
        spans = "spans-inproc.json" if traced else None
        return runner.inproc_passes(items, seconds, spans), [spans] if traced else []
    passes, span_files, walls = [], [], []
    t_first = perf_counter()
    while not passes or (perf_counter() < runner.deadline and catalog.another_pass_fits(
            perf_counter() - t_first, walls, seconds)):
        t0 = perf_counter()
        one, spans = runner.cli_pass(items, "spans-cli" if traced else None)
        walls.append(perf_counter() - t0)
        passes.append(one)
        span_files += spans
    return passes, span_files


def pass_walls(passes, key="tc"):
    return [sum(o[key] for o in p["items"]) for p in passes]


@lru_cache(maxsize=None)
def smooth_oracle(genus, orders, r):
    oracle = import_module("stacky_brauer.oracle")
    return str(oracle.brute_hom_from_presentation(genus, orders, r))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    if not HAVE_PACKAGE:
        print(f"error: no package to benchmark at {SRC / 'stacky_brauer'}", file=sys.stderr)
        return 2
    if args.workload not in catalog.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(catalog.WORKLOADS)}")
    expected = json.loads((BENCH / "expected.json").read_text())["reports"]
    # children inherit the CPU: one core, one process at a time
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work, started, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


def run(args, work, started, expected):
    runner = Runner(args.workload, work, started)
    gen_tracer = tracer.Tracer() if args.trace else None
    if gen_tracer:
        gen_tracer.install()
    try:
        inputs = catalog.generate(args.workload, args.seed)
    finally:
        if gen_tracer:
            gen_tracer.uninstall()
    for name, text in inputs.files.items():
        (work / name).write_text(text)
    items = inputs.items
    (work / "setup-plan.json").write_text(json.dumps({"items": items}))

    metrics = {}
    if args.trace:
        t0 = perf_counter()
        traced, span_files = measure(runner, items, args.seconds, True)
        rest = args.seconds - (perf_counter() - t0)
        passes, _ = measure(runner, items, rest, False)
        span_lists = [gen_tracer.spans] + [
            json.loads(runner.read(name) or "[]") for name in span_files]
        values = tracer.aggregate(span_lists)
        raw, corrected = pass_walls(traced, "t")[0], pass_walls(traced)[0]
        factor = corrected / raw if raw else 1.0
        for name in values:
            if name.endswith("_s"):
                values[name] *= factor
        values["trace.traced_wall_s"] = corrected
        values["trace.overhead_s"] = corrected - statistics.fmean(pass_walls(passes))
        for name, unit, _ in tracer.PER_LAYER:
            metrics[name] = {"value": values[name], "unit": unit}
        passes = traced + passes
    else:
        setup_s = runner.setup_time("setup-plan.json")
        passes, _ = measure(runner, items, args.seconds, False)
        times = [o["tc"] for p in passes for o in p["items"]]
        values = {"wall_s": statistics.fmean(pass_walls(passes)),
                  "item_p50_s": percentile(times, 0.50),
                  "item_p90_s": percentile(times, 0.90),
                  "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
                  "setup_s": setup_s}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}

    failures = []
    outcomes = [o for p in passes for o in p["items"]]
    for i, out in enumerate(outcomes):
        item = items[i % len(items)]
        why = catalog.check_item(item, out, expected, smooth_oracle)
        if why:
            failures.append(f"{item['key']}: {why}")
    for line in failures[:10]:
        print("FAILED " + line, file=sys.stderr)

    attempted = len(outcomes)
    print(f"workload = {args.workload}  seed = {args.seed}  trace = {args.trace}  "
          f"passes = {len(passes)}  items per pass = {len(items)}")
    print("pass wall times, measured = "
          + " ".join(f"{w:.3f}" for w in pass_walls(passes, "t"))
          + " s; corrected = " + " ".join(f"{w:.3f}" for w in pass_walls(passes)) + " s")
    print(f"attempted = {attempted}  failed = {len(failures)}  "
          f"failed_frac = {len(failures) / attempted:.4f}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
