"""Self-tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import catalog  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def expected_hashes():
    return json.loads((BENCH / "expected.json").read_text())["reports"]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_same_inputs(self):
        for workload in catalog.WORKLOADS:
            a, b = catalog.generate(workload, 11), catalog.generate(workload, 11)
            self.assertEqual(a.files, b.files, workload)
            self.assertEqual(json.dumps(a.items), json.dumps(b.items), workload)

    def test_seed_changes_inputs(self):
        for workload in catalog.WORKLOADS:
            a, b = catalog.generate(workload, 1), catalog.generate(workload, 2)
            self.assertNotEqual(json.dumps(a.items), json.dumps(b.items), workload)

    def test_every_generated_item_has_a_recorded_hash(self):
        keys = set(expected_hashes())
        for seed in range(20):
            for workload in catalog.WORKLOADS:
                for item in catalog.generate(workload, seed).items:
                    self.assertIn(item["key"], keys)


class GateTest(unittest.TestCase):
    """check_item accepts a real report and flags each kind of wrong one."""

    @classmethod
    def setUpClass(cls):
        inputs = catalog.Inputs()
        inputs.add_smooth(1, 2, (2, 4))
        cls.item = inputs.items[0]
        work = ROOT / ".perfbench_work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                for name, text in inputs.files.items():
                    Path(name).write_text(text)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = catalog.cli.main(catalog.report_argv(cls.item, "r.txt"))
                report = Path("r.txt").read_text()
            finally:
                os.chdir(cwd)
        with contextlib.suppress(OSError):
            work.rmdir()
        cls.text = report
        cls.outcome = {"exit": code, "report": catalog.summarize(report), "error": ""}

    def check(self, outcome, expected=None, item=None):
        return catalog.check_item(item or self.item, outcome,
                                  expected or expected_hashes(), run.smooth_oracle)

    def test_correct_report_passes(self):
        self.assertEqual(self.check(self.outcome), "")

    def test_wrong_value_is_flagged_even_with_a_matching_hash(self):
        wrong = self.text.replace("result = Z/2 + Z/2 + Z/2", "result = Z/2 + Z/2")
        self.assertNotEqual(wrong, self.text)
        rehashed = {self.item["key"]: catalog.sha256_hex(wrong.encode())}
        why = self.check(dict(self.outcome, report=catalog.summarize(wrong)),
                         expected=rehashed)
        self.assertIn("oracle", why)

    def test_wrong_closed_form_is_flagged(self):
        item = dict(self.item, want="Z/4")
        del item["smooth"]
        self.assertIn("want Z/4", self.check(self.outcome, item=item))

    def test_changed_bytes_are_flagged(self):
        changed = dict(self.outcome, report=catalog.summarize(self.text + "\n"))
        self.assertIn("recorded hash", self.check(changed))

    def test_wrong_exit_code_and_traceback_are_flagged(self):
        self.assertIn("exit", self.check(dict(self.outcome, exit=1)))
        crash = dict(self.outcome, error="Traceback (most recent call last):\nBoom\n")
        self.assertIn("traceback", self.check(crash))


class MetricTest(unittest.TestCase):
    def test_names_are_well_formed_and_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [n for n, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(tracer.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(catalog.WORKLOADS))

    def test_self_time_subtracts_child_spans(self):
        spans = [[0, -1, "curves.brauer_report", 0.0, 10.0, {"branch": "coprime"}],
                 [1, 0, "fibers.analyze_fiber", 1.0, 7.0, None],
                 [2, 1, "fibers.h3_inflation_injective", 2.0, 6.0, None],
                 [3, 2, "cohomology.cohomology", 2.0, 3.0, {"miss": 1, "entries": 1}],
                 [4, 2, "cohomology.cohomology", 3.0, 3.5, {"miss": 0, "entries": 1}]]
        got = tracer.aggregate([spans])
        self.assertAlmostEqual(got["curves.brauer_report.self_s"], 4.0)
        self.assertAlmostEqual(got["fibers.analyze_fiber.self_s"], 2.0)
        self.assertAlmostEqual(got["fibers.h3_inflation_injective.total_s"], 4.0)
        self.assertEqual(got["cohomology.cohomology.cache_hits"], 1)
        self.assertEqual(got["cohomology.cohomology.cache_misses"], 1)
        self.assertEqual(got["curves.branch.coprime"], 1)
        self.assertEqual(set(got), {n for n, _, _ in tracer.PER_LAYER
                                    if not n.startswith("trace.")})


if __name__ == "__main__":
    unittest.main()
