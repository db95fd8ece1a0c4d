"""Record the sha256 of every report the benchmark can ask for.

    python3 perfbench/record_expected.py

Runs each catalog item (catalog.catalog(): every document and query any
seed can produce) once through stacky_brauer.cli.main and writes
perfbench/expected.json, mapping item keys to the sha256 of the report
file.  The benchmark's correctness gate compares reports against these
hashes, so re-record only at a commit whose reports are known good.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import catalog  # noqa: E402


def main():
    work = ROOT / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = catalog.catalog()
    for name, text in inputs.files.items():
        (work / name).write_text(text)
    reports = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for item in inputs.items:
            if item["key"] in reports:
                continue
            with contextlib.redirect_stdout(io.StringIO()):
                code = catalog.cli.main(catalog.report_argv(item, "report.txt"))
            if code not in (0, 2):
                raise SystemExit(f"{item['key']}: exit {code}")
            reports[item["key"]] = hashlib.sha256(Path("report.txt").read_bytes()).hexdigest()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work.parent, ignore_errors=True)
    out = {"reports": dict(sorted(reports.items()))}
    (BENCH / "expected.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"recorded {len(reports)} report hashes")


if __name__ == "__main__":
    main()
