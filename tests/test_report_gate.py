"""Every report the benchmark can ask for, against its recorded bytes.

perfbench/catalog.py lists every brauer document and cohomology query any
benchmark seed can produce, and perfbench/expected.json holds the sha256
of each report.  The catalog is loaded from its file, as
test_trace_targets loads the tracer, and every item is run through
cli.main.  The same brauer documents are also reported with
force_general=True, which skips the smooth and coprime shortcuts, and those
reports are pinned by one sha256 recorded before the kernel step's inner
loops were rewritten.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from importlib import import_module
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# sha256 over "key\nreport" for each brauer document of the catalog, in
# key order, reported with force_general=True
FORCE_GENERAL_SHA256 = "47459ba1a862175a210c9f121fc1301af3ea853b79c8e3635327ccba29a7012e"


def _load_catalog():
    spec = importlib.util.spec_from_file_location("perfbench_catalog", BENCH / "catalog.py")
    catalog = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(catalog)
    return catalog


def _write_inputs(inputs, where: Path):
    for name, text in inputs.files.items():
        (where / name).write_text(text)


def test_every_catalog_report_matches_its_recorded_hash(tmp_path, monkeypatch):
    catalog = _load_catalog()
    expected = json.loads((BENCH / "expected.json").read_text())["reports"]
    inputs = catalog.catalog()
    assert len(inputs.items) == 655
    _write_inputs(inputs, tmp_path)
    monkeypatch.chdir(tmp_path)
    cli = import_module("stacky_brauer.cli")
    seen = set()
    for item in inputs.items:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(catalog.report_argv(item, "report.txt"))
        report = Path("report.txt").read_bytes()
        assert code in (0, 2), item["key"]
        assert hashlib.sha256(report).hexdigest() == expected[item["key"]], item["key"]
        seen.add(item["key"])
    assert seen == set(expected)


def force_general_digest(catalog, where: Path) -> tuple:
    """(documents, sha256) of every brauer document's force_general report."""
    cli = import_module("stacky_brauer.cli")
    curves = import_module("stacky_brauer.curves")
    inputs = catalog.catalog()
    _write_inputs(inputs, where)
    docs = {item["key"]: item["doc"] for item in inputs.items if item["kind"] == "brauer"}
    digest = hashlib.sha256()
    for key in sorted(docs):
        text = (where / docs[key]).read_text()
        doc = cli.parse_input(text)
        report = curves.brauer_report(doc.spec, doc.r, force_general=True)
        lines = cli.build_report_lines(doc, report, text)
        digest.update(f"{key}\n".encode() + ("\n".join(lines) + "\n").encode())
    return len(docs), digest.hexdigest()


def test_force_general_reports_are_pinned(tmp_path, monkeypatch):
    # cocycle files are named relative to the working directory
    monkeypatch.chdir(tmp_path)
    assert force_general_digest(_load_catalog(), tmp_path) == (640, FORCE_GENERAL_SHA256)
