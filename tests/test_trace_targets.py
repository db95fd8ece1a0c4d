"""Every function the benchmark's tracer wraps must still exist.

perfbench/tracer.py patches (module, attribute) pairs on the package; a
refactor that drops or renames one of them would crash a traced
benchmark run.  The tracer is loaded from its file; the second test
installs it around one brauer run and reads the spans it recorded.
"""

import importlib.util
from importlib import import_module
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_trace_targets_resolve():
    tracer = _load_tracer()
    assert tracer.PATCHES
    for mod_name, attr, _ in tracer.PATCHES:
        module = import_module(f"stacky_brauer.{mod_name}")
        assert callable(getattr(module, attr, None)), (mod_name, attr)


QUATERNION_COCYCLE = "modulus 2\n0 0 0 0\n0 1 1 0\n0 0 1 1\n0 1 0 1\n"

COCYCLE_NODE_DOC = """\
[curve]
smooth = false
proper = true
h1_stack = 0
[gerbe]
r = 2
[point.node]
group = product:cyclic:2*cyclic:2
singular = true
extension = cocycle:{path}
"""


def test_tracer_sees_the_document_side_at_runtime(tmp_path):
    # the tracer patches parse_input, build_report_lines and
    # central_extension on cli, where documents.py's code and run_brauer
    # read them; a read that missed the patch would drop its span here,
    # which no static check of the source can see
    cocycle = tmp_path / "q8.cocycle"
    cocycle.write_text(QUATERNION_COCYCLE)
    inp, rpt = tmp_path / "node.txt", tmp_path / "node.rpt"
    inp.write_text(COCYCLE_NODE_DOC.format(path=cocycle))
    cli = import_module("stacky_brauer.cli")
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        # exit 2: the Q8 node's report is partial
        assert cli.main(["brauer", "--input", str(inp), "--report", str(rpt)]) == 2
    finally:
        tracer.uninstall()
    names = [span[2] for span in tracer.spans]
    for name in ("cli.parse_input", "cli.build_report_lines", "curves.brauer_report"):
        assert names.count(name) == 1, (name, names)
    # the Q8 extension is asked for once, by the document's curve_spec
    extension, = [span for span in tracer.spans if span[2] == "groups.central_extension"]
    assert tracer.spans[extension[1]][2] == "cli.parse_input"
    assert "fiber.node.extension-order = 8" in rpt.read_text().splitlines()
