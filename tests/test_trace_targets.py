"""Every function the benchmark's tracer wraps must still exist.

perfbench/tracer.py patches (module, attribute) pairs on the package; a
refactor that drops or renames one of them would crash a traced
benchmark run.  The tracer is loaded from its file and never installed.
"""

import importlib.util
from importlib import import_module
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.PATCHES
    for mod_name, attr, _ in tracer.PATCHES:
        module = import_module(f"stacky_brauer.{mod_name}")
        assert callable(getattr(module, attr, None)), (mod_name, attr)
