"""The package imports only the standard library and itself, and every
name a module exports in __all__ exists."""

import ast
import sys
from importlib import import_module
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stacky_brauer"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_every_import_is_stdlib_or_the_package():
    assert MODULES
    foreign = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "stacky_brauer" and top not in sys.stdlib_module_names:
                    foreign.append((path.name, node.lineno, name))
    assert not foreign, foreign


def test_every_exported_name_resolves():
    missing = []
    for path in MODULES:
        if path.stem == "__main__":
            continue          # importing it runs the command line
        module = import_module("stacky_brauer" if path.stem == "__init__"
                               else f"stacky_brauer.{path.stem}")
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                missing.append((path.stem, name))
    assert not missing, missing


def test_report_path_stays_off_the_bar_homology():
    # homology_Z and _kernel_trivial_by_homology are the tests' bar oracle
    oracle = {"homology_Z", "_kernel_trivial_by_homology"}
    found = []
    for stem in ("curves", "fibers", "cli"):
        path = PACKAGE / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in oracle:
                found.append((stem, name))
    assert not found, found
