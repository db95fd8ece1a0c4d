"""The package imports only the standard library and itself, and every
name a module exports in __all__ exists."""

import ast
import os
import subprocess
import sys
import textwrap
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


def test_no_module_imports_dataclasses():
    # each @dataclass compiles and execs generated methods at import, and
    # importing dataclasses itself loads inspect, ast, dis and tokenize
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                found.append((path.name, node.lineno))
    assert not found, found


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


def test_engine_holds_no_bar_homology():
    # the bar homology is the tests' oracle and lives in oracle.py
    oracle = {"homology_Z", "_kernel_trivial_by_homology"}
    path = PACKAGE / "cohomology.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if name in oracle:
            found.append((node.lineno, name))
    assert not found, found


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


def test_free_resolution_eliminates_with_its_own_echelon():
    # each boundary is eliminated once, into FreeResolution.echelon, on the
    # columns the greedy formed: smith_normal_form or kernel_basis would
    # eliminate the same matrix a second time, and from_columns or a
    # z_boundary would form it again as an IntegerMatrix
    path = PACKAGE / "cohomology.py"
    tree = ast.parse(path.read_text(), str(path))
    cls, = [node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "FreeResolution"]
    found = []
    for node in ast.walk(cls):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.FunctionDef) else None)
        if name in ("smith_normal_form", "kernel_basis", "from_columns", "z_boundary"):
            found.append((node.lineno, name))
    assert not found, found


def test_cohomology_command_loads_only_what_it_runs():
    # every cohomology-only process would otherwise compile the report path,
    # or the standard modules that dataclasses loads; -S keeps site's hooks
    # from loading modules the command does not
    probe = ("import sys; from stacky_brauer.cli import main; main(sys.argv[1:]); "
             "print(*sorted(m for m in sys.modules if m.startswith('stacky_brauer.')"
             " or m in ('dataclasses', 'inspect')))")
    lazy = {"stacky_brauer.curves", "stacky_brauer.fibers", "stacky_brauer.oracle",
            "dataclasses", "inspect"}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    for flags, expected in (((), set()), (("--verify",), {"stacky_brauer.oracle"})):
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe, "cohomology", "cyclic:4", "2", "Z", *flags],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        value, loaded = proc.stdout.splitlines()
        assert value == "Z/4"
        assert lazy & set(loaded.split()) == expected, flags


def test_readme_library_tour_runs_as_written():
    # a fresh process: in this one earlier tests may already have bound the
    # lazy names on the package, which would hide a star import that misses
    # them
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour\n\n```python\n", 1)[1].split("```", 1)[0]
    probe = textwrap.dedent("""\
        import ast, sys
        tour, ns = sys.stdin.read(), {}
        for node in ast.parse(tour).body:
            if isinstance(node, ast.Expr):
                value = eval(compile(ast.Expression(node.value), "tour", "eval"), ns)
                print(node.lineno, value)
            else:
                exec(compile(ast.Module([node], []), "tour", "exec"), ns)
        """)
    proc = subprocess.run([sys.executable, "-c", probe], input=tour,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # each expression prints what its comment says, up to a remark in ( )
    lines = tour.splitlines()
    expected = [f"{node.lineno} {lines[node.lineno - 1].split('# ', 1)[1].split(' (')[0]}"
                for node in ast.parse(tour).body if isinstance(node, ast.Expr)]
    assert len(expected) == 4
    assert proc.stdout.splitlines() == expected
