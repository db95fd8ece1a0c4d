"""The package imports only the standard library and itself, and every
name a module exports in __all__ exists."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import textwrap
from importlib import import_module
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stacky_brauer"
MODULES = sorted(PACKAGE.glob("*.py"))
TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"

# (module, attribute) pairs the tests replace to count calls, beside the
# benchmark tracer's PATCHES
TEST_PATCHES = (("cohomology", "finite_homology_at"), ("abelian", "_replay_rows"),
                ("curves", "split_extension"))


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


def _names_in(tree):
    """Every name, attribute, imported name and string constant of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_one_memo_holds_every_cached_value():
    # abelian.memo's store and lock are named only where they live, and in
    # cohomology, whose _CACHE perfbench's tracer and the tests read
    allowed = {"_CACHE_LOCK": {"abelian.py"}, "_CACHE": {"abelian.py", "cohomology.py"},
               "_EXTENSIONS": set()}
    found = {name: set() for name in allowed}
    for path in MODULES:
        for name in _names_in(ast.parse(path.read_text(), str(path))):
            if name in found:
                found[name].add(path.name)
    assert all(found[name] <= allowed[name] for name in allowed), found
    abelian = import_module("stacky_brauer.abelian")
    assert import_module("stacky_brauer.cohomology")._CACHE is abelian._CACHE
    assert list(inspect.signature(abelian.memo).parameters) == ["key", "build"]


def test_engine_holds_no_bar_homology():
    # the bar homology and the bar Bockstein are the tests' oracle and live
    # in oracle.py
    oracle = {"homology_Z", "_kernel_trivial_by_homology", "bockstein"}
    found = []
    for stem in ("cohomology", "cohomology_maps"):
        path = PACKAGE / f"{stem}.py"
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
                found.append((stem, node.lineno, name))
    assert not found, found


def _patch_points() -> dict:
    """attribute -> the modules on which the tracer or a test replaces it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    points = {}
    for module, attr in [(m, a) for m, a, _ in tracer.PATCHES] + list(TEST_PATCHES):
        points.setdefault(attr, set()).add(module)
    return points


def _module_aliases(tree) -> dict:
    """Local names bound to a module of the package: `from . import X [as Y]`
    and `Y = import_module(".X", __package__)` (or "stacky_brauer.X")."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Name)
              and node.value.func.id == "import_module"
              and isinstance(node.value.args[0], ast.Constant)):
            module = node.value.args[0].value.rpartition(".")[2]
            for target in node.targets:
                aliases[target.id] = module
    return aliases


def _calls_around_patches(stem: str, source: str, points: dict) -> list:
    """Calls to a patched name that the patch does not see: a bare call
    outside a module patched for it, or a call on another module object."""
    tree = ast.parse(source)
    aliases = _module_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in points:
            name, where = func.id, stem
        elif (isinstance(func, ast.Attribute) and func.attr in points
              and isinstance(func.value, ast.Name) and func.value.id in aliases):
            name, where = func.attr, aliases[func.value.id]
        else:
            continue          # a method of some object, not a module's function
        if where not in points[name]:
            found.append((stem, node.lineno, ast.unparse(func)))
    return found


def test_patched_calls_go_through_the_patched_namespace():
    # the tracer and the tests replace these names on a module object; a
    # call that reads the name from anywhere else would bypass them
    points = _patch_points()
    probe = textwrap.dedent("""\
        from importlib import import_module
        from . import abelian
        _coh = import_module(".cohomology", __package__)
        bar_differential(G, 1)
        abelian.homology_at(d_out, d_in)
        _coh.bar_differential(G, 1)
        _coh.finite_homology_at(d_out, d_in)
        abelian._replay_rows(ops)
        solver.cokernel()
        """)
    assert [line for _, line, _ in _calls_around_patches("cohomology_maps", probe, points)] \
        == [4, 5]
    found = []
    for path in MODULES:
        if path.stem != "oracle":     # the oracle's routes are not traced
            found += _calls_around_patches(path.stem, path.read_text(), points)
    assert not found, found


def _names_used(stem):
    """Every name a module reads, binds, imports or takes an attribute by."""
    path = PACKAGE / f"{stem}.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_report_path_stays_off_the_bar_homology():
    # homology_Z, _kernel_trivial_by_homology and bockstein are the tests'
    # bar oracle
    oracle = {"homology_Z", "_kernel_trivial_by_homology", "bockstein"}
    found = [(stem, name) for stem in ("curves", "fibers", "cli")
             for name in _names_used(stem) if name in oracle]
    assert not found, found


def test_report_path_decides_on_canonical_forms():
    # the left kernel, the left image and the splitting criterion are read
    # off canonical forms: no kernel lattice is built, and no Bockstein
    # class is rebuilt as a class of the bar complex
    machinery = {"_CycleSolver", "_map_solver", "_kills_only_relations", "CohomologyClass"}
    found = [(stem, name) for stem in ("curves", "fibers")
             for name in _names_used(stem) if name in machinery]
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


def _package_env() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}


def test_cohomology_command_loads_only_what_it_runs():
    # a cold process compiles every module it loads: without --verify the
    # value path alone, not the report path, the class and map side, or the
    # standard modules that dataclasses loads; -S keeps site's hooks from
    # loading modules the command does not.  Nor does cli or groups bind
    # the names they serve from documents and extensions.
    values = {"stacky_brauer"} | {f"stacky_brauer.{stem}" for stem in (
        "abelian", "cli", "cohomology", "errors", "groups", "records")}
    verify = {f"stacky_brauer.{stem}" for stem in ("oracle", "abelian_maps", "cohomology_maps")}
    for flags, expected in (((), values), (("--verify",), values | verify)):
        loaded, bound, out = _run_command(["cohomology", "cyclic:4", "2", "Z", *flags])
        assert out == "Z/4"
        assert loaded == expected, flags
        assert bound == {"parse_input": False, "Cocycle2": False}, flags


def test_brauer_command_loads_documents_and_extensions(tmp_path):
    # the brauer side: the documents and the extensions they build, and the
    # pipeline behind them, but not the tests' oracle; run_brauer reads
    # parse_input off cli, which binds it there
    inp = tmp_path / "node.txt"
    inp.write_text("[curve]\nsmooth = false\nproper = true\nh1_stack = 0\n[gerbe]\nr = 2\n"
                   "[point.node]\ngroup = semidirect_z2:4:3\nsingular = true\n")
    loaded, bound, out = _run_command(["brauer", "--input", str(inp)])
    assert "Brauer group: Z/2" in out
    assert loaded == {"stacky_brauer"} | {f"stacky_brauer.{path.stem}" for path in MODULES
                                          if path.stem not in ("__init__", "__main__", "oracle")}
    assert bound["parse_input"]


def _run_command(argv):
    """Run one command in a fresh process: the package modules it loaded,
    whether cli holds parse_input and groups Cocycle2 afterwards, and its
    standard output before those two lines."""
    probe = textwrap.dedent("""\
        import json, sys
        from stacky_brauer.cli import main
        code = main(sys.argv[1:])
        print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'stacky_brauer'
                      or m in ('dataclasses', 'inspect')))
        print(json.dumps({"parse_input": "parse_input" in vars(sys.modules["stacky_brauer.cli"]),
                          "Cocycle2": "Cocycle2" in vars(sys.modules["stacky_brauer.groups"])}))
        """)
    proc = subprocess.run([sys.executable, "-S", "-c", probe, *argv], capture_output=True,
                          text=True, timeout=60, env=_package_env())
    assert proc.returncode in (0, 2), proc.stderr
    *out, loaded, bound = proc.stdout.splitlines()
    return set(loaded.split()), json.loads(bound), "\n".join(out)


def test_package_namespace_in_a_fresh_process():
    # stacky_brauer.cohomology names the function before the class side
    # loads, after curves loads it through fibers, and after a star import
    names = textwrap.dedent("""\
        import json, sys, types
        import stacky_brauer
        fn, out = stacky_brauer.cohomology, {}
        out["function"] = isinstance(fn, types.FunctionType) and fn.__name__ == "cohomology"
        out["cold"] = sorted(m for m in sys.modules if m.endswith("_maps"))
        import stacky_brauer.curves
        out["after curves"] = stacky_brauer.cohomology is fn
        out["loaded"] = sorted(m for m in sys.modules if m.endswith("_maps"))
        exec("from stacky_brauer import *", ns := {})
        out["after star"] = ns["cohomology"] is fn and stacky_brauer.cohomology is fn
        print(json.dumps(out))
        """)
    # abelian and cohomology serve every function and class their maps
    # modules define, and each lazily served name is one object wherever it
    # is read (the tracer keys its wrappers by id()), first read through the
    # package or the module that serves it
    identity = textwrap.dedent("""\
        import json, types
        from importlib import import_module
        import stacky_brauer
        abelian = import_module("stacky_brauer.abelian")
        coh = import_module("stacky_brauer.cohomology")
        checked, differ = [], []
        def compare(name, value, *readers):
            checked.append(name)
            if any(value is not getattr(reader, name) for reader in readers):
                differ.append(name)
        for name, module in sorted(stacky_brauer._LAZY.items()):
            if module.endswith("_maps"):
                compare(name, getattr(stacky_brauer, name),
                        import_module(f"stacky_brauer.{module}"))
        maps = {"abelian": import_module("stacky_brauer.abelian_maps")}
        for name in sorted(abelian._MAPS):
            compare(name, getattr(abelian, name), maps["abelian"])
        maps["cohomology_maps"] = import_module("stacky_brauer.cohomology_maps")
        for name, module in sorted(coh._MAPS.items()):
            readers = [maps[module], abelian] if module == "abelian" else [maps[module]]
            if name in stacky_brauer._LAZY:
                readers.append(stacky_brauer)
            compare(name, getattr(coh, name), *readers)
        def defined(module):
            return {name for name, value in vars(module).items()
                    if isinstance(value, (types.FunctionType, type))
                    and value.__module__ == module.__name__}
        served = {name for name, module in coh._MAPS.items() if module == "cohomology_maps"}
        unserved = ((set(abelian._MAPS) ^ defined(maps["abelian"]))
                    | (served ^ defined(maps["cohomology_maps"])))
        print(json.dumps({"checked": len(set(checked)), "differ": differ,
                          "unserved": sorted(unserved)}))
        """)
    # cli and groups serve every name documents and extensions define (and
    # cli two more): each is one object, whether first read through the
    # package or through the module that serves it
    served = textwrap.dedent("""\
        import json, sys, types
        from importlib import import_module
        import stacky_brauer
        cli = import_module("stacky_brauer.cli")
        groups = import_module("stacky_brauer.groups")
        servers = [(cli, name, module) for name, module in sorted(cli._SERVED.items())]
        servers += [(groups, name, "extensions") for name in sorted(groups._SERVED)]
        values = {}
        def read(reader, server, name):
            values.setdefault((server.__name__, name), []).append(getattr(reader, name))
        for pass_ in ("first", "then"):
            for server, name, module in servers:
                package_now = (pass_ == "first") == (sys.argv[1] == "package")
                if not package_now:
                    read(server, server, name)
                elif name in stacky_brauer._LAZY:
                    read(stacky_brauer, server, name)
        differ = []
        for server, name, module in servers:
            defining = getattr(import_module(f"stacky_brauer.{module}"), name)
            if any(value is not defining for value in values[(server.__name__, name)]):
                differ.append(f"{server.__name__}.{name}")
        def defined(module):
            return {name for name, value in vars(module).items()
                    if isinstance(value, (types.FunctionType, type))
                    and value.__module__ == module.__name__}
        documents = {name for name, module in cli._SERVED.items() if module == "documents"}
        unserved = ((documents ^ (defined(import_module("stacky_brauer.documents")) | {"_KEYS"}))
                    | (groups._SERVED ^ defined(import_module("stacky_brauer.extensions"))))
        through_package = sum(name in stacky_brauer._LAZY for _, name, _ in servers)
        print(json.dumps({"checked": len(servers), "through package": through_package,
                          "differ": differ, "unserved": sorted(unserved)}))
        """)
    outs = []
    for probe, argv in ((names, ()), (identity, ()), (served, ("package",)),
                        (served, ("module",))):
        proc = subprocess.run([sys.executable, "-S", "-c", probe, *argv], capture_output=True,
                              text=True, timeout=60, env=_package_env())
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert outs[0] == {"function": True, "cold": [], "after curves": True,
                       "loaded": ["stacky_brauer.abelian_maps", "stacky_brauer.cohomology_maps"],
                       "after star": True}
    assert outs[1].pop("checked") > 20
    assert outs[1] == {"differ": [], "unserved": []}
    # 15 names on cli, 10 on groups; 6 of those reads are also the package's
    assert outs[2] == outs[3] == {"checked": 25, "through package": 6, "differ": [],
                                  "unserved": []}


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
