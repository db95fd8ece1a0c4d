"""Command-line interface: the two commands and their stable reports.

Input format is a line-oriented sectioned key=value text file:

    [curve]
    smooth = false
    proper = true
    genus = 0
    characteristic = 0
    h1_stack = 0            # invariant factors, comma separated; 0 = trivial
    [gerbe]
    r = 2
    [point.node]
    group = semidirect_z2:4:3
    singular = true
    extension = split

Group specs: cyclic:<n>, product:<spec>*<spec>, semidirect_z2:<n>:<a>,
table:<path>.  Extension specs: split or cocycle:<path>.  The machine
report is a flat key = value document with a format-version key, byte
stable for identical inputs.  The documents and the brauer report are
read and written by documents.py, which loads on the first brauer run.
"""

from __future__ import annotations

import argparse
import contextlib
import contextvars
import functools
import io
import os
import sys
from importlib import import_module

from .abelian import set_resource_cap
from .cohomology import (
    INTEGERS,
    UNITS,
    cohomology,
    mod_coefficients,
)
from .errors import (
    InputFormatError,
    InvariantViolationError,
    MissingDataError,
    ResourceCapError,
    StackyBrauerError,
    ValidationError,
)
from .groups import (
    FiniteGroup,
    check_group_order,
    cyclic,
    direct_product,
    semidirect_cyclic_by_z2,
)

FORMAT_VERSION = "1"

# The brauer command's names, served from here on first use (PEP 562):
# every name documents defines (input documents and the machine report),
# central_extension and brauer_report, so a cohomology command compiles
# none of them.  perfbench's tracer patches parse_input,
# build_report_lines, central_extension and brauer_report on this module:
# run_brauer reads the first two off it and InputDocument.curve_spec the
# third; run_brauer calls curves.brauer_report, which the tracer patches
# as well.
_SERVED = dict.fromkeys((
    "InputDocument", "PointSection", "_KEYS", "_factors_text", "_flag_text",
    "_group_text", "_parse_bool", "_parse_extension", "_parse_factors",
    "_parse_modulus", "build_report_lines", "load_cocycle", "parse_input",
), "documents") | {"central_extension": "extensions", "brauer_report": "curves"}


def __getattr__(name):
    module = _SERVED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __package__), name)
    return value


def _parse_int(text: str, line: int, key: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise InputFormatError(f"key {key!r} expects an integer, got {text!r}", line)


def load_group_table(path: str) -> FiniteGroup:
    """Group table file: first line `order n`, then n rows of n indices;
    the identity must be index 0."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read group table {path!r}: {exc}")
    if not lines or not lines[0].startswith("order"):
        raise InputFormatError(f"group table {path!r} must start with 'order n'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise InputFormatError(f"bad order line in {path!r}")
    check_group_order(n)
    if len(lines) != n + 1:
        raise InputFormatError(f"group table {path!r} needs {n} rows")
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([int(tok) for tok in ln.split()])
        except ValueError:
            raise InputFormatError(f"bad table row in {path!r}")
    G = FiniteGroup(rows)
    if G.identity != 0:
        raise InputFormatError(f"group table {path!r}: identity must be index 0")
    return G


def parse_group_spec(spec: str, line: int = None) -> FiniteGroup:
    spec = spec.strip()
    if spec.startswith("cyclic:"):
        return cyclic(_parse_int(spec[len("cyclic:"):], line, "cyclic order"))
    if spec.startswith("semidirect_z2:"):
        body = spec[len("semidirect_z2:"):]
        parts = body.split(":")
        if len(parts) != 2:
            raise InputFormatError(f"bad semidirect spec {spec!r}", line)
        try:
            return semidirect_cyclic_by_z2(_parse_int(parts[0], line, "semidirect order"),
                                           _parse_int(parts[1], line, "semidirect action"))
        except ValidationError as exc:
            raise InputFormatError(str(exc), line)
    if spec.startswith("table:"):
        return load_group_table(spec[len("table:"):])
    if spec.startswith("product:"):
        body = spec[len("product:"):]
        # split at the leftmost '*' where both sides parse
        positions = [i for i, ch in enumerate(body) if ch == "*"]
        for i in positions:
            left, right = body[:i], body[i + 1:]
            try:
                return direct_product(parse_group_spec(left, line),
                                      parse_group_spec(right, line))
            except InputFormatError:
                continue
        raise InputFormatError(f"bad product spec {spec!r}", line)
    raise InputFormatError(f"unknown group spec {spec!r}", line)


# ---------------------------------------------------------------------------
# Reports


def _sha256_text(text) -> str:
    """The sha256 of text's UTF-8 encoding, or of raw bytes as they are."""
    import hashlib     # only a report needs it

    return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()


def build_error_lines(input_text: str, code: str, message: str):
    return [
        f"format-version = {FORMAT_VERSION}",
        f"input-sha256 = {_sha256_text(input_text)}",
        "status = error",
        f"error-code = {code}",
        f"error-message = {message}",
    ]


def _write_report(path, lines) -> bool:
    """Write the machine report, if asked; False (reported on stderr) if it cannot.

    A regular file (or a path that does not exist yet) is written
    atomically: the report goes to a temporary file beside the file the
    path resolves to, which then replaces it (os.replace), so the target
    holds either its old contents or the whole new report, and a symlink
    stays a symlink.  Anything else (a device, a FIFO) is written through
    directly.  On failure the temporary file is removed and the error names
    the given path.
    """
    if not path:
        return True
    text = "\n".join(lines) + "\n"
    target = os.path.realpath(path)
    tmp = None
    try:
        if os.path.isfile(target) or not os.path.lexists(target):
            tmp = f"{target}.{os.getpid()}.tmp"
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, target)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        print(f"error: cannot write report: {OSError(exc.errno, exc.strerror, path)}",
              file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# Commands


def _fail(report_path, input_text: str, exc: StackyBrauerError) -> int:
    """Write the error report and the stderr line for a failed run; exit code 1."""
    code = (exc.code if isinstance(exc, MissingDataError)
            else "resource-cap" if isinstance(exc, ResourceCapError)
            else "parse" if isinstance(exc, InputFormatError)
            else "validation")
    _write_report(report_path, build_error_lines(input_text, code, str(exc)))
    print("error:", exc, file=sys.stderr)
    return 1


def _set_cap(args) -> None:
    """Apply --max-entries; a cap below 1 is refused (ValidationError), and
    the command reports it like its other errors."""
    if args.max_entries is not None:
        set_resource_cap(args.max_entries)


def run_brauer(args) -> int:
    from .curves import CurveSpec, brauer_report
    from .documents import _flag_text

    cli = sys.modules[__name__]     # where the tracer patches the document names

    try:
        with open(args.input, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1
    try:
        input_text = io.TextIOWrapper(io.BytesIO(raw)).read()   # as open() reads it
    except UnicodeDecodeError as exc:
        return _fail(args.report, raw, InputFormatError(f"cannot read input: {exc}"))
    try:
        _set_cap(args)
        doc = cli.parse_input(input_text)
        curve = doc.spec
        if args.char is not None:
            # the same checks a fresh build runs: CurveSpec validates the
            # characteristic, the points it holds were validated already
            doc.characteristic = args.char
            curve = CurveSpec(
                curve.smooth, curve.proper, curve.points, curve.coarse_genus,
                args.char, curve.connected, curve.h1_stack_override,
                curve.h1_coarse_override)
        report = brauer_report(curve, doc.r, verify=args.verify)
    except StackyBrauerError as exc:
        return _fail(args.report, input_text, exc)

    if not _write_report(args.report, cli.build_report_lines(doc, report, input_text)):
        return 1

    res = report.result
    print(f"mu_{doc.r}-gerbe on a {'smooth' if doc.smooth else 'singular'} "
          f"stacky curve with {len(report.fibers)} marked point(s)")
    print(f"  left term  (+)H^2(G_i,kx) : {report.left_term}")
    print(f"  right term H^1(C, Z/{doc.r})  : {report.right_term} "
          f"[{report.right_term_source}]")
    print(f"  root gerbe: {_flag_text(report.is_root_gerbe)}   "
          f"right-exact: {_flag_text(report.right_exact)}   "
          f"splitting: {report.splitting}")
    if res.status == "determined":
        print(f"  Brauer group: {res.value}")
        return 0
    print(f"  partial: {res.subgroup} <= Br, Br/{res.subgroup} "
          f"{'=' if res.quotient_exact else '<='} {res.quotient_bound}")
    return 2


def parse_coefficients(spec: str):
    spec = spec.strip()
    if spec == "Z":
        return INTEGERS
    if spec == "units" or spec == "kx":
        return UNITS
    if spec.startswith("Z/"):
        try:
            return mod_coefficients(int(spec[2:]))
        except ValueError:
            pass
    raise InputFormatError(f"unknown coefficient spec {spec!r} "
                           "(use Z, Z/<m>, or units)")


def run_cohomology(args) -> int:
    # an error report's input-sha256 hashes the three arguments, space-joined
    query = f"{args.group} {args.degree} {args.coefficients}"
    try:
        _set_cap(args)
        G = parse_group_spec(args.group)
        degree = _parse_int(args.degree, None, "degree")
        coeff = parse_coefficients(args.coefficients)
        char = args.char if args.char is not None else 0
        result = cohomology(G, degree, coeff, characteristic=char)
        lines = [
            f"format-version = {FORMAT_VERSION}",
            "status = determined",
            f"group = {args.group}",
            f"group-order = {G.order}",
            f"degree = {degree}",
            f"coefficients = {coeff}",
            f"value = {result.value}",
        ]
        if args.verify:
            from .oracle import cyclic_closed_form, full_bar_cohomology

            # build the classes off the bar complex: their quotient must
            # equal the value, or InvariantViolationError
            result.subquotient.classes()
            mismatches = []
            try:
                fb = full_bar_cohomology(G, degree, coeff)
            except ResourceCapError:
                pass           # beyond the oracle's own cap: no full-bar check
            else:
                if fb.value != result.value:
                    mismatches.append(f"full-bar gave {fb.value}")
                lines.append(f"verify.full-bar = {fb.value}")
            if G.is_cyclic:
                cf = cyclic_closed_form(G.order, degree, coeff)
                if cf.value != result.value:
                    mismatches.append(f"closed form gave {cf.value}")
                lines.append(f"verify.closed-form = {cf.value}")
            if mismatches:
                raise InvariantViolationError(
                    "oracle mismatch: " + "; ".join(mismatches))
            lines.append("verify.status = ok")
    except StackyBrauerError as exc:
        return _fail(args.report, query, exc)

    if not _write_report(args.report, lines):
        return 1
    print(result.value)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and then reused:
    parse_args does not change it."""
    parser = argparse.ArgumentParser(
        prog="stacky-brauer",
        description="Brauer groups of mu_r-gerbes on tame stacky curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p_brauer = sub.add_parser("brauer", help="run the full Brauer-group pipeline")
    p_brauer.add_argument("--input", required=True, help="input document path")
    p_brauer.add_argument("--report", help="write the machine report here")
    p_brauer.add_argument("--max-entries", type=int, default=None,
                          help="resource cap override (matrix entry budget)")
    p_brauer.add_argument("--char", type=int, default=None,
                          help="base field characteristic override")
    p_brauer.add_argument("--verify", action="store_true",
                          help="no extra checks: both root-gerbe detectors "
                               "always run and are cross-asserted")

    p_coh = sub.add_parser("cohomology", help="compute one cohomology group")
    p_coh.add_argument("group", help="group spec, e.g. cyclic:6 or semidirect_z2:4:3")
    p_coh.add_argument("degree")
    p_coh.add_argument("coefficients", help="Z, Z/<m>, or units")
    p_coh.add_argument("--report", help="write the machine report here")
    p_coh.add_argument("--max-entries", type=int, default=None)
    p_coh.add_argument("--char", type=int, default=None)
    p_coh.add_argument("--verify", action="store_true",
                       help="build the classes off the bar complex, which must "
                            "give the value, and compare the value with the "
                            "full-bar oracle (within its budget) and, for a "
                            "cyclic group, the closed form")

    return parser


def main(argv=None) -> int:
    """Run one command; callable repeatedly in one process.

    The command runs in a copy of the caller's context, so --max-entries
    (a context variable, abelian.set_resource_cap) ends with the call.
    """
    args = _parser().parse_args(argv)
    return contextvars.copy_context().run(_run, args)


def _run(args) -> int:
    if args.command == "brauer":
        return run_brauer(args)
    return run_cohomology(args)


if __name__ == "__main__":
    sys.exit(main())
