"""Command-line interface: input documents, runs, and stable reports.

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
stable for identical inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, field

from .abelian import FinAbGroup, set_resource_cap
from .cohomology import (
    INTEGERS,
    UNITS,
    cohomology,
    mod_coefficients,
)
from .curves import CurveSpec, StabilizerPoint, brauer_report
from .errors import (
    InputFormatError,
    InvariantViolationError,
    MissingDataError,
    ResourceCapError,
    StackyBrauerError,
    ValidationError,
)
from .groups import (
    Cocycle2,
    FiniteGroup,
    central_extension,
    cyclic,
    direct_product,
    semidirect_cyclic_by_z2,
)
from .oracle import cyclic_closed_form, full_bar_cohomology

FORMAT_VERSION = "1"

_CURVE_KEYS = {"smooth", "proper", "connected", "genus", "characteristic",
               "h1_stack", "h1_coarse"}
_GERBE_KEYS = {"r", "coarse_class"}
_POINT_KEYS = {"group", "singular", "extension"}


@dataclass
class PointSection:
    name: str
    group_spec: str
    group: FiniteGroup
    singular: bool = False
    extension_spec: str = "split"
    cocycle: Cocycle2 = None


@dataclass
class InputDocument:
    """A parsed and semantically validated input file."""

    smooth: bool
    proper: bool
    connected: bool = True
    genus: int = None
    characteristic: int = 0
    h1_stack: FinAbGroup = None
    h1_coarse: FinAbGroup = None
    r: int = 1
    coarse_class: str = None
    points: list = field(default_factory=list)

    def curve_spec(self) -> CurveSpec:
        pts = []
        for sec in self.points:
            ext = None
            if sec.cocycle is not None:
                ext = central_extension(sec.group, self.r, sec.cocycle)
            pts.append(StabilizerPoint(sec.name, sec.group,
                                       singular=sec.singular, extension=ext))
        return CurveSpec(
            smooth=self.smooth, proper=self.proper, points=tuple(pts),
            coarse_genus=self.genus, characteristic=self.characteristic,
            connected=self.connected,
            h1_stack_override=self.h1_stack,
            h1_coarse_override=self.h1_coarse,
        )

    def to_text(self) -> str:
        lines = ["[curve]"]
        lines.append(f"smooth = {'true' if self.smooth else 'false'}")
        lines.append(f"proper = {'true' if self.proper else 'false'}")
        lines.append(f"connected = {'true' if self.connected else 'false'}")
        if self.genus is not None:
            lines.append(f"genus = {self.genus}")
        lines.append(f"characteristic = {self.characteristic}")
        if self.h1_stack is not None:
            lines.append(f"h1_stack = {_factors_text(self.h1_stack)}")
        if self.h1_coarse is not None:
            lines.append(f"h1_coarse = {_factors_text(self.h1_coarse)}")
        lines.append("[gerbe]")
        lines.append(f"r = {self.r}")
        if self.coarse_class is not None:
            lines.append(f"coarse_class = {self.coarse_class}")
        for sec in self.points:
            lines.append(f"[point.{sec.name}]")
            lines.append(f"group = {sec.group_spec}")
            lines.append(f"singular = {'true' if sec.singular else 'false'}")
            lines.append(f"extension = {sec.extension_spec}")
        return "\n".join(lines) + "\n"


def _factors_text(group: FinAbGroup) -> str:
    if group.free_rank:
        raise ValidationError("h1 overrides must be finite groups")
    if not group.invariant_factors:
        return "0"
    return ",".join(str(d) for d in group.invariant_factors)


def _parse_factors(text: str, line: int) -> FinAbGroup:
    text = text.strip()
    if text in ("0", "trivial"):
        return FinAbGroup.trivial()
    try:
        factors = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise InputFormatError(f"bad invariant factor list {text!r}", line)
    if any(f < 2 for f in factors):
        raise InputFormatError("invariant factors must be >= 2 (or a single 0)", line)
    return FinAbGroup.from_factors(factors)


def _parse_bool(text: str, line: int, key: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise InputFormatError(f"key {key!r} expects true/false, got {text!r}", line)


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
    except OSError as exc:
        raise InputFormatError(f"cannot read group table {path!r}: {exc}")
    if not lines or not lines[0].startswith("order"):
        raise InputFormatError(f"group table {path!r} must start with 'order n'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise InputFormatError(f"bad order line in {path!r}")
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


def load_cocycle(path: str, G: FiniteGroup, r: int) -> Cocycle2:
    """Cocycle file: first line `modulus r`, then |G| rows of |G| residues."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise InputFormatError(f"cannot read cocycle {path!r}: {exc}")
    if not lines or not lines[0].startswith("modulus"):
        raise InputFormatError(f"cocycle {path!r} must start with 'modulus r'")
    try:
        m = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise InputFormatError(f"bad modulus line in {path!r}")
    if m != r:
        raise InputFormatError(
            f"cocycle {path!r} has modulus {m} but the gerbe modulus is {r}")
    if len(lines) != G.order + 1:
        raise InputFormatError(f"cocycle {path!r} needs {G.order} rows")
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([int(tok) for tok in ln.split()])
        except ValueError:
            raise InputFormatError(f"bad cocycle row in {path!r}")
    try:
        return Cocycle2(G, r, rows)
    except ValidationError as exc:
        raise InputFormatError(f"cocycle {path!r}: {exc}")


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
            return semidirect_cyclic_by_z2(int(parts[0]), int(parts[1]))
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


def parse_input(text: str) -> InputDocument:
    """Parse and validate an input document; errors carry line positions."""
    doc = InputDocument(smooth=False, proper=False)
    seen_curve = seen_gerbe = False
    smooth = proper = None
    section = None
    current_point = None
    point_names = []
    deferred_cocycles = []   # (PointSection, path, line)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise InputFormatError("unterminated section header", lineno)
            name = stripped[1:-1].strip()
            if name == "curve":
                if seen_curve:
                    raise InputFormatError("duplicate [curve] section", lineno)
                seen_curve = True
                section = "curve"
            elif name == "gerbe":
                if seen_gerbe:
                    raise InputFormatError("duplicate [gerbe] section", lineno)
                seen_gerbe = True
                section = "gerbe"
            elif name.startswith("point."):
                pname = name[len("point."):]
                if not pname:
                    raise InputFormatError("empty point name", lineno)
                if pname in point_names:
                    raise InputFormatError(f"duplicate point {pname!r}", lineno)
                point_names.append(pname)
                current_point = PointSection(pname, "", None)
                doc.points.append(current_point)
                section = "point"
            else:
                raise InputFormatError(f"unknown section [{name}]", lineno)
            continue
        if "=" not in stripped:
            raise InputFormatError("expected key = value", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            raise InputFormatError("key outside any section", lineno)
        if section == "curve":
            if key not in _CURVE_KEYS:
                raise InputFormatError(f"unknown key {key!r} in [curve]", lineno)
            if key == "smooth":
                smooth = _parse_bool(value, lineno, key)
            elif key == "proper":
                proper = _parse_bool(value, lineno, key)
            elif key == "connected":
                doc.connected = _parse_bool(value, lineno, key)
            elif key == "genus":
                doc.genus = _parse_int(value, lineno, key)
            elif key == "characteristic":
                doc.characteristic = _parse_int(value, lineno, key)
            elif key == "h1_stack":
                doc.h1_stack = _parse_factors(value, lineno)
            elif key == "h1_coarse":
                doc.h1_coarse = _parse_factors(value, lineno)
        elif section == "gerbe":
            if key not in _GERBE_KEYS:
                raise InputFormatError(f"unknown key {key!r} in [gerbe]", lineno)
            if key == "r":
                doc.r = _parse_int(value, lineno, key)
                if doc.r < 1:
                    raise InputFormatError("gerbe modulus must be >= 1", lineno)
            else:
                doc.coarse_class = value
        else:
            if key not in _POINT_KEYS:
                raise InputFormatError(
                    f"unknown key {key!r} in [point.{current_point.name}]", lineno)
            if key == "group":
                current_point.group_spec = value
                current_point.group = parse_group_spec(value, lineno)
            elif key == "singular":
                current_point.singular = _parse_bool(value, lineno, key)
            else:
                current_point.extension_spec = value
                if value == "split":
                    pass
                elif value.startswith("cocycle:"):
                    deferred_cocycles.append(
                        (current_point, value[len("cocycle:"):], lineno))
                else:
                    raise InputFormatError(f"unknown extension spec {value!r}", lineno)

    if not seen_curve:
        raise InputFormatError("missing [curve] section")
    if not seen_gerbe:
        raise InputFormatError("missing [gerbe] section")
    if smooth is None or proper is None:
        raise InputFormatError("[curve] must set smooth and proper")
    doc.smooth = smooth
    doc.proper = proper

    for sec in doc.points:
        if sec.group is None:
            raise InputFormatError(f"point {sec.name!r} has no group")
    for sec, path, lineno in deferred_cocycles:
        sec.cocycle = load_cocycle(path, sec.group, doc.r)

    # semantic validation through the real constructors, mapped back to
    # document-level errors
    try:
        doc.curve_spec()
    except (ValidationError, StackyBrauerError) as exc:
        raise InputFormatError(str(exc))
    return doc


# ---------------------------------------------------------------------------
# Reports


def _group_text(g) -> str:
    return "unknown" if g is None else str(g)


def _flag_text(v) -> str:
    if v is None:
        return "unknown"
    return "true" if v else "false"


def build_report_lines(doc: InputDocument, report, input_text: str):
    lines = []
    push = lines.append
    push(f"format-version = {FORMAT_VERSION}")
    push(f"input-sha256 = {hashlib.sha256(input_text.encode()).hexdigest()}")
    push("status = " + report.result.status)
    push(f"r = {doc.r}")
    push(f"characteristic = {doc.characteristic}")
    push(f"smooth = {_flag_text(doc.smooth)}")
    push(f"proper = {_flag_text(doc.proper)}")
    if doc.coarse_class is not None:
        push(f"coarse-class = {doc.coarse_class}")
    if report.result.status == "determined":
        push(f"result = {report.result.value}")
    else:
        push(f"result-subgroup = {report.result.subgroup}")
        push(f"result-quotient-bound = {report.result.quotient_bound}")
        push(f"result-quotient-exact = {_flag_text(report.result.quotient_exact)}")
    push(f"left-term = {report.left_term}")
    push(f"left-kernel = {report.left_kernel}")
    push(f"left-image = {report.left_image}")
    push(f"right-term = {report.right_term}")
    push(f"right-term-source = {report.right_term_source}")
    push(f"is-root-gerbe = {_flag_text(report.is_root_gerbe)}")
    push(f"right-exact = {_flag_text(report.right_exact)}")
    push(f"splitting = {report.splitting}")
    push(f"fiber-count = {len(report.fibers)}")
    for name, d in report.fibers:
        prefix = f"fiber.{name}"
        push(f"{prefix}.group-order = {d.extension.base.order}")
        push(f"{prefix}.extension-order = {d.extension.total.order}")
        push(f"{prefix}.h2-units-base = {_group_text(d.h2_units_base)}")
        push(f"{prefix}.h2-units-total = {_group_text(d.h2_units_total)}")
        push(f"{prefix}.is-root-gerbe = {_flag_text(d.is_root_gerbe)}")
        push(f"{prefix}.root-gerbe-via-inflation = "
             f"{_flag_text(d.root_gerbe_via_inflation)}")
        push(f"{prefix}.h3-inflation-injective = "
             f"{_flag_text(d.h3_inflation_injective)}")
        push(f"{prefix}.h2-section-exists = {_flag_text(d.h2_section_exists)}")
        beta = ",".join(str(v) for v in d.bockstein_class) or "0"
        push(f"{prefix}.bockstein = {beta}")
    return lines


def build_error_lines(input_text: str, code: str, message: str):
    return [
        f"format-version = {FORMAT_VERSION}",
        f"input-sha256 = {hashlib.sha256(input_text.encode()).hexdigest()}",
        "status = error",
        f"error-code = {code}",
        f"error-message = {message}",
    ]


def _write_report(path, lines) -> bool:
    """Write the machine report, if asked; False (reported on stderr) if it cannot."""
    if path:
        try:
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
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


def run_brauer(args) -> int:
    try:
        with open(args.input) as fh:
            input_text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return 1
    try:
        doc = parse_input(input_text)
        if args.char is not None:
            doc.characteristic = args.char
        curve = doc.curve_spec()
        report = brauer_report(curve, doc.r, verify=args.verify)
    except StackyBrauerError as exc:
        return _fail(args.report, input_text, exc)

    if not _write_report(args.report, build_report_lines(doc, report, input_text)):
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


def main(argv=None) -> int:
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
    p_coh.add_argument("--verify", action="store_true")

    args = parser.parse_args(argv)
    if args.max_entries is not None:
        try:
            set_resource_cap(args.max_entries)
        except ValidationError as exc:
            print("error:", exc, file=sys.stderr)
            return 1
    if args.command == "brauer":
        return run_brauer(args)
    return run_cohomology(args)


if __name__ == "__main__":
    sys.exit(main())
