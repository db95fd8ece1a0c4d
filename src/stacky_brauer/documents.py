"""The brauer command's input documents and its machine report.

An input document is a line-oriented sectioned key=value text file (see
cli); parse_input reads and validates one into an InputDocument, and
build_report_lines writes the flat key = value report of a Brauer
report.  The cohomology command needs none of this, so cli serves these
names on first use (PEP 562 __getattr__) and a cold cohomology process
never compiles them.

InputDocument.curve_spec reads central_extension off cli, so a
replacement of cli.central_extension (perfbench's tracer) sees its calls.
"""

from __future__ import annotations

from . import cli
from .abelian import FinAbGroup
from .cli import FORMAT_VERSION, _parse_int, _sha256_text, parse_group_spec
from .errors import InputFormatError, ValidationError
from .extensions import Cocycle2
from .groups import FiniteGroup
from .records import MutableRecord

__all__ = ["PointSection", "InputDocument", "parse_input", "load_cocycle",
           "build_report_lines"]


class PointSection(MutableRecord):
    _fields = ("name", "group_spec", "group", "singular", "extension_spec", "cocycle")

    def __init__(self, name: str, group_spec: str, group: FiniteGroup,
                 singular: bool = False, extension_spec: str = "split",
                 cocycle: Cocycle2 = None):
        self.name = name
        self.group_spec = group_spec
        self.group = group
        self.singular = singular
        self.extension_spec = extension_spec
        self.cocycle = cocycle


class InputDocument(MutableRecord):
    """A parsed and semantically validated input file."""

    _fields = ("smooth", "proper", "connected", "genus", "characteristic",
               "h1_stack", "h1_coarse", "r", "coarse_class", "points")

    def __init__(self, smooth: bool, proper: bool, connected: bool = True,
                 genus: int = None, characteristic: int = 0,
                 h1_stack: FinAbGroup = None, h1_coarse: FinAbGroup = None,
                 r: int = 1, coarse_class: str = None, points: list = None,
                 spec: CurveSpec = None):
        self.smooth = smooth
        self.proper = proper
        self.connected = connected
        self.genus = genus
        self.characteristic = characteristic
        self.h1_stack = h1_stack
        self.h1_coarse = h1_coarse
        self.r = r
        self.coarse_class = coarse_class
        self.points = [] if points is None else points
        # the CurveSpec parse_input built from these fields to validate
        # them; not compared or shown
        self.spec = spec

    def curve_spec(self) -> CurveSpec:
        from .curves import CurveSpec, StabilizerPoint

        pts = []
        for sec in self.points:
            ext = None
            if sec.cocycle is not None:
                ext = cli.central_extension(sec.group, self.r, sec.cocycle)
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


def _parse_factors(text: str, line: int, key: str) -> FinAbGroup:
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


def load_cocycle(path: str, G: FiniteGroup, r: int) -> Cocycle2:
    """Cocycle file: first line `modulus r`, then |G| rows of |G| residues."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
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


def _parse_modulus(text: str, line: int, key: str) -> int:
    r = _parse_int(text, line, key)
    if r < 1:
        raise InputFormatError("gerbe modulus must be >= 1", line)
    return r


def _parse_extension(text: str, line: int, key: str) -> str:
    if text != "split" and not text.startswith("cocycle:"):
        raise InputFormatError(f"unknown extension spec {text!r}", line)
    return text


# section -> key -> (attribute of the InputDocument, or of the PointSection
# of a [point.<name>] section, and its parser(value, line, key))
_KEYS = {
    "curve": {
        "smooth": ("smooth", _parse_bool), "proper": ("proper", _parse_bool),
        "connected": ("connected", _parse_bool), "genus": ("genus", _parse_int),
        "characteristic": ("characteristic", _parse_int),
        "h1_stack": ("h1_stack", _parse_factors), "h1_coarse": ("h1_coarse", _parse_factors),
    },
    "gerbe": {"r": ("r", _parse_modulus),
              "coarse_class": ("coarse_class", lambda text, line, key: text)},
    "point.": {"group": ("group", lambda text, line, key: parse_group_spec(text, line)),
               "singular": ("singular", _parse_bool),
               "extension": ("extension_spec", _parse_extension)},
}


def parse_input(text: str) -> InputDocument:
    """Parse and validate an input document.

    Syntax errors raise InputFormatError with their line positions; the
    semantic errors of curve_spec() (ValidationError, TamenessError) are
    raised as they are.
    """
    doc = InputDocument(smooth=False, proper=False)
    sections = {}     # section name -> the keys it set
    keys = None       # the current section's

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise InputFormatError("unterminated section header", lineno)
            name = stripped[1:-1].strip()
            target, fields = doc, _KEYS.get(name)
            if name.startswith("point."):
                pname = name[len("point."):]
                if not pname:
                    raise InputFormatError("empty point name", lineno)
                if name in sections:
                    raise InputFormatError(f"duplicate point {pname!r}", lineno)
                target, fields = PointSection(pname, "", None), _KEYS["point."]
                doc.points.append(target)
            elif fields is None:
                raise InputFormatError(f"unknown section [{name}]", lineno)
            elif name in sections:
                raise InputFormatError(f"duplicate [{name}] section", lineno)
            keys = sections[name] = set()
            continue
        if "=" not in stripped:
            raise InputFormatError("expected key = value", lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if keys is None:
            raise InputFormatError("key outside any section", lineno)
        if key in keys:
            raise InputFormatError(f"duplicate key {key!r} in [{name}]", lineno)
        keys.add(key)
        if key not in fields:
            raise InputFormatError(f"unknown key {key!r} in [{name}]", lineno)
        attribute, parse = fields[key]
        if key == "group":
            target.group_spec = value
        setattr(target, attribute, parse(value, lineno, key))

    for name in ("curve", "gerbe"):
        if name not in sections:
            raise InputFormatError(f"missing [{name}] section")
    if not {"smooth", "proper"} <= sections["curve"]:
        raise InputFormatError("[curve] must set smooth and proper")

    for sec in doc.points:
        if sec.group is None:
            raise InputFormatError(f"point {sec.name!r} has no group")
    for sec in doc.points:
        if sec.extension_spec.startswith("cocycle:"):
            sec.cocycle = load_cocycle(sec.extension_spec[len("cocycle:"):], sec.group, doc.r)

    # semantic validation through the real constructors, whose errors keep
    # their kind: a document and a flag are refused alike
    doc.spec = doc.curve_spec()
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
    push(f"input-sha256 = {_sha256_text(input_text)}")
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
