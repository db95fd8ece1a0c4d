"""Stacky-curve data model and the Brauer-group pipeline.

A curve is its coarse data (smooth/proper flags, genus, characteristic)
plus finitely many marked points carrying finite stabilizer groups; a
mu_r-gerbe on it is one central extension 0 -> Z/r -> E_i -> G_i -> 0
per marked point.  The main entry point, brauer_report, assembles the
three-term exact sequence

    (+) H^2(G_i, kx)  ->  Br  ->  H^1(curve, Z/r)

in one pass: it picks a shortcut (the smooth-curve formula, or
gcd(r, |G_i|) = 1 at every point) or none, picks the right term, runs
the per-fiber diagnostics once, and consults one decision table.  A
shortcut, or a root gerbe whose sequence is right-exact with a section
at every fiber, determines Br as the direct sum of both terms; anything
else yields honest partial bounds.
"""

from __future__ import annotations

from math import gcd

from .abelian import (FinAbGroup, IntegerMatrix, cokernel, hom_to_cyclic,
                      invariant_factor_chain, lcm)
from .cohomology import CohomologyClass, bockstein_r, cohomology_units, cohomology_Z
from .errors import (
    InvariantViolationError,
    MissingDataError,
    TamenessError,
    ValidationError,
)
from .fibers import FiberDiagnostics, analyze_fiber
from .groups import CentralExtension, FiniteGroup, split_extension
from . import groups as _groups
from .records import Record

__all__ = [
    "StabilizerPoint", "CurveSpec", "ReportResult", "BrauerReport",
    "stacky_units_cohomology", "h1_stack_zr", "h1_coarse_zr",
    "orbifold_abelianization", "local_gerbe_classification",
    "left_kernel", "brauer_report", "nonvanishing_h2_examples",
]


class StabilizerPoint(Record):
    """A marked point: its stabilizer group, singularity flag, and gerbe data.

    extension is None for the split gerbe (it is materialized on demand);
    at a non-singular point the stabilizer must be cyclic.
    """

    _fields = ("name", "group", "singular", "extension")

    def __init__(self, name: str, group: FiniteGroup, singular: bool = False,
                 extension: CentralExtension = None):
        if not singular and not group.is_cyclic:
            raise ValidationError(
                f"non-cyclic stabilizer at smooth point {name!r}")
        if extension is not None and extension.base != group:
            raise ValidationError(
                f"extension at point {name!r} is not over its stabilizer")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "singular", singular)
        object.__setattr__(self, "extension", extension)

    def materialize_extension(self, r: int) -> CentralExtension:
        if self.extension is None:
            return split_extension(self.group, r)
        if self.extension.modulus != r:
            raise ValidationError(
                f"extension at point {self.name!r} has modulus "
                f"{self.extension.modulus}, expected {r}")
        return self.extension


class CurveSpec(Record):
    """A tame stacky curve over an algebraically closed field.

    h1 overrides supply H^1(curve, Z/r) (stack) and H^1(coarse, Z/r) when
    the orbifold/genus formulas do not apply (singular or non-proper
    curves); they are the caller's responsibility and never guessed.
    """

    _fields = ("smooth", "proper", "points", "coarse_genus", "characteristic",
               "connected", "h1_stack_override", "h1_coarse_override")

    def __init__(self, smooth: bool, proper: bool, points: tuple = (),
                 coarse_genus: int = None, characteristic: int = 0,
                 connected: bool = True, h1_stack_override: FinAbGroup = None,
                 h1_coarse_override: FinAbGroup = None):
        points = tuple(points)
        if not connected:
            raise ValidationError("disconnected curves are not supported")
        names = [p.name for p in points]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate point names")
        if characteristic:
            p = characteristic
            if p < 2:
                raise ValidationError("characteristic must be 0 or a prime")
            for pt in points:
                if pt.group.order % p == 0:
                    raise TamenessError(
                        f"characteristic {p} divides |G| = {pt.group.order} "
                        f"at point {pt.name!r}")
        if smooth:
            for pt in points:
                if pt.singular:
                    raise ValidationError(
                        f"smooth curve cannot carry singular point {pt.name!r}")
        if smooth and proper and coarse_genus is None:
            raise ValidationError("smooth proper curves need a coarse genus")
        if coarse_genus is not None and coarse_genus < 0:
            raise ValidationError("genus must be nonnegative")
        object.__setattr__(self, "smooth", smooth)
        object.__setattr__(self, "proper", proper)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "coarse_genus", coarse_genus)
        object.__setattr__(self, "characteristic", characteristic)
        object.__setattr__(self, "connected", connected)
        object.__setattr__(self, "h1_stack_override", h1_stack_override)
        object.__setattr__(self, "h1_coarse_override", h1_coarse_override)

    def validate_modulus(self, r: int) -> None:
        if r < 1:
            raise ValidationError("gerbe modulus must be >= 1")
        if self.characteristic and r % self.characteristic == 0:
            raise TamenessError(
                f"characteristic {self.characteristic} divides the gerbe "
                f"modulus {r}")


def stacky_units_cohomology(curve: CurveSpec, k: int) -> FinAbGroup:
    """H^k(curve, Gm) for k >= 2: the direct sum of H^k(G_i, kx).

    Even-degree contributions can only come from singular points, since
    non-singular stabilizers are cyclic and cyclic groups have vanishing
    even units cohomology; this emerges from the computation rather than
    being special-cased.
    """
    if k < 2:
        raise ValidationError("the stalk formula applies in degrees >= 2")
    total = FinAbGroup.trivial()
    for pt in curve.points:
        value = cohomology_units(pt.group, k, curve.characteristic).value
        total = total.direct_sum(value)
    return total


def orbifold_abelianization(genus: int, orders) -> FinAbGroup:
    """Abelianized orbifold fundamental group of a smooth proper curve.

    Generators: 2*genus free ones and one torsion generator per marked
    point, with relations n_i g_i = 0 and sum g_i = 0.  The torsion part
    is (+) Z/n_i modulo the diagonal, whose p-part, of order the largest
    p-part of the n_i, spans a direct summand at each prime p; the
    quotient drops it, and so drops the last invariant factor.
    """
    return FinAbGroup(2 * genus, invariant_factor_chain(orders)[:-1])


def h1_stack_zr(curve: CurveSpec, r: int) -> FinAbGroup:
    """H^1(curve, Z/r) of the stacky curve.

    Smooth proper curves use Hom(orbifold abelianization, Z/r); anything
    else requires the h1_stack override.
    """
    curve.validate_modulus(r)
    if curve.h1_stack_override is not None:
        return curve.h1_stack_override
    if curve.smooth and curve.proper:
        ab = orbifold_abelianization(curve.coarse_genus,
                                     [pt.group.order for pt in curve.points])
        return hom_to_cyclic(ab, r)
    raise MissingDataError(
        "missing-h1",
        "H^1(curve, Z/r) of a singular or non-proper curve must be supplied "
        "via the h1_stack override")


def h1_coarse_zr(curve: CurveSpec, r: int) -> FinAbGroup:
    """H^1(C, Z/r) of the coarse curve: genus formula or explicit override."""
    curve.validate_modulus(r)
    if curve.h1_coarse_override is not None:
        return curve.h1_coarse_override
    if curve.smooth and curve.proper:
        return FinAbGroup.from_factors([r] * (2 * curve.coarse_genus))
    raise MissingDataError(
        "missing-h1",
        "H^1(coarse curve, Z/r) must be supplied via the h1_coarse override "
        "for singular or non-proper curves")


def local_gerbe_classification(curve: CurveSpec, r: int) -> FinAbGroup:
    """The local target (+) H^2(G_i, Z/r) that mu_r-gerbes surject onto.

    The kernel of the classification map is a quotient of H^2(C, mu_r)
    and is not computed here; the report only echoes coarse gerbe data.
    """
    from .cohomology import cohomology_Zm
    curve.validate_modulus(r)
    total = FinAbGroup.trivial()
    for pt in curve.points:
        total = total.direct_sum(cohomology_Zm(pt.group, 2, r).value)
    return total


def left_kernel(curve: CurveSpec, r: int) -> FinAbGroup:
    """Kernel of the left map: the cyclic subgroup of (+) H^2(G_i, kx)
    generated by the tuple of Bockstein classes of the extensions."""
    curve.validate_modulus(r)
    exts = [pt.materialize_extension(r) for pt in curve.points]
    return _bockstein_span(bockstein_r(ext.base, ext.cocycle) for ext in exts)


def _bockstein_span(classes) -> FinAbGroup:
    """The cyclic group generated by a tuple of Bockstein classes."""
    order = 1
    for beta in classes:
        order = lcm(order, beta.order())
    return FinAbGroup.cyclic(order)


def _conjunction(flags) -> object:
    """Three-valued conjunction: False dominates, then None, else True."""
    out = True
    for v in flags:
        if v is False:
            return False
        if v is None:
            out = None
    return out


class ReportResult(Record):
    """Either the full Brauer group or honest partial information.

    status "determined": value holds the group.  status "partial":
    subgroup embeds into the Brauer group and the quotient by it embeds
    into quotient_bound (exactly equal when quotient_exact).
    """

    _fields = ("status", "value", "subgroup", "quotient_bound", "quotient_exact")

    def __init__(self, status: str, value: FinAbGroup = None,
                 subgroup: FinAbGroup = None, quotient_bound: FinAbGroup = None,
                 quotient_exact: bool = False):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "subgroup", subgroup)
        object.__setattr__(self, "quotient_bound", quotient_bound)
        object.__setattr__(self, "quotient_exact", quotient_exact)


class BrauerReport(Record):
    _fields = ("curve", "r", "left_term", "left_kernel", "left_image", "right_term",
               "right_term_source", "fibers", "is_root_gerbe", "right_exact",
               "splitting", "result")

    def __init__(self, curve: CurveSpec, r: int, left_term: FinAbGroup,
                 left_kernel: FinAbGroup, left_image: FinAbGroup,
                 right_term: FinAbGroup, right_term_source: str,
                 fibers: tuple, is_root_gerbe: bool, right_exact: object,
                 splitting: str, result: ReportResult):
        # fibers: (point name, FiberDiagnostics) pairs; right_exact: True,
        # False or None (undetermined); splitting: coprime | sections |
        # smooth-shortcut | unknown
        flags = [d.is_root_gerbe for _, d in fibers]
        if is_root_gerbe != all(flags):
            raise InvariantViolationError("root-gerbe flag mismatch")
        if is_root_gerbe != left_kernel.is_trivial:
            raise InvariantViolationError("left kernel contradicts fiber flags")
        expected = _conjunction(d.h3_inflation_injective for _, d in fibers)
        if right_exact != expected:
            raise InvariantViolationError("right-exactness flag mismatch")
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "left_term", left_term)
        object.__setattr__(self, "left_kernel", left_kernel)
        object.__setattr__(self, "left_image", left_image)
        object.__setattr__(self, "right_term", right_term)
        object.__setattr__(self, "right_term_source", right_term_source)
        object.__setattr__(self, "fibers", fibers)
        object.__setattr__(self, "is_root_gerbe", is_root_gerbe)
        object.__setattr__(self, "right_exact", right_exact)
        object.__setattr__(self, "splitting", splitting)
        object.__setattr__(self, "result", result)


def _quotient_by_cyclic_subgroup(total_gens, tuple_coords) -> FinAbGroup:
    """(+)_i H^3(G_i, Z) modulo the subgroup generated by one coordinate tuple."""
    orders = []
    for g in total_gens:
        orders.extend(g.relation_orders())
    coords = []
    for t in tuple_coords:
        coords.extend(t)
    n = len(orders)
    entries = {}
    col = 0
    for i, d in enumerate(orders):
        if d:
            entries[(i, col)] = d
            col += 1
    for i, v in enumerate(coords):
        if v:
            entries[(i, col)] = v
    rel = IntegerMatrix(n, col + 1, entries)
    return cokernel(rel)


def brauer_report(curve: CurveSpec, r: int, *, verify: bool = False,
                  force_general: bool = False) -> BrauerReport:
    """Decide the three-term sequence for a mu_r-gerbe on a stacky curve.

    Every fiber always runs both root-gerbe detectors (Bockstein and
    pullback), which FiberDiagnostics cross-asserts; verify adds nothing
    beyond that and is accepted for callers that pass it.  force_general
    skips the smooth and coprime shortcuts (used to cross-validate them).
    """
    curve.validate_modulus(r)
    left_term = stacky_units_cohomology(curve, 2)
    # first, so that a modulus mismatch is reported before missing H^1 data
    extensions = [(pt, pt.materialize_extension(r)) for pt in curve.points]

    shortcut = None
    if not force_general:
        if curve.smooth:
            shortcut = "smooth-shortcut"
        elif all(gcd(r, pt.group.order) == 1 for pt in curve.points):
            shortcut = "coprime"

    if shortcut == "coprime" and curve.h1_coarse_override is not None:
        right_term, right_source = h1_coarse_zr(curve, r), "override-coarse"
    else:
        right_term = h1_stack_zr(curve, r)
        right_source = "override-stack" if curve.h1_stack_override is not None \
            else "orbifold-presentation"

    # the smooth formula does not depend on the extensions, so the
    # expensive degree-3 fiber questions are left unevaluated there
    fibers = tuple(
        (pt.name, analyze_fiber(ext, with_h3=shortcut != "smooth-shortcut"))
        for pt, ext in extensions)
    # each fiber's Bockstein class, in H^2(G_i, kx) = H^3(G_i, Z)
    betas = [CohomologyClass(cohomology_Z(pt.group, 3), d.bockstein_class)
             for pt, (_, d) in zip(curve.points, fibers)]
    lk = _bockstein_span(betas)
    root = lk.is_trivial
    right_exact = _conjunction(d.h3_inflation_injective for _, d in fibers)

    if root:
        left_image = left_term
    else:
        left_image = _quotient_by_cyclic_subgroup(
            [b.parent.value for b in betas], [b.coords for b in betas])

    # decision table; on a smooth curve left_term is 0 (cyclic stabilizers)
    if shortcut is not None:
        splitting = shortcut
    elif root and right_exact and \
            all(d.h2_section_exists is True for _, d in fibers):
        splitting = "sections"
    else:
        splitting = "unknown"
    if splitting == "unknown":
        result = ReportResult("partial", subgroup=left_image,
                              quotient_bound=right_term,
                              quotient_exact=right_exact is True)
    else:
        result = ReportResult("determined",
                              value=left_term.direct_sum(right_term))

    return BrauerReport(
        curve=curve, r=r,
        left_term=left_term, left_kernel=lk, left_image=left_image,
        right_term=right_term, right_term_source=right_source,
        fibers=fibers,
        is_root_gerbe=root,
        right_exact=right_exact,
        splitting=splitting,
        result=result,
    )


def nonvanishing_h2_examples(max_n: int):
    """Search the node family mu_n x| Z/2 for nonvanishing H^2(G, kx).

    Returns (n, a, H^2(G, kx)) triples with nontrivial value, over all
    valid involution parameters a (a^2 = 1 mod n).
    """
    out = []
    for n in range(1, max_n + 1):
        for a in range(1, n + 1):
            if (a * a) % n != 1 % n:
                continue
            G = _groups.semidirect_cyclic_by_z2(n, a)
            value = cohomology_units(G, 2).value
            if not value.is_trivial:
                out.append((n, a, value))
    return out
