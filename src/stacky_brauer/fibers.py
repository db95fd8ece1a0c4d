"""Per-stabilizer analysis of a gerbe fiber BE -> BG.

For a central extension 0 -> Z/r -> E -> G -> 0 this module decides the
three questions the curve pipeline needs: is the fiber a root gerbe
(two independent detectors), is inflation injective on degree-3 units
cohomology, and does the degree-2 inflation admit a retraction.

When E -> G has a section s (a split extension: every split gerbe, and
every fiber with gcd(r, |G|) = 1), s* retracts inflation in every degree,
so the inflation questions are answered from s without eliminating any
matrix of E; the Bockstein detector and H^2(E, kx) are still computed.
Without a section, injectivity of inflation on H^n(-, Z) is decided in
homology: by the universal coefficient theorem, H^n(-, Z) =
Ext(H_{n-1}(-, Z), Z) = Hom(H_{n-1}(-, Z), Q/Z) naturally for a finite
group and n >= 2, an exact duality, so q* is injective on H^n exactly when
q_*: H_{n-1}(E, Z) -> H_{n-1}(G, Z) is surjective (Brown, Cohomology of
Groups, III.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import FinAbGroup, is_split_injection
from .cohomology import (
    UNITS,
    bockstein_r,
    cohomology_units,
    inflation_kernel_trivial,
    inflation_map,
)
from .errors import InvariantViolationError, ResourceCapError
from .groups import CentralExtension, section

__all__ = [
    "FiberDiagnostics",
    "fiber_is_root_gerbe",
    "fiber_is_root_gerbe_via_inflation",
    "h3_inflation_injective",
    "h2_section_exists",
    "analyze_fiber",
]


def fiber_is_root_gerbe(ext: CentralExtension) -> bool:
    """Root-gerbe test by pushforward: the Bockstein of the extension class
    must vanish in H^2(G, kx) = H^3(G, Z)."""
    return bockstein_r(ext.base, ext.cocycle).is_zero


def fiber_is_root_gerbe_via_inflation(ext: CentralExtension) -> bool:
    """Root-gerbe test by pullback: inflation H^2(G, kx) -> H^2(E, kx)
    must be injective.  Must agree with the Bockstein detector."""
    return inflation_kernel_trivial(ext.projection, 3)


def h3_inflation_injective(ext: CentralExtension) -> bool:
    """Is inflation injective on degree-3 units cohomology (H^4 integral)?"""
    return inflation_kernel_trivial(ext.projection, 4)


def h2_section_exists(ext: CentralExtension) -> bool:
    """Does inflation on degree-2 units cohomology admit a retraction?

    True iff the induced map H^2(G, kx) -> H^2(E, kx) is a split
    injection.  A trivial source splits vacuously, which avoids any
    E-side computation for cyclic stabilizers, and a section s of
    E -> G gives the retraction s* without one.
    """
    if cohomology_units(ext.base, 2).value.is_trivial:
        return True
    if section(ext.projection) is not None:
        return True
    return is_split_injection(inflation_map(ext.projection, 2, UNITS))


@dataclass(frozen=True)
class FiberDiagnostics:
    """All per-fiber decision data for one stabilizer point.

    h2_units_total, h3_inflation_injective and h2_section_exists are None
    when they were not evaluated (resource cap, or, for the first two, a
    path whose result does not depend on them).  analyze_fiber always runs
    the inflation detector as well as the Bockstein detector, so
    root_gerbe_via_inflation is None only in diagnostics built by hand.
    """

    extension: CentralExtension
    h2_units_base: FinAbGroup
    h2_units_total: FinAbGroup
    is_root_gerbe: bool
    root_gerbe_via_inflation: object
    h3_inflation_injective: object
    h2_section_exists: object
    bockstein_class: tuple

    def __post_init__(self):
        if self.root_gerbe_via_inflation is not None and \
                self.root_gerbe_via_inflation != self.is_root_gerbe:
            raise InvariantViolationError(
                "root-gerbe detectors disagree: Bockstein "
                f"{self.is_root_gerbe}, inflation {self.root_gerbe_via_inflation}")
        if self.h2_section_exists is True and \
                self.root_gerbe_via_inflation is False:
            raise InvariantViolationError(
                "a split injection cannot fail to be injective")


def _capped(question, *args):
    """The question's answer, or None when it hits the resource cap."""
    try:
        return question(*args)
    except ResourceCapError:
        return None


def analyze_fiber(ext: CentralExtension, *,
                  with_h3: bool = True) -> FiberDiagnostics:
    """Run the fiber decision battery for one central extension.

    Both root-gerbe detectors always run and are cross-asserted.
    with_h3=False leaves the degree-3 questions (H^2(E, kx) = H^3(E, Z)
    and injectivity of inflation on degree-3 units cohomology) as None.
    Expensive parts degrade to None on a resource-cap error rather than
    failing.
    """
    G = ext.base
    beta = bockstein_r(G, ext.cocycle)
    h2_base = cohomology_units(G, 2).value
    via_inflation = fiber_is_root_gerbe_via_inflation(ext)
    h2_total = h3_inj = None
    if with_h3:
        h2_total = _capped(lambda: cohomology_units(ext.total, 2).value)
        h3_inj = _capped(h3_inflation_injective, ext)
    return FiberDiagnostics(
        extension=ext,
        h2_units_base=h2_base,
        h2_units_total=h2_total,
        is_root_gerbe=beta.is_zero,
        root_gerbe_via_inflation=via_inflation,
        h3_inflation_injective=h3_inj,
        h2_section_exists=_capped(h2_section_exists, ext),
        bockstein_class=beta.coords,
    )
