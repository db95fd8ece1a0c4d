"""Per-stabilizer analysis of a gerbe fiber BE -> BG.

For a central extension 0 -> Z/r -> E -> G -> 0 this module decides the
three questions the curve pipeline needs: is the fiber a root gerbe
(two independent detectors), is inflation injective on degree-3 units
cohomology, and does the degree-2 inflation admit a retraction.

When E -> G has a section s (a split extension: every split gerbe, and
every fiber with gcd(r, |G|) = 1), s* retracts inflation in every degree,
so the inflation questions are answered from s; the Bockstein detector
and H^2(E, kx) are still computed.  Without a section, injectivity of
inflation on H^n(-, Z) is decided in homology: by the universal
coefficient theorem, H^n(-, Z) = Ext(H_{n-1}(-, Z), Z) =
Hom(H_{n-1}(-, Z), Q/Z) naturally for a finite group and n >= 2, an exact
duality, so q* is injective on H^n exactly when
q_*: H_{n-1}(E, Z) -> H_{n-1}(G, Z) is surjective (Brown, Cohomology of
Groups, III.1).  The degree-2 units questions are answered one degree
down the same way: H^2(-, kx) = H^3(-, Z) = Hom(H_2(-, Z), Q/Z), so
H^2(E, kx) has the value of the Schur multiplier H_2(E, Z), and inflation
on it is the Pontryagin dual of q_*: H_2(E, Z) -> H_2(G, Z).  Every
homology group of E and of G is read off the group's small free
resolution, and q_* off the chain map between the two resolutions over q
(cohomology.resolution_homology_Z, cohomology.comparison_classes): no bar
complex of E is built at all.  The Bockstein detector reads the class off
H_2(G, Z) too (cohomology.bockstein_r), and builds the bar complex of G
only to print coordinates where |H^3(G, Z)| > 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import AbGroupMap, FinAbGroup, IntegerMatrix, is_split_injection
from .cohomology import (
    bockstein_r,
    cohomology_units,
    comparison_classes,
    inflation_kernel_trivial,
    resolution_homology_Z,
)
from .errors import InvariantViolationError, ResourceCapError
from .groups import CentralExtension, GroupHom, section

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
    E -> G gives the retraction s* without one.  Otherwise the map is
    read in homology: H^2(-, kx) = H^3(-, Z) = Hom(H_2(-, Z), Q/Z)
    naturally (universal coefficient theorem), so inflation is the
    Pontryagin dual of q_*: H_2(E, Z) -> H_2(G, Z), and being a split
    injection depends only on the map up to isomorphism.
    """
    if cohomology_units(ext.base, 2).value.is_trivial:
        return True
    if section(ext.projection) is not None:
        return True
    return is_split_injection(_pontryagin_dual(_h2_pushforward(ext.projection)))


def _h2_pushforward(q: GroupHom) -> AbGroupMap:
    """q_*: H_2(E, Z) -> H_2(G, Z) on the canonical generators.

    Both groups are read off their free resolutions; comparison_classes
    carries each generator's lift into H_2(G, Z), and AbGroupMap checks
    that relations go to relations.
    """
    src, dst = resolution_homology_Z(q.source, 2), resolution_homology_Z(q.target, 2).quotient
    images = comparison_classes(q, 2, src.lifts)
    return AbGroupMap(src.quotient, dst, IntegerMatrix.from_columns(
        dst.num_generators, (dict(enumerate(img)) for img in images)))


def _pontryagin_dual(f: AbGroupMap) -> AbGroupMap:
    """Hom(f, Q/Z): Hom(B, Q/Z) -> Hom(A, Q/Z) for f: A -> B between finite groups.

    With invariant factors a of A and b of B, the characters e_i -> 1/a_i
    and e_j -> 1/b_j are canonical generators of the duals, and the
    character 1/b_j pulls back to e_i -> f_ji / b_j = (f_ji a_i / b_j) / a_i;
    f_ji a_i / b_j is an integer because a_i e_i maps to 0.
    """
    a, b = f.source.invariant_factors, f.target.invariant_factors
    entries = {}
    for (j, i), v in f.matrix.entries.items():
        w = v * a[i] // b[j] % a[i]
        if w:
            entries[(i, j)] = w
    return AbGroupMap(f.target, f.source, IntegerMatrix(len(a), len(b), entries))


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
    with_h3=False leaves the degree-3 questions (H^2(E, kx), read as the
    Schur multiplier H_2(E, Z), and injectivity of inflation on degree-3
    units cohomology) as None.
    Expensive parts degrade to None on a resource-cap error rather than
    failing.
    """
    G = ext.base
    beta = bockstein_r(G, ext.cocycle)
    h2_base = cohomology_units(G, 2).value
    via_inflation = fiber_is_root_gerbe_via_inflation(ext)
    h2_total = h3_inj = None
    if with_h3:
        h2_total = _capped(lambda: resolution_homology_Z(ext.total, 2).quotient)
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
