"""Group cohomology with trivial coefficients via normalized bar resolutions.

Computes H^n(G, Z), H^n(G, Z/m), and H^n(G, kx) for a finite group G
acting trivially, together with inflation and restriction maps and the
integral Bockstein of a mod-r cocycle.

Multiplicative-group coefficients are handled through the shift
H^n(G, kx) = H^{n+1}(G, Z) for n >= 1, which is valid over an
algebraically closed field whose characteristic does not divide |G|
(the unit group is then divisible with full prime-to-p torsion).  The
characteristic enters only through that tameness check.

cohomology() computes a group's value at the call and its classes
(representatives, class_of) on first use.  For n >= 1, H^n(G, Z) is
finite (killed by |G|), so it is the torsion of coker(d_in),
d_in: C^{n-1} -> C^n: `abelian.finite_homology_at` eliminates d_in alone,
logging its row operations, reads the value off the pivots and replays
the log for the classes; the much larger outgoing differential d_out is
only checked (composition and resource cap).  Integral and units
coefficients in positive degree take this route.  With Z/m coefficients
(every cochain is then torsion, so torsion does not single out the
cocycles) the value comes from the universal coefficient theorem on
untracked eliminations of d_in and d_out (`abelian.homology_value`), and
`abelian.homology_at`, which eliminates d_out augmented by m*I for a
cycle basis, runs only for the classes; its quotient must equal the
value.  Degree 0 with Z coefficients (H^0(G, Z) = Z is infinite) takes
homology_at directly.

Injectivity of inflation on a non-split extension is decided in homology
one degree down: for a finite group and n >= 2 the universal coefficient
theorem gives natural isomorphisms H^n(-, Z) = Ext(H_{n-1}(-, Z), Z) =
Hom(H_{n-1}(-, Z), Q/Z), an exact duality on finite groups, so q* is
injective on H^n exactly when q_* is surjective on H_{n-1} (Brown,
Cohomology of Groups, III.1).  The chain complex is the transpose of the
cochain complex, and its cycles come from a far smaller elimination.
homology_Z gives H_n(G, Z) for n >= 1 off that complex, cached beside the
cohomology groups; by the same duality the Schur multiplier H_2(E, Z) has
the value of H^2(E, kx) = H^3(E, Z) without E's degree-3 cochains.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd

from . import abelian
from .abelian import (
    AbGroupMap,
    FinAbGroup,
    IntegerMatrix,
    Subquotient,
    capped_power,
    check_cap,
    finite_homology_at,
    homology_at,
    homology_value,
    induced_map,
    is_surjective,
    kernel_basis,
)
from .errors import (
    InvariantViolationError,
    TamenessError,
    ValidationError,
)
from .groups import Cocycle2, FiniteGroup, GroupHom, section

__all__ = [
    "Coefficients", "INTEGERS", "UNITS", "mod_coefficients",
    "CohomologyGroup", "CohomologyClass", "bar_differential",
    "cohomology", "cohomology_Z", "cohomology_Zm", "cohomology_units",
    "homology_Z", "pushforward_classes",
    "pullback_matrix", "inflation_map", "restriction_map",
    "inflation_kernel_trivial", "bockstein", "bockstein_r",
    "enumerate_extension_classes", "clear_cache",
]


@dataclass(frozen=True)
class Coefficients:
    """Trivial-action coefficient tag: Z, Z/m, or the unit group kx."""

    kind: str          # "Z" | "Zm" | "units"
    modulus: int = 0   # m for "Zm", otherwise 0

    def __post_init__(self):
        if self.kind not in ("Z", "Zm", "units"):
            raise ValidationError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "Zm" and self.modulus < 1:
            raise ValidationError("Z/m coefficients need m >= 1")
        if self.kind != "Zm" and self.modulus:
            raise ValidationError("modulus only applies to Z/m coefficients")

    def __str__(self):
        if self.kind == "Z":
            return "Z"
        if self.kind == "Zm":
            return f"Z/{self.modulus}"
        return "units"


INTEGERS = Coefficients("Z")
UNITS = Coefficients("units")


def mod_coefficients(m: int) -> Coefficients:
    return Coefficients("Zm", m)


def validate_tameness(G: FiniteGroup, characteristic: int) -> None:
    if characteristic == 0:
        return
    if characteristic < 2:
        raise ValidationError("characteristic must be 0 or a prime")
    if G.order % characteristic == 0:
        raise TamenessError(
            f"characteristic {characteristic} divides the group order {G.order}")


# ---------------------------------------------------------------------------
# Normalized bar complex


def bar_differential(G: FiniteGroup, n: int) -> IntegerMatrix:
    """The normalized bar differential d: C^n -> C^{n+1} (trivial action).

    Rows are (n+1)-tuples and columns are n-tuples of non-identity
    elements, indexed lexicographically.  Faces containing the identity
    are dropped.  The matrix is the same integer matrix for every trivial
    coefficient module (Z/m coefficients reduce it modulo m later), and
    its entries stay in {-1, 0, +1} before coincidence-summing, which
    keeps the eliminations well-conditioned.
    """
    if n < 0:
        raise ValidationError("degree must be nonnegative")
    nonid = G.nonidentity()
    k = len(nonid)
    rows_n = capped_power(k, n + 1, f"bar differential rows (|G|-1)^{n + 1}")
    if k < 2:
        # the row count does not grow with n, but one row's n + 2 faces of
        # up to n + 1 entries are held at once
        check_cap((n + 1) * (n + 2), "bar differential faces of one row")
    cols_n = k ** n
    pos = {g: i for i, g in enumerate(nonid)}
    e = G.identity
    mul = G.mul
    entries = {}
    for row_idx, tup in enumerate(product(nonid, repeat=n + 1)):
        # face 0 drops the first entry, face n+1 the last, face i multiplies
        faces = []
        faces.append((tup[1:], 1))
        sign = -1
        for i in range(n):
            gh = mul(tup[i], tup[i + 1])
            if gh != e:
                faces.append((tup[:i] + (gh,) + tup[i + 2:], sign))
            sign = -sign
        faces.append((tup[:n], sign))
        for face, s in faces:
            col = 0
            for g in face:
                col = col * k + pos[g]
            key = (row_idx, col)
            nv = entries.get(key, 0) + s
            if nv:
                entries[key] = nv
            elif key in entries:
                del entries[key]
    return IntegerMatrix(rows_n, cols_n, entries)


# ---------------------------------------------------------------------------
# Cohomology groups


@dataclass(frozen=True)
class CohomologyGroup:
    """H^degree(group, coefficients): canonical value plus cocycle representatives.

    representatives[i] is a sparse cochain vector over the normalized
    tuple basis for the i-th canonical generator; for units coefficients
    these are integral cochains one degree up.  The value is known on
    construction; representatives, class_of and the subquotient's classes
    are built on first use (see cohomology).  For integral and units
    coefficients in positive degree the group is read off the cokernel of
    the incoming differential: the generators are the U^-1 columns of its
    Smith form at the pivots other than 1, and class_of checks that a
    vector is a cocycle and then takes its U rows at those pivots modulo
    the invariant factors.  Where the value does not force a basis (for
    example (Z/2)^3), these generators are the ones that route chose.
    """

    group: FiniteGroup
    degree: int
    coefficients: Coefficients
    value: FinAbGroup
    subquotient: Subquotient

    @cached_property
    def representatives(self) -> tuple:
        modulus = self.coefficients.modulus
        if not modulus:
            return tuple(dict(lift) for lift in self.subquotient.lifts)
        return tuple({k: v % modulus for k, v in lift.items() if v % modulus}
                     for lift in self.subquotient.lifts)

    def class_of(self, vec: dict) -> "CohomologyClass":
        return CohomologyClass(self, self.subquotient.reduce(vec))

    def all_classes(self):
        """All elements (torsion only; raises if the value has a free part)."""
        if self.value.free_rank:
            raise ValidationError("cannot enumerate an infinite group")
        ranges = [range(d) for d in self.value.invariant_factors]
        return [CohomologyClass(self, tup) for tup in product(*ranges)]


@dataclass(frozen=True)
class CohomologyClass:
    """An element of a computed cohomology group, in generator coordinates."""

    parent: CohomologyGroup
    coords: tuple

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coords)

    def order(self) -> int:
        out = 1
        orders = self.parent.value.relation_orders()
        for v, d in zip(self.coords, orders):
            if d == 0:
                if v:
                    raise ValidationError("element of infinite order")
                continue
            if v % d:
                out = abelian.lcm(out, d // gcd(v % d, d))
        return out

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.coords) + ")"


_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def clear_cache() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()


def _integral_degree(n: int, coefficients: Coefficients) -> tuple:
    """Map the requested degree to the integral computation degree and modulus."""
    if coefficients.kind == "units":
        if n < 1:
            raise ValidationError("units cohomology is defined here for degree >= 1")
        return n + 1, 0
    if coefficients.kind == "Zm":
        return n, coefficients.modulus
    return n, 0


def cohomology(G: FiniteGroup, n: int, coefficients: Coefficients = INTEGERS,
               characteristic: int = 0) -> CohomologyGroup:
    """H^n(G, coefficients) with trivial action, via the normalized bar complex.

    The value is computed at the call, which builds d_out and d_in and
    makes the composition and resource-cap checks the classes' route makes
    on them; the classes are built on first use.
    """
    if n < 0:
        raise ValidationError("degree must be nonnegative")
    if coefficients.kind == "units":
        validate_tameness(G, characteristic)
    degree, modulus = _integral_degree(n, coefficients)
    key = (G.table, degree, modulus)
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
    if cached is None:
        d_out = bar_differential(G, degree)
        d_in = bar_differential(G, degree - 1) if degree else IntegerMatrix(1, 0)
        if modulus:
            cached = _mod_homology(d_out, d_in, modulus)
        elif degree:
            # H^degree(G, Z) is finite in positive degree
            cached = finite_homology_at(d_out, d_in)
        else:
            cached = homology_at(d_out, d_in)
        with _CACHE_LOCK:
            cached = _CACHE.setdefault(key, cached)
    return CohomologyGroup(G, n, coefficients, cached.quotient, cached)


def _mod_homology(d_out: IntegerMatrix, d_in: IntegerMatrix, m: int) -> Subquotient:
    """ker(d_out)/im(d_in) of (Z/m)^n: the value now, homology_at's classes later.

    The value comes from abelian.homology_value (the universal coefficient
    theorem on two untracked eliminations).  homology_at, which eliminates
    d_out augmented by m*I with V and V^-1 tracked, runs only when the
    classes are first used, and its quotient must equal that value.
    """
    value = homology_value(d_out, d_in, m)

    def classes():
        full = homology_at(d_out, d_in, modulus=m)
        if full.quotient != value:
            raise InvariantViolationError(
                f"the classes give {full.quotient} with Z/{m} coefficients, "
                f"the universal coefficient theorem {value}")
        return full.classes()

    return Subquotient(d_out.cols, value, classes)


def cohomology_Z(G: FiniteGroup, n: int) -> CohomologyGroup:
    return cohomology(G, n, INTEGERS)


def cohomology_Zm(G: FiniteGroup, n: int, m: int) -> CohomologyGroup:
    return cohomology(G, n, mod_coefficients(m))


def cohomology_units(G: FiniteGroup, n: int, characteristic: int = 0) -> CohomologyGroup:
    return cohomology(G, n, UNITS, characteristic)


def homology_Z(X: FiniteGroup, n: int) -> Subquotient:
    """H_n(X, Z) for n >= 1, from the bar chain complex; cached.

    The chain complex is the transpose of the cochain complex: the boundary
    C_{m+1} -> C_m is bar_differential(X, m)^T.  In positive degree H_n is
    finite, so finite_homology_at reads it off one elimination of the
    incoming boundary bar_differential(X, n)^T and only checks the outgoing
    one.  By the universal coefficient theorem H^{n+1}(X, Z) =
    Ext(H_n(X, Z), Z) = Hom(H_n(X, Z), Q/Z), so the quotient has the
    canonical value of H^{n+1}(X, Z), read off a complex one degree
    shorter: the Schur multiplier H_2(X, Z) has the value of
    H^2(X, kx) = H^3(X, Z).

    It is refused (ResourceCapError) where H^{n+1}(X, Z) is refused by the
    row count of its d_out, (|X|-1)^{n+2}.  The incoming boundary's
    nonzeros are no measure of the elimination, which fills far beyond them
    (at |X| = 50, H_2 with U and U^-1 built took 20 s and 650 MB on a
    2-vCPU x86-64 VM).
    """
    if n < 1:
        raise ValidationError("integral homology is computed here for degree >= 1")
    key = ("homology", X.table, n)   # cohomology() keys start with a table
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
    if cached is None:
        capped_power(X.order - 1, n + 2, f"H_{n} as H^{n + 1}: d_out rows (|G|-1)^{n + 2}")
        cached = finite_homology_at(bar_differential(X, n - 1).transpose(),
                                    bar_differential(X, n).transpose())
        with _CACHE_LOCK:
            cached = _CACHE.setdefault(key, cached)
    return cached


# ---------------------------------------------------------------------------
# Induced maps


def pullback_matrix(phi: GroupHom, n: int) -> IntegerMatrix:
    """The cochain map C^n(target) -> C^n(source) precomposing with phi.

    Rows are source tuples; the row of a tuple whose image meets the
    identity is zero (normalized complexes).
    """
    src, dst = phi.source, phi.target
    nonid_src = src.nonidentity()
    nonid_dst = dst.nonidentity()
    ks, kd = len(nonid_src), len(nonid_dst)
    rows_n = capped_power(ks, n, "pullback matrix rows")
    if ks < 2:
        # the row count does not grow with n, but each row is an n-tuple
        check_cap(n, "pullback matrix tuple length")
    pos_dst = {g: i for i, g in enumerate(nonid_dst)}
    e = dst.identity
    entries = {}
    for row_idx, tup in enumerate(product(nonid_src, repeat=n)):
        col = 0
        dead = False
        for g in tup:
            img = phi(g)
            if img == e:
                dead = True
                break
            col = col * kd + pos_dst[img]
        if not dead:
            entries[(row_idx, col)] = 1
    return IntegerMatrix(rows_n, kd ** n, entries)


def inflation_map(q: GroupHom, n: int, coefficients: Coefficients = INTEGERS,
                  characteristic: int = 0) -> AbGroupMap:
    """Inflation H^n(G, A) -> H^n(E, A) along a surjection q: E -> G."""
    if not q.is_surjective:
        raise ValidationError("inflation needs a surjective homomorphism")
    degree, _ = _integral_degree(n, coefficients)
    src = cohomology(q.target, n, coefficients, characteristic)
    dst = cohomology(q.source, n, coefficients, characteristic)
    F = pullback_matrix(q, degree)
    return induced_map(F, src.subquotient, dst.subquotient)


def restriction_map(i: GroupHom, n: int, coefficients: Coefficients = INTEGERS,
                    characteristic: int = 0) -> AbGroupMap:
    """Restriction H^n(G, A) -> H^n(H, A) along an injection i: H -> G."""
    if not i.is_injective:
        raise ValidationError("restriction needs an injective homomorphism")
    degree, _ = _integral_degree(n, coefficients)
    src = cohomology(i.target, n, coefficients, characteristic)
    dst = cohomology(i.source, n, coefficients, characteristic)
    F = pullback_matrix(i, degree)
    return induced_map(F, src.subquotient, dst.subquotient)


def inflation_kernel_trivial(q: GroupHom, integral_degree: int) -> bool:
    """Is inflation injective on H^degree(G, Z) along the surjection q: E -> G?

    Builds neither E's outgoing differential nor the cached H^degree(E, Z).
    A trivial source is injective vacuously.  A section s of q (a split
    extension, which covers every split gerbe and every fiber with
    gcd(r, |G|) = 1) certifies it in every degree, since s* after q* is
    (q s)* = id; no bar complex of E is built.  Otherwise the question is
    answered in homology one degree down: for a finite group and n >= 2 the
    universal coefficient theorem gives H^n(-, Z) = Ext(H_{n-1}(-, Z), Z)
    = Hom(H_{n-1}(-, Z), Q/Z), naturally, and that duality is exact on
    finite groups, so q* is injective on H^n exactly when
    q_*: H_{n-1}(E, Z) -> H_{n-1}(G, Z) is surjective (Brown, Cohomology
    of Groups, III.1, with the universal coefficient theorem).
    """
    if not q.is_surjective:
        raise ValidationError("inflation needs a surjective homomorphism")
    src = cohomology_Z(q.target, integral_degree)
    if src.value.is_trivial:
        return True
    if src.value.free_rank:
        raise ValidationError("expected a finite cohomology group")
    if section(q) is not None:
        return True
    return _kernel_trivial_by_homology(q, src)


def pushforward_classes(q: GroupHom, m: int, cycles) -> list:
    """The classes in H_m(G, Z) (homology_Z) of q_# z for the m-cycles z of
    E, for q: E -> G.

    The bar chain complex is the transpose of the cochain complex, so q_#
    on C_m is pullback_matrix(q, m)^T.  reduce raises
    NotChainCompatibleError on a pushed-forward chain that is not a cycle.
    """
    H = homology_Z(q.target, m)
    push = pullback_matrix(q, m).transpose()
    return [H.reduce(push.apply(z)) for z in cycles]


def _kernel_trivial_by_homology(q: GroupHom, src: CohomologyGroup) -> bool:
    """Is inflation injective on src = H^n(G, Z), n >= 2?  That is, is
    q_*: H_{n-1}(E, Z) -> H_{n-1}(G, Z) onto (see inflation_kernel_trivial)?

    The boundary C_{m+1} -> C_m of the bar chain complex is
    bar_differential(X, m)^T, so the cycles of E in degree n - 1 are a
    kernel basis of bar_differential(E, n - 2)^T; pushforward_classes
    carries them into the cached H_{n-1}(G, Z) of homology_Z.  The
    distinct classes they reach generate the image, and the answer is
    whether the map from the free group on them is surjective.
    """
    G, E, n = q.target, q.source, src.degree
    cycles = kernel_basis(bar_differential(E, n - 2).transpose())
    images = sorted(set(pushforward_classes(q, n - 1, cycles.col_view().values())))
    H = homology_Z(G, n - 1).quotient
    f = AbGroupMap(FinAbGroup.free(len(images)), H, IntegerMatrix.from_columns(
        H.num_generators, (dict(enumerate(img)) for img in images)))
    return is_surjective(f)


# ---------------------------------------------------------------------------
# Bockstein


def bockstein(G: FiniteGroup, cochain: dict, degree: int, r: int) -> CohomologyClass:
    """Integral Bockstein of a normalized mod-r cocycle of the given degree.

    Lifts the cochain to integers, applies the bar differential, divides
    by r, and returns the class of the result in H^{degree+1}(G, Z).  The
    bar differential is the boundary basis of the cached H^{degree+1}(G, Z).
    """
    if r < 1:
        raise ValidationError("modulus must be >= 1")
    target = cohomology_Z(G, degree + 1)
    image = target.subquotient.boundary_basis.apply(cochain)
    for v in image.values():
        if v % r:
            raise InvariantViolationError("input cochain is not a cocycle mod r")
    divided = {k: v // r for k, v in image.items() if v // r}
    return target.class_of(divided)


def bockstein_r(G: FiniteGroup, c: Cocycle2) -> CohomologyClass:
    """Bockstein of a 2-cocycle class: an element of H^2(G, kx) = H^3(G, Z)."""
    if c.base != G:
        raise ValidationError("cocycle is not defined over the given group")
    return bockstein(G, c.to_vector(), 2, c.modulus)


# ---------------------------------------------------------------------------
# Extension-class enumeration (lives here to keep groups.py free of cohomology)


def enumerate_extension_classes(G: FiniteGroup, r: int):
    """One normalized 2-cocycle per class of H^2(G, Z/r).

    The list is ordered with the split class first, then all remaining
    coordinate combinations of the canonical generators.
    """
    H2 = cohomology_Zm(G, 2, r)
    if H2.value.free_rank:
        raise InvariantViolationError("H^2 with finite coefficients must be finite")
    out = []
    for cls in H2.all_classes():
        vec = H2.subquotient.lift_of(cls.coords)
        vec = {k: v % r for k, v in vec.items() if v % r}
        out.append(Cocycle2.from_vector(G, r, vec))
    return out
