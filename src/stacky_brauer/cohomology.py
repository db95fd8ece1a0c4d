"""Group cohomology with trivial coefficients, valued off free resolutions.

Computes H^n(G, Z), H^n(G, Z/m), and H^n(G, kx) for a finite group G
acting trivially, together with inflation and restriction maps and the
Bockstein of an extension class.

Multiplicative-group coefficients are handled through the shift
H^n(G, kx) = H^{n+1}(G, Z) for n >= 1, which is valid over an
algebraically closed field whose characteristic does not divide |G|
(the unit group is then divisible with full prime-to-p torsion).  The
characteristic enters only through that tameness check; for every
coefficient kind it must be 0 or a prime (validate_characteristic).

cohomology() reads every value off homology, by the universal coefficient
theorem H^n(G, A) = Hom(H_n(G, Z), A) + Ext(H_{n-1}(G, Z), A) (Brown,
Cohomology of Groups, III.1), with H_n(X, Z), n >= 1, read off a small
free ZX-resolution R^X (FreeResolution, after G. Ellis, Computing group
resolutions, J. Symbolic Comput. 38 (2004)), whose ranks grow about
linearly with the degree where the bar complex has (|X|-1)^n cells.  Only
the resolution's own caps bound a value.  Each boundary d_n of R^X is
eliminated once, by column operations alone (abelian.ColumnEchelon): its
kernel gives the generators of R^X_{n+1} and the boundaries of H_n(X, Z),
and its echelon form the lifts of the chain map psi: R^E -> R^G over
q: E -> G (comparison_chains), which carries E's cycles into G's homology.
For a finite group and n >= 2 the same theorem gives an exact duality
H^n(-, Z) = Ext(H_{n-1}(-, Z), Z) = Hom(H_{n-1}(-, Z), Q/Z), so q* is
injective on H^n exactly when q_* is onto H_{n-1}, and the Schur
multiplier H_2(E, Z) has the value of H^2(E, kx) = H^3(E, Z).  The
Bockstein of an extension class (bockstein_r) is a character on
H_2(G, Z), through the chain map from R^G into the bar complex
(FreeResolution.bar_chains), and its coordinates are those of the dual
basis of H^3(G, Z) = Hom(H_2(G, Z), Q/Z): no bar differential is built.

The normalized bar complex serves cocycle classes alone: a
CohomologyGroup's representatives and class_of, and the extension
classes.  They are built on first use, checked against the value, and
refused where bar_differential is over the cap.  With Z coefficients in
positive degree they are the torsion of coker(d_in), d_in: C^{n-1} ->
C^n (abelian.finite_homology_at); otherwise abelian.homology_at
eliminates d_out, augmented by m*I for Z/m, for a cycle basis.  The bar homology and the bar Bockstein are the
tests' oracles (oracle.py).

This module holds what a value runs: the coefficients, the cohomology
groups, cohomology() and the free resolutions, kept by abelian.memo.  The bar
complex and its classes, inflation and restriction, the comparison maps,
the Bockstein and the extension classes live in cohomology_maps.  This
module serves their names on first use (PEP 562 __getattr__), and also
the names of abelian_maps that its callers read here, such as
homology_at and induced_map, so every import of them from here still
works and a process that only computes values never compiles them.  The
package binds this module's name to the function cohomology, so other
modules reach the module itself through importlib.import_module.
"""
from __future__ import annotations

import threading
from functools import cached_property
from importlib import import_module
from itertools import product
from math import gcd, isqrt

from . import abelian, groups
from .abelian import (
    ColumnEchelon,
    FinAbGroup,
    IntegerMatrix,
    IntegerSpan,
    Subquotient,
    check_cap,
    finite_homology_at,
    memo,
)
from .errors import (
    InvariantViolationError,
    TamenessError,
    ValidationError,
)
from .groups import FiniteGroup
from .records import Record

__all__ = [
    "Coefficients", "INTEGERS", "UNITS", "mod_coefficients",
    "CohomologyGroup", "CohomologyClass", "bar_differential",
    "cohomology", "cohomology_Z", "cohomology_Zm", "cohomology_units",
    "FreeResolution", "free_resolution",
    "resolution_homology_Z", "comparison_chains", "comparison_classes",
    "pullback_matrix", "inflation_map", "restriction_map",
    "inflation_kernel_trivial", "bockstein_r",
    "enumerate_extension_classes", "clear_cache",
]

# The names served on first use: every function cohomology_maps defines,
# and the names of abelian_maps that this module's callers read here.
_MAPS = dict.fromkeys((
    "_generate", "_pushforward_onto", "bar_classes",
    "bar_differential", "bockstein_r", "comparison_chains",
    "comparison_classes", "enumerate_extension_classes", "inflation_kernel_trivial",
    "inflation_map", "pullback_matrix", "restriction_map",
), "cohomology_maps") | dict.fromkeys((
    "AbGroupMap", "homology_at", "induced_map", "is_surjective", "kernel_basis",
), "abelian")


def __getattr__(name):
    module = _MAPS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __package__), name)
    return value


class Coefficients(Record):
    """Trivial-action coefficient tag: Z, Z/m, or the unit group kx."""

    _fields = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int = 0):
        # kind is "Z", "Zm" or "units"; modulus is m for "Zm", otherwise 0
        if kind not in ("Z", "Zm", "units"):
            raise ValidationError(f"unknown coefficient kind {kind!r}")
        if kind == "Zm" and modulus < 1:
            raise ValidationError("Z/m coefficients need m >= 1")
        if kind != "Zm" and modulus:
            raise ValidationError("modulus only applies to Z/m coefficients")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)

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


def validate_characteristic(p: int) -> None:
    """Refuse (ValidationError) a characteristic that is neither 0 nor a prime.

    Exact trial division by 2 and the odd numbers up to sqrt(p); their
    count is charged to the resource cap (ResourceCapError) before the
    first one.  cohomology() and curves.CurveSpec both check with it.
    """
    if p == 0:
        return
    if p >= 2:
        root = isqrt(p)
        check_cap(root // 2 + 1, "characteristic trial divisions")
        if p == 2 or p % 2 and all(p % d for d in range(3, root + 1, 2)):
            return
    raise ValidationError("characteristic must be 0 or a prime")


def validate_tameness(G: FiniteGroup, characteristic: int) -> None:
    """Refuse (TamenessError) a prime characteristic that divides |G|."""
    if characteristic and G.order % characteristic == 0:
        raise TamenessError(
            f"characteristic {characteristic} divides the group order {G.order}")


# ---------------------------------------------------------------------------
# Cohomology groups


class CohomologyGroup(Record):
    """H^degree(group, coefficients): canonical value plus cocycle representatives.

    representatives[i] is a sparse cochain vector over the normalized
    tuple basis for the i-th canonical generator; for units coefficients
    these are integral cochains one degree up.  The value is known on
    construction; representatives, class_of and the subquotient's classes
    are built off the bar complex on first use (see cohomology).  For
    integral and units coefficients in positive degree the generators are
    the U^-1 columns of the Smith form of d_in at the pivots other than 1,
    and class_of takes a cocycle's U rows there modulo the invariant
    factors.  Where the value forces no basis (as for (Z/2)^3), these
    generators are the ones that route chose.

    Two groups are equal when group, degree, coefficients and value are:
    the classes come from the bar complex of the group, which its table
    fixes, so the subquotient (built anew after clear_cache) is not
    compared.
    """

    _fields = ("group", "degree", "coefficients", "value")

    def __init__(self, group: FiniteGroup, degree: int, coefficients: Coefficients,
                 value: FinAbGroup, subquotient: Subquotient):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "subquotient", subquotient)

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


class CohomologyClass(Record):
    """An element of a computed cohomology group, in generator coordinates.

    The coordinates are in the basis of whatever built the class: class_of's
    for the parent's own classes, the one dual to H_2(G, Z)'s generators for
    bockstein_r's.  Classes from the two are not to be added or compared.
    """

    _fields = ("parent", "coords")

    def __init__(self, parent: CohomologyGroup, coords: tuple):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "coords", coords)

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


# abelian.memo's store, where every value built once lives (perfbench's
# tracer counts cache misses by its length)
_CACHE = abelian._CACHE


def clear_cache() -> None:
    """Drop every cached value: abelian.memo's (cohomology groups, free
    resolutions, comparison chains, central extensions) and the cyclic
    groups of groups.cyclic."""
    abelian.clear_memo()
    groups._cyclic.cache_clear()


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
    """H^n(G, coefficients) with trivial action: the value now, the classes on first use.

    The value is read off G's free resolution (_universal_coefficients),
    and refused (ResourceCapError) only where that resolution's caps refuse
    it (FreeResolution).  The classes are built off the bar complex on
    first use (_bar_classes), refused where bar_differential is.  A
    characteristic that is neither 0 nor a prime is refused
    (ValidationError), and with units coefficients one dividing |G|
    (TamenessError).
    """
    if n < 0:
        raise ValidationError("degree must be nonnegative")
    validate_characteristic(characteristic)
    if coefficients.kind == "units":
        validate_tameness(G, characteristic)
    degree, modulus = _integral_degree(n, coefficients)

    def build():
        value = _universal_coefficients(G, degree, modulus)
        return Subquotient((G.order - 1) ** degree, value,
                           _bar_classes(G, degree, modulus, value))

    cached = memo((G.table, degree, modulus), build)
    return CohomologyGroup(G, n, coefficients, cached.quotient, cached)


def _universal_coefficients(G: FiniteGroup, d: int, modulus: int) -> FinAbGroup:
    """H^d(G, A) = Hom(H_d, A) + Ext(H_{d-1}, A) for A = Z (modulus 0) or Z/modulus.

    H_0 = Z and H_n = H_n(G, Z) = resolution_homology_Z(G, n) below, which
    is finite, so Hom(H_d, Z) is Z for d = 0 and 0 above; Ext(Z/e, A) = A/eA
    and Ext(Z, A) = 0.
    """
    def H(n):
        return FinAbGroup.free(1) if n == 0 else resolution_homology_Z(G, n).quotient

    ext = H(d - 1).invariant_factors if d else ()
    if not modulus:
        return FinAbGroup(0 if d else 1, ext)
    # relation order 0 is a Z summand: Hom(Z, Z/m) = Z/m = Z/gcd(0, m)
    return FinAbGroup.from_factors([gcd(e, modulus) for e in H(d).relation_orders() + ext])


def _bar_classes(G: FiniteGroup, degree: int, modulus: int, value: FinAbGroup):
    """The deferred build of the classes of H^degree(G, Z or Z/modulus):
    cohomology_maps.bar_classes, imported when it first runs."""
    def build():
        return import_module(".cohomology_maps", __package__).bar_classes(
            G, degree, modulus, value)

    return build


def cohomology_Z(G: FiniteGroup, n: int) -> CohomologyGroup:
    return cohomology(G, n, INTEGERS)


def cohomology_Zm(G: FiniteGroup, n: int, m: int) -> CohomologyGroup:
    return cohomology(G, n, mod_coefficients(m))


def cohomology_units(G: FiniteGroup, n: int, characteristic: int = 0) -> CohomologyGroup:
    return cohomology(G, n, UNITS, characteristic)


# ---------------------------------------------------------------------------
# Free resolutions (the extension groups' route)


class FreeResolution:
    """A free ZE-resolution R -> Z of the trivial module, built up to the degree asked for.

    R_n = (ZE)^{k_n} has Z-basis (i, g), at index i * |E| + g, and E acts
    by h(i, g) = (i, hg); R_0 = ZE, augmented by (0, g) -> 1.  boundary(n)
    lists d_n(e_i) in R_{n-1} for the generators e_i of R_n.  Each d_n (the
    augmentation for n = 0) is eliminated once, into the ColumnEchelon
    d_n V = [H | 0] (echelon(n)), held under the resolution's lock and
    dropped with the resolution by clear_cache.  Its zero columns give a
    Z-basis of ker d_n, which serves twice: as the candidates for
    the generators of R_{n+1}, and, tensored down, as the incoming boundary
    of resolution_homology_Z, since im(d_{n+1}) = ker d_n.  H and V answer
    lift by forward substitution.

    The generators of R_{n+1} are chosen greedily from that basis (G.
    Ellis, Computing group resolutions, J. Symbolic Comput. 38 (2004)): a
    kernel vector is kept when it is not in the integer span of the
    E-translates of those kept before it.  Once every basis vector has been
    passed, that span is all of ker d_n, so R is exact.  A rational span
    would keep too few generators and give a complex that is not exact.
    The greedy stops early, adding no more translates and testing no more
    candidates, once the span has the nullity of d_n as its rank and +-1
    pivots: it is then saturated (IntegerSpan), so it is ker d_n and would
    keep nothing more.  The translates of the generators it kept are the
    columns of d_{n+1}, in order, and echelon(n + 1) eliminates in them:
    it takes them from the resolution and hands them to its ColumnEchelon,
    which keeps them as its H columns.  d_n is never formed as a matrix.

    Three resource caps bound it (ResourceCapError): the column count
    |E| * k_n of the kernel step of degree n, the bits the span of
    translates holds (IntegerSpan), and, before a walk to degree n starts
    (after the kernel step of degree 0), (n + 1) * 5 * |E| for its n + 1
    degrees.  5 * |E| entries a degree is a lower bound: the step forms
    d_n, whose |E| * k_n >= |E| columns have 2 or more entries each (no
    generator's boundary is one term), and the cyclic groups, whose rank-1
    resolutions are the smallest, keep 3 * |E| (Z/2) to 3.5 * |E| (Z/50)
    more.  The trivial group keeps none but costs 370 bytes and 8 us a
    degree, and is charged 5.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self._boundaries = []     # _boundaries[n - 1] = boundary(n)
        self._echelons = {}       # n -> ColumnEchelon of d_n (n = 0: the augmentation)
        self._translates = {}     # n -> the columns of d_n the greedy formed, until used
        self._bar_chains = {}     # n -> bar_chains(n)
        self._coinvariant_boundaries = {}   # n -> coinvariant_boundary(n)
        self._lock = threading.RLock()   # a kernel step reads the boundaries below it

    def rank(self, n: int) -> int:
        return len(self.boundary(n)) if n else 1

    def boundary(self, n: int) -> tuple:
        if n < 1:
            raise ValidationError("the resolution's boundaries start in degree 1")
        with self._lock:
            if len(self._boundaries) < n:
                self.echelon(0)
                check_cap((n + 1) * 5 * self.group.order,
                          f"resolution walk to degree {n}, 5 * |E| per degree")
            while len(self._boundaries) < n:
                self._boundaries.append(self._kernel_generators())
        return self._boundaries[n - 1]

    def translate(self, h: int, vec: dict) -> dict:
        """h * vec for h in E and vec in some R_n."""
        N, row = self.group.order, self.group.table[h]
        return {i - i % N + row[i % N]: v for i, v in vec.items()}

    def echelon(self, n: int) -> ColumnEchelon:
        """The ColumnEchelon of d_n, of the augmentation R_0 -> Z for n = 0; built once."""
        with self._lock:
            ech = self._echelons.get(n)
            if ech is None:
                N = self.group.order
                check_cap(N * self.rank(n), f"resolution kernel step |E| * k_{n}")
                if n:
                    columns = self._translates.pop(n, None)
                    if columns is None:
                        columns = [t for d in self.boundary(n) for t in self._translates_of(d)]
                    ech = ColumnEchelon(N * self.rank(n - 1), columns)
                else:
                    ech = ColumnEchelon(1, [{0: 1} for _ in range(N)])
                self._echelons[n] = ech
        return ech

    def _translates_of(self, vec: dict) -> list:
        """[h * vec for h in E], in the order of E, as translate gives them."""
        N = self.group.order
        terms = [(i - i % N, i % N, v) for i, v in vec.items()]
        return [{b + row[g]: v for b, g, v in terms} for row in self.group.table]

    def _kernel_generators(self) -> tuple:
        n = len(self._boundaries)
        kernel = self.echelon(n).kernel_view()
        span = IntegerSpan()
        gens, translates = [], []
        full = False     # the span is ker d_n: saturated, of rank its nullity
        for v in sorted(kernel, key=len):
            if v in span:
                continue
            gens.append(dict(v))   # a generator is kept: the echelon holds v
            for t in self._translates_of(v):
                translates.append(t)
                if not full:
                    span.add(t)
                    full = len(span.basis) == len(kernel) and span.is_saturated()
            if full:
                break
        self._translates[n + 1] = translates
        return tuple(gens)

    def coinvariant_boundary(self, n: int) -> IntegerMatrix:
        """d_n (x)_E Z, k_{n-1} x k_n; built once."""
        with self._lock:
            d = self._coinvariant_boundaries.get(n)
            if d is None:
                d = self._coinvariant_boundaries[n] = self.coinvariants(n - 1, self.boundary(n))
        return d

    def coinvariants(self, n: int, chains) -> IntegerMatrix:
        """The columns chains, vectors in R_n, tensored down to R_n (x)_E Z:
        k_n rows, each entry the sum of a block of |E| entries."""
        N = self.group.order
        entries = {}
        for i, d in enumerate(chains):
            for idx, v in d.items():
                key = (idx // N, i)
                entries[key] = entries.get(key, 0) + v
        return IntegerMatrix(self.rank(n), len(chains), entries)

    def bar_chains(self, n: int) -> tuple:
        """phi_n(e_i) in the normalized bar complex of E for the generators e_i
        of R_n, as {(x_1, ..., x_n): c} for the chain sum c [x_1|...|x_n]; built once.

        phi: R -> Bar(E) is the chain map over the identity built with the
        bar complex's contracting homotopy h(g_0[g_1|...]) = [g_0|g_1|...],
        which is 0 when g_0 = 1 (Brown, Cohomology of Groups, I.7):
        phi_0(e_0) = [] and phi_n(e_i) = h(phi_{n-1}(d_n e_i)), the sum of
        c c' [x|t] over the terms c (j, x) of d_n(e_i) with x != 1 and the
        terms c' [t] of phi_{n-1}(e_j).  Dropped with the resolution by
        clear_cache.
        """
        if n == 0:
            return ({(): 1},)
        with self._lock:
            chains = self._bar_chains.get(n)
            if chains is None:
                N, e = self.group.order, self.group.identity
                prev = self.bar_chains(n - 1)
                chains = []
                for d in self.boundary(n):
                    out = {}
                    for idx, c in d.items():
                        j, x = divmod(idx, N)
                        if x != e:
                            for t, c2 in prev[j].items():
                                out[(x,) + t] = out.get((x,) + t, 0) + c * c2
                    chains.append({k: v for k, v in out.items() if v})
                chains = self._bar_chains[n] = tuple(chains)
        return chains

    def lift(self, n: int, y: dict) -> dict:
        """An x in R_n with d_n x = y, for a boundary y in R_{n-1}, by forward
        substitution through echelon(n).  InvariantViolationError when y is
        not a boundary.
        """
        x = self.echelon(n).solve(y)
        if x is None:
            raise InvariantViolationError(f"not in the image of d_{n}")
        return x


def free_resolution(E: FiniteGroup) -> FreeResolution:
    """E's FreeResolution, cached beside the cohomology groups (clear_cache drops it)."""
    return memo(("resolution", E.table), lambda: FreeResolution(E))


def resolution_homology_Z(X: FiniteGroup, n: int) -> Subquotient:
    """H_n(X, Z) for n >= 1, the homology of R (x)_X Z for X's free_resolution; cached.

    H_n = ker(d_n (x) Z) / im(d_{n+1} (x) Z), and im(d_{n+1} (x) Z) is the
    image pi(ker d_n) of ker d_n = im d_{n+1} under the map pi: R_n ->
    R_n (x)_X Z that sums each block of |X| entries.  So the incoming
    boundary is pi of the kernel basis the degree-n echelon already gives
    (k_n rows), and R is built only through degree n: no generator of
    R_{n+1} is chosen.  In positive degree H_n is finite, so
    finite_homology_at reads it off that boundary alone.  Its cycles and
    lifts are vectors over the generators of R_n.  For q: E -> X it is
    also where comparison_classes reduces the images of E's cycles.
    """
    if n < 1:
        raise ValidationError("integral homology is computed here for degree >= 1")

    def build():
        R = free_resolution(X)
        return finite_homology_at(R.coinvariant_boundary(n),
                                  R.coinvariants(n, R.echelon(n).kernel_view()))

    return memo(("resolution homology", X.table, n), build)
