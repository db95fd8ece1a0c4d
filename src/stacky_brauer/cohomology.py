"""Group cohomology with trivial coefficients, valued off free resolutions.

Computes H^n(G, Z), H^n(G, Z/m), and H^n(G, kx) for a finite group G
acting trivially, together with inflation and restriction maps and the
integral Bockstein of a mod-r cocycle.

Multiplicative-group coefficients are handled through the shift
H^n(G, kx) = H^{n+1}(G, Z) for n >= 1, which is valid over an
algebraically closed field whose characteristic does not divide |G|
(the unit group is then divisible with full prime-to-p torsion).  The
characteristic enters only through that tameness check.

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
(FreeResolution.bar_chains).

The normalized bar complex serves cocycle classes alone: a
CohomologyGroup's representatives and class_of, the extension classes,
and bockstein_r's coordinates where |H^3(G, Z)| > 2.  They are built on
first use, checked against the value, and refused where bar_differential
is over the cap.  With Z coefficients in positive degree they are the
torsion of coker(d_in), d_in: C^{n-1} -> C^n (abelian.finite_homology_at);
otherwise abelian.homology_at eliminates d_out, augmented by m*I for Z/m,
for a cycle basis.  The bar homology is the tests' oracle (oracle.py).
"""
from __future__ import annotations

import threading
from functools import cached_property
from itertools import product
from math import gcd

from . import abelian, groups
from .abelian import (
    AbGroupMap,
    ColumnEchelon,
    FinAbGroup,
    IntegerMatrix,
    IntegerSpan,
    Subquotient,
    capped_power,
    check_cap,
    finite_homology_at,
    homology_at,
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
from .records import Record

__all__ = [
    "Coefficients", "INTEGERS", "UNITS", "mod_coefficients",
    "CohomologyGroup", "CohomologyClass", "bar_differential",
    "cohomology", "cohomology_Z", "cohomology_Zm", "cohomology_units",
    "FreeResolution", "free_resolution",
    "resolution_homology_Z", "comparison_chains", "comparison_classes",
    "pullback_matrix", "inflation_map", "restriction_map",
    "inflation_kernel_trivial", "bockstein", "bockstein_r",
    "enumerate_extension_classes", "clear_cache",
]


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
    keeps the eliminations well-conditioned.  Refused (ResourceCapError)
    before it is built when its rows, (|G|-1)^(n+1), are over the cap; for
    |G| <= 2, where they do not grow with n, when the n + 2 faces of up to
    n + 1 entries of one row are.
    """
    if n < 0:
        raise ValidationError("degree must be nonnegative")
    k = G.order - 1
    rows_n = capped_power(k, n + 1, f"bar differential rows (|G|-1)^{n + 1}")
    if k < 2:
        check_cap((n + 1) * (n + 2), "bar differential faces of one row")
    nonid = G.nonidentity()
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
    return IntegerMatrix(rows_n, k ** n, entries)


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
    """An element of a computed cohomology group, in generator coordinates."""

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


_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def clear_cache() -> None:
    """Drop every cached value: cohomology groups, free resolutions, the
    central extensions of groups.central_extension and the cyclic groups of
    groups.cyclic."""
    with _CACHE_LOCK:
        _CACHE.clear()
    groups._EXTENSIONS.clear()
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
    first use (_bar_classes), refused where bar_differential is.
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
        value = _universal_coefficients(G, degree, modulus)
        cached = Subquotient((G.order - 1) ** degree, value,
                             _bar_classes(G, degree, modulus, value))
        with _CACHE_LOCK:
            cached = _CACHE.setdefault(key, cached)
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
    """The deferred build of the classes of H^degree(G, Z or Z/modulus) off the bar complex.

    With Z coefficients in positive degree the group is finite, and
    finite_homology_at reads it off d_in alone; otherwise homology_at
    eliminates d_out (augmented by modulus * I) for a cycle basis.  The
    quotient must equal value, or InvariantViolationError.
    """
    def build():
        d_out = bar_differential(G, degree)
        d_in = bar_differential(G, degree - 1) if degree else IntegerMatrix(1, 0)
        if degree and not modulus:
            full = finite_homology_at(d_out, d_in)
        else:
            full = homology_at(d_out, d_in, modulus)
        if full.quotient != value:
            raise InvariantViolationError(
                f"the bar complex gives {full.quotient} in degree {degree} "
                f"(modulus {modulus}), the universal coefficient theorem {value}")
        return full.classes()

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
    columns of d_{n+1}, in order; the first z_boundary(n + 1), which
    echelon(n + 1) asks for, takes them, and no later call holds them.

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
                    d = self.z_boundary(n)
                else:
                    d = IntegerMatrix(1, N, {(0, g): 1 for g in range(N)})
                ech = self._echelons[n] = ColumnEchelon(d)
        return ech

    def _kernel_generators(self) -> tuple:
        n = len(self._boundaries)
        N = self.group.order
        kernel = self.echelon(n).kernel()
        span = IntegerSpan()
        gens, translates = [], []
        full = False     # the span is ker d_n: saturated, of rank its nullity
        for v in sorted(kernel, key=len):
            if v in span:
                continue
            gens.append(v)
            for h in range(N):
                t = self.translate(h, v)
                translates.append(t)
                if not full:
                    span.add(t)
                    full = len(span.basis) == len(kernel) and span.is_saturated()
            if full:
                break
        self._translates[n + 1] = translates
        return tuple(gens)

    def z_boundary(self, n: int) -> IntegerMatrix:
        """d_n as an integer matrix, |E| * k_{n-1} x |E| * k_n; the first call
        takes the columns the greedy formed, later ones form them again."""
        N = self.group.order
        gens = self.boundary(n)
        columns = self._translates.pop(n, None)
        if columns is None:
            columns = (self.translate(g, d) for d in gens for g in range(N))
        return IntegerMatrix.from_columns(N * self.rank(n - 1), columns)

    def coinvariant_boundary(self, n: int) -> IntegerMatrix:
        """d_n (x)_E Z, k_{n-1} x k_n."""
        return self.coinvariants(n - 1, self.boundary(n))

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
    key = ("resolution", E.table)
    with _CACHE_LOCK:
        R = _CACHE.get(key)
        if R is None:
            R = _CACHE[key] = FreeResolution(E)
    return R


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
    key = ("resolution homology", X.table, n)
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
    if cached is None:
        R = free_resolution(X)
        cached = finite_homology_at(R.coinvariant_boundary(n),
                                    R.coinvariants(n, R.echelon(n).kernel()))
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

    Builds no bar complex.  By the exact duality H^n(-, Z) =
    Hom(H_{n-1}(-, Z), Q/Z) for n >= 2 (see the module docstring), and
    H^1(G, Z) = 0, a trivial H_{n-1}(G, Z) certifies a trivial source, and
    so does a section s of q (every split gerbe and every fiber with
    gcd(r, |G|) = 1) in every degree, since s* after q* is (q s)* = id.
    Otherwise q* is injective on H^n exactly when q_*: H_{n-1}(E, Z) ->
    H_{n-1}(G, Z) is onto, read off the two groups' free resolutions
    (_pushforward_onto).  Degree 0, where H^0(G, Z) = Z, is refused.
    """
    if not q.is_surjective:
        raise ValidationError("inflation needs a surjective homomorphism")
    n = integral_degree
    if n < 1:
        raise ValidationError("expected a finite cohomology group (degree >= 1)")
    if n == 1 or resolution_homology_Z(q.target, n - 1).quotient.is_trivial:
        return True
    if section(q) is not None:
        return True
    return _pushforward_onto(q, n - 1)


def comparison_chains(q: GroupHom, n: int) -> tuple:
    """psi_n(e_i) in R^G_n for the generators e_i of R^E_n, for q: E -> G; cached.

    psi: R^E -> R^G is the chain map over q between the groups'
    free_resolutions of the comparison theorem (Brown, Cohomology of
    Groups, I.7), E acting on R^G through q: psi_0(e_0) = (0, 1_G) and
    psi_n(e_i) = R^G.lift(n, psi_{n-1}(d e_i)), where psi_{n-1}(d e_i) is
    the sum of c * q(x) psi_{n-1}(e_j) over the terms c (j, x) of d_n(e_i).
    """
    if n < 0:
        raise ValidationError("degree must be nonnegative")
    if n == 0:
        return ({q.target.identity: 1},)
    key = ("comparison", q.source.table, q.target.table, q.image, n)
    with _CACHE_LOCK:
        cached = _CACHE.get(key)
    if cached is None:
        R, N = free_resolution(q.target), q.source.order
        prev = comparison_chains(q, n - 1)
        chains = []
        for d in free_resolution(q.source).boundary(n):
            y = {}
            for idx, c in d.items():
                for k, a in R.translate(q(idx % N), prev[idx // N]).items():
                    y[k] = y.get(k, 0) + c * a
            chains.append(R.lift(n, y))
        with _CACHE_LOCK:
            cached = _CACHE.setdefault(key, tuple(chains))
    return cached


def comparison_classes(q: GroupHom, m: int, cycles) -> list:
    """The classes in H_m(G, Z) (resolution_homology_Z) of (psi_m (x) Z)(z)
    for the m-cycles z of R^E (x)_E Z (comparison_chains), for q: E -> G."""
    H = resolution_homology_Z(q.target, m)
    psi = free_resolution(q.target).coinvariants(m, comparison_chains(q, m))
    return [H.reduce(psi.apply(z)) for z in cycles]


def _generate(images, H: FinAbGroup) -> bool:
    """Do the classes images (coordinates in H) generate H?"""
    images = sorted(set(images))
    f = AbGroupMap(FinAbGroup.free(len(images)), H, IntegerMatrix.from_columns(
        H.num_generators, (dict(enumerate(img)) for img in images)))
    return is_surjective(f)


def _pushforward_onto(q: GroupHom, m: int) -> bool:
    """Is q_*: H_m(E, Z) -> H_m(G, Z) onto, m >= 1?

    The m-cycles of R^E (x)_E Z are a kernel basis of d_m (x) Z,
    k_{m-1} x k_m, for E's free_resolution R^E; comparison_classes carries
    them into the cached H_m(G, Z) of resolution_homology_Z, and their
    distinct classes generate the image.
    """
    cycles = kernel_basis(free_resolution(q.source).coinvariant_boundary(m))
    return _generate(comparison_classes(q, m, cycles.col_view().values()),
                     resolution_homology_Z(q.target, m).quotient)


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
    """Bockstein of a 2-cocycle class: an element of H^2(G, kx) = H^3(G, Z).

    Read off H_2(G, Z) of G's free resolution, with no bar complex (Brown,
    Cohomology of Groups, III.1): the Bockstein of Z/r -> Z -> Z/r factors
    as delta after Z/r -> Q/Z, 1 -> 1/r, and for finite G, delta:
    H^2(G, Q/Z) -> H^3(G, Z) is an isomorphism and H^2(G, Q/Z) =
    Hom(H_2(G, Z), Q/Z).  So the class is the character z -> c(z)/r on
    H_2(G, Z) (_bockstein_order), whose order is the class's.  Where
    |H^3(G, Z)| <= 2 that order forces the coordinates; otherwise they are
    the bar Bockstein's (bockstein), whose order must agree with the
    character's, or InvariantViolationError.
    """
    if c.base != G:
        raise ValidationError("cocycle is not defined over the given group")
    order = _bockstein_order(G, c)
    target = cohomology_Z(G, 3)
    size = target.value.order()
    if size <= 2:
        if size % order:
            raise InvariantViolationError(
                f"a Bockstein of order {order} in H^3(G, Z) of order {size}")
        # () when H^3(G, Z) = 0; (0,) or (1,) when it is Z/2
        return CohomologyClass(target, (order - 1,) * target.value.num_generators)
    beta = bockstein(G, c.to_vector(), 2, c.modulus)
    if beta.order() != order:
        raise InvariantViolationError(
            f"the bar Bockstein has order {beta.order()}, its character on "
            f"H_2(G, Z) order {order}")
    return beta


def _bockstein_order(G: FiniteGroup, c: Cocycle2) -> int:
    """The order of the character z -> c(z)/r on H_2(G, Z): the lcm of
    r / gcd(c(z_j), r) over the lifts z_j of resolution_homology_Z(G, 2),
    each evaluated as c on its image under the free resolution's bar_chains(2).
    """
    H2 = resolution_homology_Z(G, 2)
    if H2.quotient.is_trivial:
        return 1
    r, values = c.modulus, c.values
    on_gens = [sum(v * values[x][g] for (x, g), v in chain.items())
               for chain in free_resolution(G).bar_chains(2)]
    order = 1
    for z in H2.lifts:
        value = sum(v * on_gens[i] for i, v in z.items())
        order = abelian.lcm(order, r // gcd(value, r))
    return order


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
