"""Cocycle classes, induced maps and Bocksteins: cohomology off the value path.

The part of cohomology that a value never runs: the normalized bar
complex (bar_differential) and the classes built off it (bar_classes),
inflation and restriction, the chain map psi: R^E -> R^G between two free
resolutions over q: E -> G (comparison_chains, comparison_classes) and
the push-forward in homology read off it, the Bockstein of an extension
class (a character on H_2(G, Z), with no bar complex), and the extension
classes of H^2(G, Z/r).  See cohomology's docstring for the mathematics;
the bar Bockstein is the tests' oracle (oracle.bockstein).

cohomology serves every name here on first use (PEP 562), so
`from stacky_brauer.cohomology import bockstein_r` works as before, and
cohomology() reaches bar_classes only when a group's classes are first
asked for: a process that only computes values never compiles this
module.  Every call to a name that the benchmark's tracer or the tests
replace on cohomology (cohomology, bar_differential, pullback_matrix,
homology_at, induced_map, finite_homology_at) goes through that module,
so the replacement sees it.
"""
from __future__ import annotations

from importlib import import_module
from itertools import product

from .abelian import (
    FinAbGroup,
    IntegerMatrix,
    capped_power,
    check_cap,
    memo,
)
from .abelian_maps import AbGroupMap, is_surjective, kernel_basis
from .cohomology import (
    INTEGERS,
    CohomologyClass,
    Coefficients,
    _integral_degree,
    cohomology_Z,
    cohomology_Zm,
    free_resolution,
    resolution_homology_Z,
)
from .errors import InvariantViolationError, ValidationError
from .groups import FiniteGroup, GroupHom

# the value side's module (the package's `cohomology` is the function)
_coh = import_module(".cohomology", __package__)

__all__ = [
    "bar_differential", "bar_classes", "pullback_matrix", "inflation_map",
    "restriction_map", "inflation_kernel_trivial", "comparison_chains",
    "comparison_classes", "bockstein_r",
    "enumerate_extension_classes",
]


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


def bar_classes(G: FiniteGroup, degree: int, modulus: int, value: FinAbGroup):
    """The classes of H^degree(G, Z or Z/modulus) off the bar complex.

    With Z coefficients in positive degree the group is finite, and
    finite_homology_at reads it off d_in alone; otherwise homology_at
    eliminates d_out (augmented by modulus * I) for a cycle basis.  The
    quotient must equal value, or InvariantViolationError.  cohomology()
    calls this on the first use of the classes (cohomology._bar_classes).
    """
    d_out = _coh.bar_differential(G, degree)
    d_in = _coh.bar_differential(G, degree - 1) if degree else IntegerMatrix(1, 0)
    if degree and not modulus:
        full = _coh.finite_homology_at(d_out, d_in)
    else:
        full = _coh.homology_at(d_out, d_in, modulus)
    if full.quotient != value:
        raise InvariantViolationError(
            f"the bar complex gives {full.quotient} in degree {degree} "
            f"(modulus {modulus}), the universal coefficient theorem {value}")
    return full.classes()


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
    src = _coh.cohomology(q.target, n, coefficients, characteristic)
    dst = _coh.cohomology(q.source, n, coefficients, characteristic)
    F = _coh.pullback_matrix(q, degree)
    return _coh.induced_map(F, src.subquotient, dst.subquotient)


def restriction_map(i: GroupHom, n: int, coefficients: Coefficients = INTEGERS,
                    characteristic: int = 0) -> AbGroupMap:
    """Restriction H^n(G, A) -> H^n(H, A) along an injection i: H -> G."""
    if not i.is_injective:
        raise ValidationError("restriction needs an injective homomorphism")
    degree, _ = _integral_degree(n, coefficients)
    src = _coh.cohomology(i.target, n, coefficients, characteristic)
    dst = _coh.cohomology(i.source, n, coefficients, characteristic)
    F = _coh.pullback_matrix(i, degree)
    return _coh.induced_map(F, src.subquotient, dst.subquotient)


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
    # imported here: cohomology --verify loads this module, not extensions
    from .extensions import _has_section

    if _has_section(q):
        return True
    return _pushforward_onto(q, n - 1)


def comparison_chains(q: GroupHom, n: int) -> tuple:
    """psi_n(e_i) in R^G_n for the generators e_i of R^E_n, for q: E -> G; cached.

    psi: R^E -> R^G is the chain map over q between the groups'
    free_resolutions of the comparison theorem (Brown, Cohomology of
    Groups, I.7), E acting on R^G through q: psi_0(e_0) = (0, 1_G) and
    psi_n(e_i) = R^G.lift(n, psi_{n-1}(d e_i)), where psi_{n-1}(d e_i) is
    the sum of c * q(x) psi_{n-1}(e_j) over the terms c (j, x) of d_n(e_i).
    q(x) acts on psi_{n-1}(e_j) through G's table row of q(x), read in place
    (as FreeResolution._translates_of does), term by term in the order
    R.translate would give them.
    """
    if n < 0:
        raise ValidationError("degree must be nonnegative")
    if n == 0:
        return ({q.target.identity: 1},)

    def build():
        R, N, M = free_resolution(q.target), q.source.order, q.target.order
        table, image = q.target.table, q.image
        # psi_{n-1}(e_j) as (block, element, value) triples
        prev = [[(k - k % M, k % M, a) for k, a in chain.items()]
                for chain in comparison_chains(q, n - 1)]
        chains = []
        for d in free_resolution(q.source).boundary(n):
            y = {}
            for idx, c in d.items():
                j, x = divmod(idx, N)
                row = table[image[x]]
                for b, g, a in prev[j]:
                    k = b + row[g]
                    y[k] = y.get(k, 0) + c * a
            chains.append(R.lift(n, y))
        return tuple(chains)

    return memo(("comparison", q.source.table, q.target.table, q.image, n), build)


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


def bockstein_r(G: FiniteGroup, c: Cocycle2) -> CohomologyClass:
    """Bockstein of a 2-cocycle class: an element of H^2(G, kx) = H^3(G, Z).

    Read off H_2(G, Z) of G's free resolution, with no bar complex (Brown,
    Cohomology of Groups, III.1): the Bockstein of Z/r -> Z -> Z/r factors
    as delta after Z/r -> Q/Z, 1 -> 1/r, and for finite G, delta:
    H^2(G, Q/Z) -> H^3(G, Z) is an isomorphism and H^2(G, Q/Z) =
    Hom(H_2(G, Z), Q/Z).  So the class is the character z -> c(z)/r on
    H_2(G, Z), with c evaluated on the images of the lifts z_j of
    resolution_homology_Z(G, 2) under the free resolution's bar_chains(2).

    The coordinates are in the basis dual to those generators, e_j -> 1/d_j
    for their relation orders d_j (as in fibers._pontryagin_dual):
    coordinate j is c(z_j) d_j / r mod d_j.  d_j z_j is a boundary, on which
    a mod-r cocycle vanishes mod r, so r divides c(z_j) d_j, or
    InvariantViolationError.  H^3(G, Z) = Hom(H_2(G, Z), Q/Z) has the
    invariant factors d_j, but this basis is not the one of
    cohomology_Z(G, 3).class_of, whose generators come off the bar complex;
    where H^3(G, Z) is 0 or Z/2 the two agree, elsewhere they differ by an
    automorphism, so these classes are not to be added to or compared with
    class_of's.  The two groups must share their invariant factors, or
    InvariantViolationError.
    """
    if c.base != G:
        raise ValidationError("cocycle is not defined over the given group")
    H2 = resolution_homology_Z(G, 2)
    target = cohomology_Z(G, 3)
    if H2.quotient.relation_orders() != target.value.relation_orders():
        raise InvariantViolationError(
            f"H_2(G, Z) = {H2.quotient} is not dual to H^3(G, Z) = {target.value}")
    coords = []
    if not H2.quotient.is_trivial:
        r, values = c.modulus, c.values
        on_gens = [sum(v * values[x][g] for (x, g), v in chain.items())
                   for chain in free_resolution(G).bar_chains(2)]
        for z, d in zip(H2.lifts, H2.quotient.relation_orders()):
            value = sum(v * on_gens[i] for i, v in z.items()) * d
            if value % r:
                raise InvariantViolationError(
                    f"c(z) d = {value} is not a multiple of r = {r} for a "
                    f"generator z of order d = {d} of H_2(G, Z)")
            coords.append(value // r % d)
    return CohomologyClass(target, tuple(coords))


# ---------------------------------------------------------------------------
# Extension-class enumeration (lives here to keep extensions.py free of cohomology)


def enumerate_extension_classes(G: FiniteGroup, r: int):
    """One normalized 2-cocycle per class of H^2(G, Z/r).

    The list is ordered with the split class first, then all remaining
    coordinate combinations of the canonical generators.
    """
    # imported here: cohomology --verify loads this module, not extensions
    from .extensions import Cocycle2

    H2 = cohomology_Zm(G, 2, r)
    if H2.value.free_rank:
        raise InvariantViolationError("H^2 with finite coefficients must be finite")
    out = []
    for cls in H2.all_classes():
        vec = H2.subquotient.lift_of(cls.coords)
        vec = {k: v % r for k, v in vec.items() if v % r}
        out.append(Cocycle2.from_vector(G, r, vec))
    return out
