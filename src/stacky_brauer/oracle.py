"""Independent verification paths for the cohomology engine.

Routes that share only the integer linear algebra with the engine's
values: the full (un-normalized) standard complex, closed forms for
cyclic groups, exhaustive cocycle enumeration for tiny inputs,
integral homology off the normalized bar chain complex (homology_Z), and
the integral Bockstein off the bar complex (bockstein).  No reported value
passes through them; `cohomology --verify` runs the first two.
"""

from __future__ import annotations

from importlib import import_module
from itertools import product
from math import gcd

from . import abelian
from .abelian import (
    AbGroupMap,
    FinAbGroup,
    IntegerMatrix,
    Subquotient,
    capped_power,
    cokernel,
    finite_homology_at,
    kernel_basis,
    memo,
)
from .cohomology import Coefficients, CohomologyClass, CohomologyGroup, INTEGERS
from .errors import InvariantViolationError, ResourceCapError, ValidationError
from .groups import FiniteGroup, GroupHom
from .records import Record

# the engine's module (the package's `cohomology` is the function)
_engine = import_module(".cohomology", __package__)

__all__ = [
    "OracleResult", "ORACLE_CAP", "ORACLE_ELIMINATION_BUDGET",
    "full_bar_differential", "full_bar_cohomology", "homology_Z", "bockstein",
    "cyclic_closed_form", "brute_cocycles", "brute_hom_from_presentation",
    "determinant", "smith_normal_form", "image_group", "kernel_group",
    "are_isomorphic", "resolution_boundary",
]

ORACLE_CAP = 500_000
# rows x columns of the d_out that full_bar_cohomology diagonalizes: over
# every query of the tests (Z/6 in degree 4, 7776 x 1296), under H^4 of a
# group of order 12 (248,832 x 20,736), which ran for minutes with V and
# V^-1 tracked; kept so that `cohomology --verify` skips the same queries
ORACLE_ELIMINATION_BUDGET = 100_000_000


class OracleResult(Record):
    _fields = ("description", "value", "method")

    def __init__(self, description: str, value: FinAbGroup, method: str):
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "method", method)


def full_bar_differential(G: FiniteGroup, n: int) -> IntegerMatrix:
    """d: C^n -> C^{n+1} on the full standard complex (all tuples, trivial action)."""
    N = G.order
    rows_n = capped_power(N, n + 1, "full bar complex", cap=ORACLE_CAP)
    if N < 2 and (n + 1) * (n + 2) > ORACLE_CAP:
        # one row's n + 2 faces of up to n + 1 entries are held at once
        raise ResourceCapError((n + 1) * (n + 2), ORACLE_CAP, "full bar faces of one row")
    mul = G.mul
    elements = tuple(range(N))
    entries = {}
    for row_idx, tup in enumerate(product(elements, repeat=n + 1)):
        faces = [(tup[1:], 1)]
        sign = -1
        for i in range(n):
            faces.append((tup[:i] + (mul(tup[i], tup[i + 1]),) + tup[i + 2:], sign))
            sign = -sign
        faces.append((tup[:n], sign))
        for face, s in faces:
            col = 0
            for g in face:
                col = col * N + g
            key = (row_idx, col)
            nv = entries.get(key, 0) + s
            if nv:
                entries[key] = nv
            elif key in entries:
                del entries[key]
    return IntegerMatrix(rows_n, N ** n, entries)


def full_bar_cohomology(G: FiniteGroup, n: int, coefficients: Coefficients = INTEGERS) -> OracleResult:
    """H^n via the full standard complex; must equal the normalized engine.

    The value is read off untracked diagonalizations of d_in and d_out
    (abelian.cokernel), once d_out @ d_in = 0 is checked.  With N cochains
    H^n(G, Z) = Z^(N - rk d_in - rk d_out) + tors coker d_in, and with Z/m
    coefficients, H^n(G, Z) (x) Z/m + Tor(H^{n+1}(G, Z), Z/m): (Z/m)^(the
    same rank) + the Z/gcd(a_i, m) + the Z/gcd(b_j, m), over the invariant
    factors a_i of coker d_in and b_j of coker d_out.  Refused
    (ResourceCapError) when d_out has more than ORACLE_ELIMINATION_BUDGET
    entries counting zeros, or more than ORACLE_CAP rows.
    """
    if coefficients.kind == "units":
        if n < 1:
            raise ValidationError("units cohomology needs degree >= 1")
        inner = full_bar_cohomology(G, n + 1, INTEGERS)
        return OracleResult(f"H^{n}(G, kx) via full bar shift", inner.value, "full-bar")
    modulus = coefficients.modulus if coefficients.kind == "Zm" else 0
    # d_out is |G|^(n+1) x |G|^n; it is refused before it is built
    capped_power(G.order, 2 * n + 1, "full bar d_out rows x columns",
                 cap=ORACLE_ELIMINATION_BUDGET)
    d_out = full_bar_differential(G, n)
    d_in = full_bar_differential(G, n - 1) if n else IntegerMatrix(1, 0)
    abelian._check_chain(d_out, d_in, 0)
    coker_in, coker_out = cokernel(d_in), cokernel(d_out)
    rank = coker_in.free_rank - (d_out.rows - coker_out.free_rank)
    if modulus:
        torsion = coker_in.invariant_factors + coker_out.invariant_factors
        value = FinAbGroup.from_factors([modulus] * rank + [gcd(e, modulus) for e in torsion])
    else:
        value = FinAbGroup(rank, coker_in.invariant_factors)
    return OracleResult(f"H^{n}(G, {coefficients}) via full bar", value, "full-bar")


def homology_Z(X: FiniteGroup, n: int) -> Subquotient:
    """H_n(X, Z) for n >= 1 off the normalized bar chain complex, the tests'
    oracle for cohomology.resolution_homology_Z; cached beside the engine's
    values (cohomology.clear_cache drops it).

    The boundary C_{m+1} -> C_m is bar_differential(X, m)^T.  H_n is
    finite, so finite_homology_at reads it off one elimination of the
    incoming boundary and only checks the outgoing one; its quotient has the
    canonical value of H^{n+1}(X, Z) = Ext(H_n(X, Z), Z).  Refused
    (ResourceCapError) where the bar d_out of H^{n+1}(X, Z) has over the
    cap's (|X|-1)^{n+2} rows: the elimination fills far beyond the incoming
    boundary's nonzeros (H_2 at |X| = 50 took 20 s and 650 MB).
    """
    if n < 1:
        raise ValidationError("integral homology is computed here for degree >= 1")

    def build():
        capped_power(X.order - 1, n + 2, f"H_{n} as H^{n + 1}: d_out rows (|G|-1)^{n + 2}")
        return finite_homology_at(_engine.bar_differential(X, n - 1).transpose(),
                                  _engine.bar_differential(X, n).transpose())

    return memo(("homology", X.table, n), build)


def bockstein(G: FiniteGroup, cochain: dict, degree: int, r: int) -> CohomologyClass:
    """Integral Bockstein of a normalized mod-r cocycle of the given degree,
    off the bar complex: the tests' oracle for cohomology.bockstein_r.

    Lifts the cochain to integers, applies the bar differential, divides
    by r, and returns the class of the result in H^{degree+1}(G, Z), in the
    bar generators of that group's class_of.  The bar differential is the
    boundary basis of its classes.  In degree 2 it has bockstein_r's
    order, and where H^3(G, Z) is neither 0 nor Z/2 its coordinates may
    differ from bockstein_r's by an automorphism.
    """
    if r < 1:
        raise ValidationError("modulus must be >= 1")
    target = _engine.cohomology_Z(G, degree + 1)
    image = target.subquotient.boundary_basis.apply(cochain)
    for v in image.values():
        if v % r:
            raise InvariantViolationError("input cochain is not a cocycle mod r")
    divided = {k: v // r for k, v in image.items() if v // r}
    return target.class_of(divided)


def resolution_boundary(R: _engine.FreeResolution, n: int) -> IntegerMatrix:
    """d_n of the free resolution R as an integer matrix, |E| * k_{n-1} x
    |E| * k_n, column (i, g) at index i * |E| + g: formed afresh from the
    generators' boundaries R.boundary(n), never from the translates R
    holds for its next echelon."""
    N = R.group.order
    return IntegerMatrix.from_columns(
        N * R.rank(n - 1), (R.translate(g, d) for d in R.boundary(n) for g in range(N)))


def _kernel_trivial_by_homology(q: GroupHom, src: CohomologyGroup) -> bool:
    """The bar oracle of cohomology.inflation_kernel_trivial's homology
    route: is q_*: H_{n-1}(E, Z) -> H_{n-1}(G, Z) onto, for src = H^n(G, Z)?

    E's (n-1)-cycles are a kernel basis of bar_differential(E, n - 2)^T,
    pushed forward by pullback_matrix(q, n - 1)^T and reduced in
    homology_Z(G, n - 1), which raises NotChainCompatibleError on a
    non-cycle.
    """
    n = src.degree
    H = homology_Z(q.target, n - 1)
    push = _engine.pullback_matrix(q, n - 1).transpose()
    cycles = kernel_basis(_engine.bar_differential(q.source, n - 2).transpose())
    return _engine._generate(
        [H.reduce(push.apply(z)) for z in cycles.col_view().values()], H.quotient)


def cyclic_closed_form(n: int, degree: int, coefficients: Coefficients) -> OracleResult:
    """Exact cohomology of Z/n with trivial action, from the periodic resolution."""
    if n < 1:
        raise ValidationError("cyclic order must be >= 1")
    if degree < 0:
        raise ValidationError("degree must be nonnegative")
    if coefficients.kind == "units":
        if degree < 1:
            raise ValidationError("units closed form needs degree >= 1")
        value = FinAbGroup.cyclic(n) if degree % 2 == 1 else FinAbGroup.trivial()
    elif coefficients.kind == "Z":
        if degree == 0:
            value = FinAbGroup.free(1)
        elif degree % 2 == 1:
            value = FinAbGroup.trivial()
        else:
            value = FinAbGroup.cyclic(n)
    else:
        m = coefficients.modulus
        value = FinAbGroup.cyclic(m) if degree == 0 else FinAbGroup.cyclic(gcd(n, m))
    return OracleResult(f"H^{degree}(Z/{n}, {coefficients}) closed form",
                        value, "periodic-cyclic")


# ---------------------------------------------------------------------------
# Brute-force cocycle enumeration


def _type_from_order_counts(reps, order_of_multiple_zero, group_order):
    """Recover an abelian group's invariant factors from order statistics.

    reps is the element list; order_of_multiple_zero(k, x) says whether
    k*x = 0.  For abelian groups the counts of solutions of p^k x = 0
    determine the isomorphism type.
    """
    if group_order == 1:
        return FinAbGroup.trivial()
    primes = []
    left = group_order
    p = 2
    while p * p <= left:
        if left % p == 0:
            primes.append(p)
            while left % p == 0:
                left //= p
        p += 1
    if left > 1:
        primes.append(left)
    parts = []
    for p in primes:
        counts = [1]
        k = 1
        while counts[-1] < group_order:
            c = sum(1 for x in reps if order_of_multiple_zero(p ** k, x))
            if c == counts[-1]:
                break
            counts.append(c)
            k += 1
        # a_k = #(cyclic p-power factors of order >= p^k)
        a = []
        for k in range(1, len(counts)):
            ratio = counts[k] // counts[k - 1]
            e = 0
            while ratio > 1:
                ratio //= p
                e += 1
            a.append(e)
        lam = []
        for k, ak in enumerate(a, start=1):
            while len(lam) < ak:
                lam.append(0)
            for i in range(ak):
                lam[i] = k
        parts.extend(p ** e for e in lam if e)
    return FinAbGroup.from_factors(parts)


def brute_cocycles(G: FiniteGroup, n: int, m: int) -> OracleResult:
    """H^n(G, Z/m) for n <= 2 by exhaustive normalized-cochain enumeration.

    Enumerates every normalized n-cochain table, filters cocycles, and
    quotients by the explicitly enumerated coboundary set.  The group
    structure is recovered from order statistics, and |Z|/|B| is
    cross-checked against the resulting order.
    """
    if n not in (0, 1, 2):
        raise ValidationError("brute enumeration is limited to degrees 0..2")
    if m < 1:
        raise ValidationError("modulus must be >= 1")
    nonid = G.nonidentity()
    dim = len(nonid) ** n
    if dim * max((m - 1).bit_length(), 1) > 24 or m ** dim > 2 ** 24:
        raise ResourceCapError(m ** dim, 2 ** 24, "brute cocycle enumeration")
    mul = G.mul
    e = G.identity
    pos = {g: i for i, g in enumerate(nonid)}
    k1 = len(nonid)

    def all_tables():
        return product(range(m), repeat=dim)

    if n == 0:
        cocycles = {(v,) for v in range(m)}
        boundaries = {(0,)}
    elif n == 1:
        # f(g) + f(h) = f(gh) with f(e) = 0, checked over nonidentity pairs
        checks = []
        for g in nonid:
            for h in nonid:
                gh = mul(g, h)
                checks.append((pos[g], pos[h], None if gh == e else pos[gh]))
        cocycles = set()
        for table in all_tables():
            if all((table[i] + table[j] - (table[k] if k is not None else 0)) % m == 0
                   for i, j, k in checks):
                cocycles.add(table)
        boundaries = {()} if dim == 0 else {(0,) * dim}
    else:
        # precompiled cocycle-identity checks over indices; None means a
        # normalized value that is identically zero
        def pair_idx(g, h):
            return None if (g == e or h == e) else pos[g] * k1 + pos[h]

        checks = []
        for g in nonid:
            for h in nonid:
                gh = mul(g, h)
                a = pair_idx(g, h)
                for k in nonid:
                    checks.append((a, pair_idx(gh, k), pair_idx(h, k),
                                   pair_idx(g, mul(h, k))))
        cocycles = set()
        for table in all_tables():
            ok = True
            for a, b, c, d in checks:
                lhs = (table[a] if a is not None else 0) + (table[b] if b is not None else 0)
                rhs = (table[c] if c is not None else 0) + (table[d] if d is not None else 0)
                if (lhs - rhs) % m:
                    ok = False
                    break
            if ok:
                cocycles.add(table)
        boundaries = set()
        for u in product(range(m), repeat=k1):
            tab = []
            for g in nonid:
                ug = u[pos[g]]
                for h in nonid:
                    gh = mul(g, h)
                    ugh = 0 if gh == e else u[pos[gh]]
                    tab.append((ug + u[pos[h]] - ugh) % m)
            boundaries.add(tuple(tab))

    if dim == 0:
        cocycles = {()} if n else cocycles
    n_classes, den = len(cocycles), len(boundaries)
    if n_classes % den:
        raise ValidationError("coboundary count does not divide cocycle count")
    n_classes //= den

    b_list = sorted(boundaries)
    seen = set()
    reps = []
    for z in sorted(cocycles):
        coset = min(tuple((zi + bi) % m for zi, bi in zip(z, b)) for b in b_list) \
            if z else z
        if coset not in seen:
            seen.add(coset)
            reps.append(coset)
    if len(reps) != n_classes:
        raise ValidationError("coset count mismatch in brute enumeration")

    def multiple_is_zero(k, x):
        return tuple((k * v) % m for v in x) in boundaries if x else True

    value_group = _type_from_order_counts(reps, multiple_is_zero, n_classes)
    if value_group.order() != n_classes:
        raise ValidationError("order-statistics reconstruction failed")
    return OracleResult(f"H^{n}(G, Z/{m}) brute force ({n_classes} classes)",
                        value_group, "brute-cocycle")


def brute_hom_from_presentation(genus: int, orders, r: int) -> FinAbGroup:
    """Hom of the orbifold abelianization into Z/r by direct enumeration.

    The abelianization is free on 2*genus generators plus torsion
    generators g_i with n_i g_i = 0 and sum g_i = 0.  A homomorphism is a
    choice of images; the valid choices form a group recovered here from
    order statistics, independently of any matrix algebra.
    """
    if r < 1:
        raise ValidationError("modulus must be >= 1")
    orders = list(orders)
    n = len(orders)
    if r ** n > 2 ** 22:
        raise ResourceCapError(r ** n, 2 ** 22, "hom enumeration")
    valid = []
    for assign in product(range(r), repeat=n):
        if any((ni * x) % r for ni, x in zip(orders, assign)):
            continue
        if sum(assign) % r:
            continue
        valid.append(assign)
    count = len(valid) * (r ** (2 * genus))

    def multiple_is_zero(k, x):
        return all((k * v) % r == 0 for v in x)

    torsion_part = _type_from_order_counts(valid, multiple_is_zero, len(valid))
    free_images = FinAbGroup.from_factors([r] * (2 * genus))
    return torsion_part.direct_sum(free_images)


# ---------------------------------------------------------------------------
# Helpers with no caller in the engine: the tests' checks of its linear
# algebra and of the groups it builds


def determinant(M: IntegerMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination (small dense use)."""
    if M.rows != M.cols:
        raise ValidationError("determinant needs a square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = M.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(M: IntegerMatrix):
    """Smith normal form S = U @ M @ V with U, V unimodular.

    S is diagonal with d1 | d2 | ... and all d_i >= 0 (nonzero entries
    first).  Raises ResourceCapError when M exceeds the entry budget.
    """
    elim = abelian._Elim(M, rows=True, cols=True).diagonalize()
    elim.canonicalize()
    urows, _ = abelian._replay_rows(elim.row_ops)
    vcols, _ = abelian._replay_rows(elim.col_ops)

    k = len(elim.pivots)
    # permutations completing pivot order to full row/col orderings
    row_order = [r for r, _ in elim.pivots] + sorted(set(range(M.rows)) - elim._pivot_rows)
    col_order = [c for _, c in elim.pivots] + sorted(set(range(M.cols)) - elim._pivot_cols)
    s_entries = {(i, i): elim.pivot_value(i) for i in range(k)}
    S = IntegerMatrix(M.rows, M.cols, s_entries)

    u_entries = {}
    for i, r in enumerate(row_order):
        for c, v in abelian._identity_vector(urows, r).items():
            u_entries[(i, c)] = v
    U = IntegerMatrix(M.rows, M.rows, u_entries)

    v_entries = {}
    for j, c in enumerate(col_order):
        for r, v in abelian._identity_vector(vcols, c).items():
            v_entries[(r, j)] = v
    V = IntegerMatrix(M.cols, M.cols, v_entries)
    return S, U, V


def image_group(f: AbGroupMap) -> FinAbGroup:
    """The image of f, as an abstract group (source modulo kernel lattice)."""
    return cokernel(abelian._map_solver(f).cycle_basis)


def kernel_group(f: AbGroupMap) -> FinAbGroup:
    """The kernel of f as an abstract group: kernel lattice modulo source relations.

    The source relations d_i * e_i lie in the kernel lattice; their
    coordinates in its basis are read off the one elimination of
    _CycleSolver, and the kernel is the cokernel of those columns.
    """
    solver = abelian._map_solver(f)
    rel = [solver.coords({i: d}) for i, d in enumerate(f.source.invariant_factors)]
    return cokernel(IntegerMatrix.from_columns(solver.cycle_basis.cols, rel))


def are_isomorphic(G: FiniteGroup, H: FiniteGroup, max_order: int = 16) -> bool:
    """Brute-force isomorphism test for groups of order <= max_order."""
    if G.order != H.order:
        return False
    if G.order > max_order:
        raise ValidationError(f"isomorphism testing is capped at order {max_order}")
    if G.element_orders() != H.element_orders():
        return False
    if G.is_abelian != H.is_abelian:
        return False
    # imported here: cohomology --verify loads this module, not extensions
    from .extensions import _extend_hom, _generating_sequence

    gens = _generating_sequence(G)
    by_order = {}
    for h in range(H.order):
        by_order.setdefault(H.element_order(h), []).append(h)

    def backtrack(i, images):
        if i == len(gens):
            phi = _extend_hom(G, H, gens, images)
            return phi is not None and len(set(phi.values())) == H.order
        need = G.element_order(gens[i])
        for h in by_order.get(need, ()):
            if backtrack(i + 1, images + [h]):
                return True
        return False

    return backtrack(0, [])
