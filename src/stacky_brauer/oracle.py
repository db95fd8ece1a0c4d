"""Independent verification paths for the cohomology engine.

Three routes that share only the integer linear algebra with the main
engine: the full (un-normalized) standard complex, closed forms for
cyclic groups, and exhaustive cocycle/coboundary enumeration for tiny
inputs.  Tests use these to certify the normalized-complex engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd

from .abelian import FinAbGroup, IntegerMatrix, capped_power, homology_at
from .cohomology import Coefficients, INTEGERS
from .errors import ResourceCapError, ValidationError
from .groups import FiniteGroup

__all__ = [
    "OracleResult", "ORACLE_CAP",
    "full_bar_differential", "full_bar_cohomology",
    "cyclic_closed_form", "brute_cocycles", "brute_hom_from_presentation",
]

ORACLE_CAP = 500_000


@dataclass(frozen=True)
class OracleResult:
    description: str
    value: FinAbGroup
    method: str


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
    """H^n via the full standard complex; must equal the normalized engine."""
    if coefficients.kind == "units":
        if n < 1:
            raise ValidationError("units cohomology needs degree >= 1")
        inner = full_bar_cohomology(G, n + 1, INTEGERS)
        return OracleResult(f"H^{n}(G, kx) via full bar shift", inner.value, "full-bar")
    modulus = coefficients.modulus if coefficients.kind == "Zm" else 0
    d_out = full_bar_differential(G, n)
    d_in = full_bar_differential(G, n - 1) if n else IntegerMatrix(1, 0)
    sub = homology_at(d_out, d_in, modulus=modulus)
    return OracleResult(f"H^{n}(G, {coefficients}) via full bar", sub.quotient, "full-bar")


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
