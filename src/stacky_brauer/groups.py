"""Finite groups as validated multiplication tables.

Covers the constructions the pipeline needs: cyclic groups, direct
products, the node-example semidirect products mu_n x| Z/2, central
extensions of a group by Z/r built from normalized 2-cocycles, and a
search for sections of a surjection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .abelian import capped_power
from .errors import ValidationError

__all__ = [
    "FiniteGroup", "GroupHom", "Cocycle2", "CentralExtension",
    "trivial_group", "cyclic", "direct_product", "semidirect_cyclic_by_z2",
    "central_extension", "split_extension", "section", "are_isomorphic",
    "check_group_order",
]


class FiniteGroup:
    """A finite group given by its multiplication table on 0..n-1.

    The table is fully validated on construction: closure, two-sided
    identity, inverses, and associativity.  The associativity walk takes
    n^3 steps, so a group of a given order is refused first by
    check_group_order, as cyclic, direct_product and
    semidirect_cyclic_by_z2 do before they build the n x n table.
    central_extension builds its table uncapped: the costly questions
    about the extension group degrade to unknown under the cap instead.
    """

    __slots__ = ("table", "order", "identity", "inverse", "labels", "_hash",
                 "proj_left", "proj_right")

    def __init__(self, table, labels=None):
        rows = tuple(tuple(row) for row in table)
        n = len(rows)
        if n == 0:
            raise ValidationError("a group has at least one element")
        for row in rows:
            if len(row) != n:
                raise ValidationError("multiplication table must be square")
            for v in row:
                if not (0 <= v < n):
                    raise ValidationError("table entry out of range")
        identity = None
        for e in range(n):
            if all(rows[e][g] == g and rows[g][e] == g for g in range(n)):
                identity = e
                break
        if identity is None:
            raise ValidationError("table has no two-sided identity")
        inverse = [None] * n
        for g in range(n):
            for h in range(n):
                if rows[g][h] == identity and rows[h][g] == identity:
                    inverse[g] = h
                    break
            if inverse[g] is None:
                raise ValidationError(f"element {g} has no inverse")
        for a in range(n):
            ra = rows[a]
            for b in range(n):
                rab = rows[ra[b]]
                rb = rows[b]
                for c in range(n):
                    if rab[c] != ra[rb[c]]:
                        raise ValidationError(
                            f"associativity fails at ({a},{b},{c})")
        self.table = rows
        self.order = n
        self.identity = identity
        self.inverse = tuple(inverse)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValidationError("label count mismatch")
        self.labels = labels
        self._hash = hash(rows)
        self.proj_left = None
        self.proj_right = None

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def element_order(self, g: int) -> int:
        x, k = g, 1
        while x != self.identity:
            x = self.table[x][g]
            k += 1
        return k

    def element_orders(self):
        return tuple(sorted(self.element_order(g) for g in range(self.order)))

    @property
    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))

    @property
    def is_cyclic(self) -> bool:
        return any(self.element_order(g) == self.order for g in range(self.order))

    def nonidentity(self):
        return tuple(g for g in range(self.order) if g != self.identity)

    def label(self, g: int) -> str:
        return self.labels[g] if self.labels else str(g)

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def check_group_order(n: int) -> None:
    """Refuse a group of order n whose n^3-step associativity check
    exceeds the resource cap (ResourceCapError)."""
    capped_power(n, 3, "group order cubed (associativity check)")


def trivial_group() -> FiniteGroup:
    return FiniteGroup(((0,),), labels=("e",))


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValidationError("cyclic group order must be >= 1")
    check_group_order(n)
    return _cyclic(n)


def _cyclic(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, labels=[str(i) for i in range(n)])


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """G x H with elements ordered lexicographically; carries projections.

    The returned group has attributes proj_left and proj_right, the two
    projection homomorphisms.
    """
    n, m = G.order, H.order
    check_group_order(n * m)
    idx = lambda g, h: g * m + h
    table = [[0] * (n * m) for _ in range(n * m)]
    for g1, h1 in product(range(n), range(m)):
        for g2, h2 in product(range(n), range(m)):
            table[idx(g1, h1)][idx(g2, h2)] = idx(G.mul(g1, g2), H.mul(h1, h2))
    labels = [f"({G.label(g)},{H.label(h)})" for g in range(n) for h in range(m)]
    P = FiniteGroup(table, labels=labels)
    P.proj_left = GroupHom(P, G, tuple(g for g in range(n) for _ in range(m)))
    P.proj_right = GroupHom(P, H, tuple(h for _ in range(n) for h in range(m)))
    return P


def semidirect_cyclic_by_z2(n: int, a: int) -> FiniteGroup:
    """Z/n x| Z/2 where the involution acts by t -> a*t; needs a^2 = 1 mod n.

    Elements are pairs (t, s) with index 2*t + s.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not (1 <= a <= n):
        raise ValidationError("need 1 <= a <= n")
    if (a * a) % n != 1 % n:
        raise ValidationError(f"invalid action: {a}^2 != 1 mod {n}")
    check_group_order(2 * n)
    idx = lambda t, s: 2 * t + s
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for t1, s1 in product(range(n), range(2)):
        act = a if s1 else 1
        for t2, s2 in product(range(n), range(2)):
            table[idx(t1, s1)][idx(t2, s2)] = idx((t1 + act * t2) % n, (s1 + s2) % 2)
    labels = [f"({t},{s})" for t in range(n) for s in range(2)]
    return FiniteGroup(table, labels=labels)


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism given by the image index of every source element."""

    source: FiniteGroup
    target: FiniteGroup
    image: tuple

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(self.image))
        if len(self.image) != self.source.order:
            raise ValidationError("image list length mismatch")
        for v in self.image:
            if not (0 <= v < self.target.order):
                raise ValidationError("image index out of range")
        for a in range(self.source.order):
            for b in range(self.source.order):
                if self.image[self.source.mul(a, b)] != \
                        self.target.mul(self.image[a], self.image[b]):
                    raise ValidationError("not a homomorphism")

    @classmethod
    def identity(cls, G: FiniteGroup) -> "GroupHom":
        return cls(G, G, tuple(range(G.order)))

    def __call__(self, g: int) -> int:
        return self.image[g]

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self after inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise ValidationError("composition mismatch")
        return GroupHom(inner.source, self.target,
                        tuple(self.image[inner.image[g]] for g in range(inner.source.order)))

    @property
    def is_surjective(self) -> bool:
        return len(set(self.image)) == self.target.order

    @property
    def is_injective(self) -> bool:
        return len(set(self.image)) == self.source.order


class Cocycle2:
    """A normalized 2-cocycle on a finite group with values in Z/r."""

    __slots__ = ("base", "modulus", "values")

    def __init__(self, base: FiniteGroup, modulus: int, values):
        if modulus < 1:
            raise ValidationError("cocycle modulus must be >= 1")
        n = base.order
        vals = tuple(tuple(v % modulus for v in row) for row in values)
        if len(vals) != n or any(len(row) != n for row in vals):
            raise ValidationError("cocycle table must be |G| x |G|")
        e = base.identity
        for g in range(n):
            if vals[e][g] != 0 or vals[g][e] != 0:
                raise ValidationError("cocycle is not normalized")
        mul = base.mul
        for g in range(n):
            for h in range(n):
                gh = mul(g, h)
                for k in range(n):
                    lhs = vals[g][h] + vals[gh][k]
                    rhs = vals[h][k] + vals[g][mul(h, k)]
                    if (lhs - rhs) % modulus != 0:
                        raise ValidationError(
                            f"cocycle identity fails at ({g},{h},{k})")
        self.base = base
        self.modulus = modulus
        self.values = vals

    @classmethod
    def zero(cls, base: FiniteGroup, modulus: int) -> "Cocycle2":
        n = base.order
        return cls(base, modulus, [[0] * n for _ in range(n)])

    @classmethod
    def from_vector(cls, base: FiniteGroup, modulus: int, vec: dict) -> "Cocycle2":
        """Build from a sparse vector over the normalized pair basis."""
        nonid = base.nonidentity()
        k = len(nonid)
        n = base.order
        vals = [[0] * n for _ in range(n)]
        for idx, v in vec.items():
            g = nonid[idx // k]
            h = nonid[idx % k]
            vals[g][h] = v % modulus
        return cls(base, modulus, vals)

    def to_vector(self) -> dict:
        """Sparse vector over the normalized pair basis (row-major pairs)."""
        nonid = self.base.nonidentity()
        k = len(nonid)
        pos = {g: i for i, g in enumerate(nonid)}
        out = {}
        for g in nonid:
            for h in nonid:
                v = self.values[g][h]
                if v:
                    out[pos[g] * k + pos[h]] = v
        return out

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for row in self.values for v in row)

    def __eq__(self, other):
        return (isinstance(other, Cocycle2) and self.base == other.base
                and self.modulus == other.modulus and self.values == other.values)

    def __hash__(self):
        return hash((self.base, self.modulus, self.values))

    def __repr__(self):
        return f"Cocycle2(|G|={self.base.order}, r={self.modulus})"


@dataclass(frozen=True)
class CentralExtension:
    """0 -> Z/r -> E -> G -> 0 built from a normalized 2-cocycle.

    Elements of E are pairs (g, t) with index g*r + t and multiplication
    (g,s)(h,t) = (gh, s + t + c(g,h)).
    """

    cocycle: Cocycle2
    total: FiniteGroup
    projection: GroupHom
    kernel_embedding: GroupHom

    @property
    def base(self) -> FiniteGroup:
        return self.cocycle.base

    @property
    def modulus(self) -> int:
        return self.cocycle.modulus


def central_extension(G: FiniteGroup, r: int, c: Cocycle2) -> CentralExtension:
    if c.base != G or c.modulus != r:
        raise ValidationError("cocycle does not match the requested extension data")
    n = G.order
    idx = lambda g, t: g * r + t
    table = [[0] * (n * r) for _ in range(n * r)]
    for g, s in product(range(n), range(r)):
        row = table[idx(g, s)]
        for h, t in product(range(n), range(r)):
            row[idx(h, t)] = idx(G.mul(g, h), (s + t + c.values[g][h]) % r)
    labels = [f"({G.label(g)};{t})" for g in range(n) for t in range(r)]
    E = FiniteGroup(table, labels=labels)
    proj = GroupHom(E, G, tuple(g for g in range(n) for _ in range(r)))
    embed = GroupHom(_cyclic(r), E, tuple(idx(G.identity, t) for t in range(r)))
    # kernel of the projection must be exactly the embedded Z/r, and central
    kernel = {x for x in range(E.order) if proj(x) == G.identity}
    if kernel != set(embed.image):
        raise ValidationError("projection kernel is not the embedded Z/r")
    for z in kernel:
        for x in range(E.order):
            if E.mul(z, x) != E.mul(x, z):
                raise ValidationError("extension is not central")
    return CentralExtension(c, E, proj, embed)


def split_extension(G: FiniteGroup, r: int) -> CentralExtension:
    return central_extension(G, r, Cocycle2.zero(G, r))


# ---------------------------------------------------------------------------
# Homomorphisms determined by a generating sequence: sections of a
# surjection (the fiber battery) and brute-force isomorphism testing (tests)


def _generating_sequence(G: FiniteGroup):
    gens = []
    closure = {G.identity}
    while len(closure) < G.order:
        g = min(x for x in range(G.order) if x not in closure)
        gens.append(g)
        frontier = set(closure) | {g}
        new = set(closure)
        while frontier:
            x = frontier.pop()
            for y in list(new) + [g]:
                for z in (G.mul(x, y), G.mul(y, x)):
                    if z not in new:
                        new.add(z)
                        frontier.add(z)
            new.add(x)
        closure = new
    return gens


def _extend_hom(G: FiniteGroup, H: FiniteGroup, gens, images):
    """Try to extend gen |-> image to a full map by closing under products."""
    phi = {G.identity: H.identity}
    for g, h in zip(gens, images):
        if g in phi and phi[g] != h:
            return None
        phi[g] = h
    changed = True
    while changed:
        changed = False
        items = list(phi.items())
        for (a, fa) in items:
            for (b, fb) in items:
                ab = G.mul(a, b)
                fab = H.mul(fa, fb)
                if ab in phi:
                    if phi[ab] != fab:
                        return None
                else:
                    phi[ab] = fab
                    changed = True
    if len(phi) != G.order:
        return None
    return phi


def section(q: GroupHom):
    """A homomorphism s: G -> E with q(s(g)) = g for every g, or None.

    q: E -> G is any homomorphism; None is returned when no section
    exists (in particular when q is not surjective).  Tries every choice
    of preimages of a generating sequence of G, keeping only preimages of
    the generator's element order (q(s(g)) = g has the order of g, and
    s(g)'s order divides it), and closes each choice with _extend_hom.
    The search never looks at how E was built, so a split extension given
    by a nonzero coboundary cocycle is found as well.
    """
    E, G = q.source, q.target
    gens = _generating_sequence(G)
    candidates = [
        [x for x in range(E.order)
         if q(x) == g and E.element_order(x) == G.element_order(g)]
        for g in gens]
    for images in product(*candidates):
        phi = _extend_hom(G, E, gens, images)
        if phi is None:
            continue
        s = GroupHom(G, E, tuple(phi[g] for g in range(G.order)))
        if all(q(s(g)) == g for g in range(G.order)):
            return s
    return None


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
