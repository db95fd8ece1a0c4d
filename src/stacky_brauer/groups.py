"""Finite groups as validated multiplication tables.

Covers the constructions the pipeline needs: cyclic groups, direct
products, the node-example semidirect products mu_n x| Z/2, and
homomorphisms.  The 2-cocycles, central extensions and sections live in
extensions.py; this module serves their names on first use (PEP 562
__getattr__), so every import of them from here still works and a
process that only computes cohomology values never compiles them.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import import_module
from itertools import product

from .abelian import capped_power
from .errors import ValidationError
from .records import Record

__all__ = [
    "FiniteGroup", "GroupHom", "Cocycle2", "CentralExtension",
    "trivial_group", "cyclic", "direct_product", "semidirect_cyclic_by_z2",
    "central_extension", "split_extension", "section", "check_group_order",
]

# Every name extensions defines, served from here on first use.
_SERVED = frozenset({
    "CentralExtension", "Cocycle2", "_build_extension", "_extend_hom",
    "_extension_key", "_generating_sequence", "_has_section", "central_extension",
    "section", "split_extension",
})


def __getattr__(name):
    if name not in _SERVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(".extensions", __package__), name)
    return value


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


@lru_cache(maxsize=64)
def _cyclic(n: int) -> FiniteGroup:
    """Z/n, built and validated once while it is among the 64 orders last
    asked for; cohomology.clear_cache empties the memo.  cyclic checks the
    resource cap before every lookup, so a lower cap still refuses."""
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


class GroupHom(Record):
    """A homomorphism given by the image index of every source element."""

    _fields = ("source", "target", "image")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, image: tuple):
        image = tuple(image)
        if len(image) != source.order:
            raise ValidationError("image list length mismatch")
        for v in image:
            if not (0 <= v < target.order):
                raise ValidationError("image index out of range")
        target_rows = target.table
        for a, row in enumerate(source.table):
            image_row = target_rows[image[a]]
            for b, ab in enumerate(row):
                if image[ab] != image_row[image[b]]:
                    raise ValidationError("not a homomorphism")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "image", image)

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


def _generated(G: FiniteGroup, gens) -> set:
    """The subgroup gens generate: the closure of {e} under right
    multiplication by them."""
    table, e = G.table, G.identity
    closure, frontier = {e}, [e]
    while frontier:
        row = table[frontier.pop()]
        for h in gens:
            z = row[h]
            if z not in closure:
                closure.add(z)
                frontier.append(z)
    return closure


def _greedy_generators(G: FiniteGroup, candidates) -> list:
    """The candidates, in order, each outside the subgroup those kept before
    it generate (_generated)."""
    gens, closure = [], {G.identity}
    for g in candidates:
        if g not in closure:
            gens.append(g)
            closure = _generated(G, gens)
    return gens
