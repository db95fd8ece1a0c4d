"""Central extensions of finite groups by Z/r, and sections of surjections.

Covers the 2-cocycles with values in Z/r, the central extensions
0 -> Z/r -> E -> G -> 0 they define (built and validated once, kept by
abelian.memo), the split extension G x Z/r, and a search for sections of
a surjection (whose yes or no abelian.memo keeps per projection).
Computing a cohomology value needs none of this, so groups serves these
names on first use (PEP 562 __getattr__) and a process that only computes
values never compiles them.

central_extension is read off groups wherever it is called from here, so
a replacement of groups.central_extension (perfbench's tracer, the
tests) sees every call.
"""

from __future__ import annotations

from itertools import product

from . import groups
from .abelian import memo
from .errors import ValidationError
from .groups import FiniteGroup, GroupHom, _cyclic
from .records import Record

__all__ = [
    "Cocycle2", "CentralExtension", "central_extension", "split_extension", "section",
]


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
        return cls(base, modulus, cls._zero_values(base.order))

    @staticmethod
    def _zero_values(n: int) -> tuple:
        """The values of the zero cocycle on a group of order n."""
        return ((0,) * n,) * n

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


class CentralExtension(Record):
    """0 -> Z/r -> E -> G -> 0 built from a normalized 2-cocycle.

    Elements of E are pairs (g, t) with index g*r + t and multiplication
    (g,s)(h,t) = (gh, s + t + c(g,h)).
    """

    _fields = ("cocycle", "total", "projection", "kernel_embedding")

    def __init__(self, cocycle: Cocycle2, total: FiniteGroup, projection: GroupHom,
                 kernel_embedding: GroupHom):
        object.__setattr__(self, "cocycle", cocycle)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "kernel_embedding", kernel_embedding)

    @property
    def base(self) -> FiniteGroup:
        return self.cocycle.base

    @property
    def modulus(self) -> int:
        return self.cocycle.modulus


def _extension_key(G: FiniteGroup, r: int, values: tuple) -> tuple:
    # E's labels come from G's, so they are part of the key
    return ("extension", G.table, G.labels, r, values)


def central_extension(G: FiniteGroup, r: int, c: Cocycle2) -> CentralExtension:
    """The extension of G by Z/r with cocycle c, built and validated once.

    Later calls with an equal table, labels, r and cocycle return the same
    object, kept by abelian.memo: a CentralExtension and its groups are
    never mutated, and concurrent first callers share one.
    """
    if c.base != G or c.modulus != r:
        raise ValidationError("cocycle does not match the requested extension data")
    return memo(_extension_key(G, r, c.values), lambda: _build_extension(G, r, c))


def _build_extension(G: FiniteGroup, r: int, c: Cocycle2) -> CentralExtension:
    n = G.order
    # (g, s)(h, t) = (gh, s + t + c(g, h)) at index gh * r + (s + t + c(g, h)) % r
    table = []
    for g_row, c_row in zip(G.table, c.values):
        for s in range(r):
            row = []
            for gh, cgh in zip(g_row, c_row):
                base, shift = gh * r, s + cgh
                row.extend(base + (shift + t) % r for t in range(r))
            table.append(row)
    labels = [f"({G.label(g)};{t})" for g in range(n) for t in range(r)]
    E = FiniteGroup(table, labels=labels)
    proj = GroupHom(E, G, tuple(g for g in range(n) for _ in range(r)))
    embed = GroupHom(_cyclic(r), E, tuple(G.identity * r + t for t in range(r)))
    # kernel of the projection must be exactly the embedded Z/r, and central
    kernel = {x for x, g in enumerate(proj.image) if g == G.identity}
    if kernel != set(embed.image):
        raise ValidationError("projection kernel is not the embedded Z/r")
    rows = E.table
    for z in kernel:
        row = rows[z]
        for x in range(E.order):
            if row[x] != rows[x][z]:
                raise ValidationError("extension is not central")
    return CentralExtension(c, E, proj, embed)


def split_extension(G: FiniteGroup, r: int) -> CentralExtension:
    """G x Z/r.  The zero cocycle, whose check costs O(|G|^3), is made only
    when no extension is stored under its values."""
    return memo(_extension_key(G, r, Cocycle2._zero_values(G.order)),
                lambda: groups.central_extension(G, r, Cocycle2.zero(G, r)))


# ---------------------------------------------------------------------------
# Homomorphisms determined by a generating sequence: sections of a
# surjection (the fiber battery; oracle.are_isomorphic uses them too)


def _generating_sequence(G: FiniteGroup):
    """Generators of G: each the least element outside the subgroup the
    earlier ones generate.  That subgroup is the closure of {e} under right
    multiplication by them (G is finite), each product formed once."""
    table, e = G.table, G.identity
    gens = []
    closure = {e}
    while len(closure) < G.order:
        gens.append(min(x for x in range(G.order) if x not in closure))
        closure, frontier = {e}, [e]
        while frontier:
            row = table[frontier.pop()]
            for g in gens:
                z = row[g]
                if z not in closure:
                    closure.add(z)
                    frontier.append(z)
    return gens


def _extend_hom(G: FiniteGroup, H: FiniteGroup, gens, images):
    """The homomorphism G -> H with gens -> images as a dict, or None.

    Walks the Cayley graph of gens from e, setting phi(x g) = phi(x) phi(g)
    along each edge once.  A map that satisfies this on every edge is a
    homomorphism (by induction on the length of a word in gens), so the
    walk fails exactly when no homomorphism extends gens -> images, and
    None is returned as well when gens do not generate G.
    """
    g_rows, h_rows = G.table, H.table
    pairs = tuple(zip(gens, images))
    phi = {G.identity: H.identity}
    frontier = [G.identity]
    while frontier:
        x = frontier.pop()
        g_row, h_row = g_rows[x], h_rows[phi[x]]
        for g, h in pairs:
            z, fz = g_row[g], h_row[h]
            old = phi.get(z)
            if old is None:
                phi[z] = fz
                frontier.append(z)
            elif old != fz:
                return None
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
    by a nonzero coboundary cocycle is found as well.  The fiber battery
    asks only whether a section exists, through _has_section, which runs
    this search once per projection.
    """
    E, G, image = q.source, q.target, q.image
    gens = _generating_sequence(G)
    candidates = []
    for g in gens:
        order = G.element_order(g)
        candidates.append([x for x, qx in enumerate(image)
                           if qx == g and E.element_order(x) == order])
    for images in product(*candidates):
        phi = _extend_hom(G, E, gens, images)
        if phi is None:
            continue
        s = GroupHom(G, E, tuple(phi[g] for g in range(G.order)))
        if all(image[x] == g for g, x in enumerate(s.image)):
            return s
    return None


def _has_section(q: GroupHom) -> bool:
    """Whether q: E -> G has a section, decided by one section(q) per
    projection: abelian.memo keeps the answer under the two tables and
    q.image."""
    return memo(("section", q.source.table, q.target.table, q.image),
                lambda: section(q) is not None)
