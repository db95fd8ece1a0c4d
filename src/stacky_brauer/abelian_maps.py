"""Maps of abelian groups and the homology they need, off the value path.

The part of abelian that a cohomology value never runs: cokernels and
kernel lattices of integer matrices and of maps of finitely generated
abelian groups (one elimination each, _CycleSolver), the homology
ker(d_out)/im(d_in) of a complex whose homology may have a free part or a
modulus (homology_at), and the maps induced on subquotients
(induced_map).  abelian serves every name here on first use (PEP 562),
so `from stacky_brauer.abelian import homology_at` works as before, and a
process that only computes values never compiles this module.

_replay_rows, which rebuilds the transforms of an elimination from its row
or column log, is called through the abelian module, where the tests
replace it to count the replays.
"""

from __future__ import annotations

from math import gcd

from . import abelian
from .abelian import (
    ColumnEchelon,
    FinAbGroup,
    IntegerMatrix,
    Subquotient,
    _Classes,
    _Elim,
    _check_chain,
    _identity_vector,
    check_cap,
)
from .errors import (
    ChainCompositionError,
    NotChainCompatibleError,
    ValidationError,
)

__all__ = [
    "hom_to_cyclic", "cokernel", "kernel_basis", "homology_at",
    "AbGroupMap", "is_injective", "is_surjective", "cokernel_of_map",
    "is_split_injection", "induced_map",
]


# ---------------------------------------------------------------------------
# Hom into a cyclic group, cokernels and kernel lattices of integer matrices


def hom_to_cyclic(A: FinAbGroup, r: int) -> FinAbGroup:
    """Hom(A, Z/r) in canonical form: (Z/r)^free_rank + sum of Z/gcd(d_i, r)."""
    if r < 1:
        raise ValidationError("modulus must be >= 1")
    check_cap(A.free_rank, "Hom(A, Z/r): one factor per free generator")
    factors = [gcd(d, r) for d in A.invariant_factors] + [r] * A.free_rank
    return FinAbGroup.from_factors(factors)


def _pivot_values(M: IntegerMatrix) -> list:
    """The diagonal of one untracked diagonalization of M (not canonicalized)."""
    elim = _Elim(M).diagonalize()
    return [elim.pivot_value(i) for i in range(len(elim.pivots))]


def cokernel(M: IntegerMatrix) -> FinAbGroup:
    """Canonical form of Z^rows / column-span(M)."""
    factors = _pivot_values(M)
    return FinAbGroup.from_factors(factors, free_rank=M.rows - len(factors))


def kernel_basis(M: IntegerMatrix) -> IntegerMatrix:
    """Columns form a basis of the integer kernel lattice of M, read off the
    ColumnEchelon of copies of its columns."""
    view = M.col_view()
    echelon = ColumnEchelon(M.rows, [dict(view.get(c, ())) for c in range(M.cols)])
    return IntegerMatrix.from_columns(M.cols, echelon.kernel())


# ---------------------------------------------------------------------------
# Homology of a two-step complex, with optional modulus


class _CycleSolver:
    """The kernel lattice of M into Z^rows / diag(moduli), read off one elimination.

    moduli[r] is the relation order of row r (0 for a Z row).  One
    elimination of M augmented by moduli[r] * e_r for each nonzero modulus,
    replaying its column log into V and V^-1, gives a basis of the lattice
    {x : M @ x = 0 in Z^rows / diag(moduli)} (cycle_basis), coordinates in
    that basis (coords: sparse matrix-vector work), and, from the same
    pivots, the cokernel Z^rows / (im M + diag(moduli)).  This is the cycle
    lattice of homology_at and the kernel lattice of a map of abelian groups.
    """

    def __init__(self, M: IntegerMatrix, moduli):
        self.M = M
        self.moduli = moduli
        self.ambient = M.cols
        extra = [r for r, m in enumerate(moduli) if m]
        self._slot = {r: M.cols + j for j, r in enumerate(extra)}
        aug = M
        if extra:
            aug = M.hstack(IntegerMatrix(
                M.rows, len(extra), {(r, j): moduli[r] for j, r in enumerate(extra)}))
        elim = _Elim(aug, log=True)
        elim.row_ops = None   # only the column log is replayed
        elim.diagonalize()
        self._rank = len(elim.pivots)
        self._torsion = [elim.rows[r][c] for r, c in elim.pivots if abs(elim.rows[r][c]) != 1]
        kernel_cols = elim.kernel_columns()
        col_ops = elim.col_ops
        # free the rows first: they keep their fill-in's capacity
        del elim
        vcols, vinv = abelian._replay_rows(col_ops)
        self.cycle_basis = IntegerMatrix.from_columns(self.ambient, (
            {r: v for r, v in vcols.get(c, {c: 1}).items() if r < self.ambient}
            for c in kernel_cols))
        # column-major extractor: coord_cols[k][i] = Vinv[kernel_cols[i]][k],
        # so coords(v) = sum_k v[k] * coord_cols[k] runs in sparse time
        coord_cols = {}
        for i, c in enumerate(kernel_cols):
            for k, coeff in vinv.get(c, {c: 1}).items():
                coord_cols.setdefault(k, {})[i] = coeff
        self._coord_cols = coord_cols

    def cokernel(self) -> FinAbGroup:
        """Z^rows / (im M + diag(moduli)), from the pivots of the same elimination."""
        return FinAbGroup.from_factors(self._torsion, self.M.rows - self._rank)

    def _in_lattice(self, img: dict) -> bool:
        moduli = self.moduli
        return all(moduli[r] and v % moduli[r] == 0 for r, v in img.items())

    def contains(self, vec: dict) -> bool:
        return self._in_lattice(self.M.apply(vec))

    def coords(self, vec: dict) -> dict:
        """Coordinates in the lattice basis; raises if vec is not in the lattice."""
        img = self.M.apply(vec)
        if not self._in_lattice(img):
            raise NotChainCompatibleError("vector is not a cycle")
        full = dict(vec)
        for r, v in img.items():
            full[self._slot[r]] = -(v // self.moduli[r])
        out = {}
        coord_cols = self._coord_cols
        for k, fv in full.items():
            _Elim._vec_acc(out, coord_cols.get(k, {}), fv)
        return out


def homology_at(d_out: IntegerMatrix, d_in: IntegerMatrix, modulus: int = 0) -> Subquotient:
    """Subquotient ker(d_out)/im(d_in) of Z^n, or of (Z/modulus)^n when modulus > 0.

    Verifies d_out @ d_in == 0 (mod modulus) first; a nonzero composition
    signals a bug in differential assembly and raises ChainCompositionError.
    """
    _check_chain(d_out, d_in, modulus)

    ambient = d_out.cols
    solver = _CycleSolver(d_out, (modulus,) * d_out.rows)
    K = solver.cycle_basis
    if modulus:
        boundaries = d_in.hstack(IntegerMatrix(
            ambient, ambient, {(i, i): modulus for i in range(ambient)}))
    else:
        boundaries = d_in

    # coordinates of the boundary generators in the cycle basis
    xcols = []
    bview = boundaries.col_view()
    for j in range(boundaries.cols):
        col = bview.get(j, {})
        try:
            xcols.append(solver.coords(col))
        except NotChainCompatibleError:
            raise ChainCompositionError("boundary generator is not a cycle")
    k = K.cols
    X = IntegerMatrix.from_columns(k, xcols)

    elim = _Elim(X, log=True)
    elim.col_ops = None   # only the row log is replayed
    elim.diagonalize()
    torsion = elim.canonicalize()
    free_rows = sorted(set(range(k)) - {r for r, _ in elim.pivots})
    row_ops = elim.row_ops
    # free the rows first: they keep their fill-in's capacity
    del elim
    quotient = FinAbGroup(len(free_rows), tuple(d for _, d in torsion))
    urows, uinv_cols = abelian._replay_rows(row_ops)

    reduce_rows = []
    lifts = []
    kview = K.col_view()
    for r in [r for r, _ in torsion] + free_rows:
        reduce_rows.append(_identity_vector(urows, r))
        lift = {}
        for c, coeff in _identity_vector(uinv_cols, r).items():
            _Elim._vec_acc(lift, kview.get(c, {}), coeff)
        lifts.append(lift)

    return Subquotient(ambient, quotient, _Classes(
        K, boundaries, tuple(lifts), solver, tuple(reduce_rows)))


# ---------------------------------------------------------------------------
# Maps of finitely generated abelian groups


class AbGroupMap:
    """A homomorphism between canonical-form abelian groups.

    The matrix acts on generator coordinates (target gens x source gens,
    generator order: torsion then free).  Well-definedness (each source
    relation lands in the target relation lattice) is checked on
    construction.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FinAbGroup, target: FinAbGroup, matrix: IntegerMatrix):
        if matrix.rows != target.num_generators or matrix.cols != source.num_generators:
            raise ValidationError("matrix shape does not match generator counts")
        src_orders = source.relation_orders()
        dst_orders = target.relation_orders()
        for j, d in enumerate(src_orders):
            if d == 0:
                continue
            for i, e in enumerate(dst_orders):
                val = d * matrix.get(i, j)
                if e == 0:
                    if val != 0:
                        raise ValidationError("map does not respect relations")
                elif val % e != 0:
                    raise ValidationError("map does not respect relations")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def from_rows(cls, source, target, rows) -> "AbGroupMap":
        return cls(source, target, IntegerMatrix.from_rows(rows))

    @classmethod
    def identity(cls, group: FinAbGroup) -> "AbGroupMap":
        return cls(group, group, IntegerMatrix.identity(group.num_generators))

    @classmethod
    def zero(cls, source: FinAbGroup, target: FinAbGroup) -> "AbGroupMap":
        return cls(source, target,
                   IntegerMatrix(target.num_generators, source.num_generators))

    def compose(self, inner: "AbGroupMap") -> "AbGroupMap":
        """self after inner (self.source must equal inner.target)."""
        if inner.target != self.source:
            raise ValidationError("composition mismatch")
        return AbGroupMap(inner.source, self.target, self.matrix @ inner.matrix)

    def apply(self, coords) -> tuple:
        vec = {i: v for i, v in enumerate(coords) if v}
        img = self.matrix.apply(vec)
        orders = self.target.relation_orders()
        return tuple((img.get(i, 0) % d) if d else img.get(i, 0)
                     for i, d in enumerate(orders))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbGroupMap):
            return False
        if self.source != other.source or self.target != other.target:
            return False
        orders = self.target.relation_orders()
        for i, d in enumerate(orders):
            for j in range(self.source.num_generators):
                diff = self.matrix.get(i, j) - other.matrix.get(i, j)
                if (diff % d if d else diff) != 0:
                    return False
        return True

    def __hash__(self):
        raise TypeError("AbGroupMap is unhashable")

    def __repr__(self):
        return f"AbGroupMap({self.source} -> {self.target})"


def _map_solver(f: AbGroupMap) -> _CycleSolver:
    """The kernel lattice {x in Z^s : f(x) = 0 in target} and coker(f)."""
    return _CycleSolver(f.matrix, f.target.relation_orders())


def _kills_only_relations(solver: _CycleSolver, source: FinAbGroup) -> bool:
    """Is every kernel lattice vector zero in the source?"""
    orders = source.relation_orders()
    return all((v % orders[r] if orders[r] else v) == 0
               for (r, _), v in solver.cycle_basis.entries.items())


def is_injective(f: AbGroupMap) -> bool:
    return _kills_only_relations(_map_solver(f), f.source)


def is_surjective(f: AbGroupMap) -> bool:
    return _map_solver(f).cokernel().is_trivial


def cokernel_of_map(f: AbGroupMap) -> FinAbGroup:
    return _map_solver(f).cokernel()


def is_split_injection(f: AbGroupMap) -> bool:
    """Does some g: target -> source satisfy g o f = id?

    Exactly when f is injective and target = source + coker(f) in
    canonical form: a split injection gives that sum, and by Miyata's
    theorem (a short exact sequence 0 -> A -> B -> C -> 0 of finitely
    generated modules over a Noetherian ring with B = A + C splits) the
    sum gives a retraction.  Both are read off one elimination: the
    kernel lattice and the cokernel of _CycleSolver.
    """
    solver = _map_solver(f)
    return (_kills_only_relations(solver, f.source)
            and f.target == f.source.direct_sum(solver.cokernel()))


# ---------------------------------------------------------------------------
# Induced maps on subquotients


def induced_map(f_ambient: IntegerMatrix, src: Subquotient, dst: Subquotient) -> AbGroupMap:
    """The map on quotients induced by an ambient chain-compatible map.

    Verifies that f_ambient sends cycles to cycles and boundaries to
    boundaries; raises NotChainCompatibleError otherwise.  A boundary
    generator's image is checked by reducing it in dst: on both homology
    routes a cycle is a boundary exactly when its class is 0.
    """
    if f_ambient.cols != src.ambient_dim or f_ambient.rows != dst.ambient_dim:
        raise NotChainCompatibleError("ambient dimensions do not match")

    # cycles -> cycles
    cview = src.cycle_basis.col_view()
    for j in range(src.cycle_basis.cols):
        img = f_ambient.apply(cview.get(j, {}))
        if not dst.contains_cycle(img):
            raise NotChainCompatibleError("cycles are not carried to cycles")

    # boundaries -> boundaries
    bview = src.boundary_basis.col_view()
    for j in range(src.boundary_basis.cols):
        if any(dst.reduce(f_ambient.apply(bview.get(j, {})))):
            raise NotChainCompatibleError("boundaries are not carried to boundaries")

    rows = dst.quotient.num_generators
    cols = src.quotient.num_generators
    entries = {}
    for j, lift in enumerate(src.lifts):
        img = f_ambient.apply(lift)
        coords = dst.reduce(img)
        for i, v in enumerate(coords):
            if v:
                entries[(i, j)] = v
    return AbGroupMap(src.quotient, dst.quotient, IntegerMatrix(rows, cols, entries))
