"""Exact integer linear algebra over Z: the part a cohomology value runs.

Sparse integer matrices, their diagonal forms (whose transforms are
replayed from a log of the operations) and column echelon forms,
finitely generated abelian groups in canonical invariant-factor form,
integer spans, subquotients ker/im of Z^n, and the finite homology of a
complex read off its incoming boundary alone (finite_homology_at).

The rest (cokernels, kernel lattices, homology_at with a free part or a
modulus, maps of abelian groups and the maps induced on subquotients)
lives in abelian_maps.  This module serves those names on first use
(PEP 562 __getattr__), so every import of them from here still works,
and a process that only computes values never compiles them.

All arithmetic uses Python ints, so there is no overflow anywhere.
Every public value is immutable after construction and every operation
is a pure function.
"""

from __future__ import annotations

import contextvars
import heapq
import threading
from collections import namedtuple
from importlib import import_module
from math import gcd

from .errors import (
    ChainCompositionError,
    NotChainCompatibleError,
    ResourceCapError,
    ValidationError,
)
from .records import Record

# Every name abelian_maps defines, served from here on first use.
_MAPS = frozenset({
    "AbGroupMap", "_CycleSolver", "_cokernel", "_map_solver",
    "_with_relations", "cokernel", "cokernel_of_map",
    "hom_to_cyclic", "homology_at", "induced_map", "is_injective",
    "is_split_injection", "is_surjective", "kernel_basis",
})


def __getattr__(name):
    if name not in _MAPS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(".abelian_maps", __package__), name)
    return value


_MAX_ENTRIES = contextvars.ContextVar("stacky_brauer_max_entries", default=5_000_000)


def set_resource_cap(n: int) -> None:
    if n < 1:
        raise ValidationError("resource cap must be positive")
    _MAX_ENTRIES.set(int(n))


def check_cap(needed: int, what: str = "") -> None:
    cap = _MAX_ENTRIES.get()
    if needed > cap:
        raise ResourceCapError(needed, cap, what)


# The one store of the values built once per process (cohomology groups,
# resolutions, central extensions, ...); a key starts with a table or a tag.
_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def memo(key, build):
    """The value stored under key; on a miss, build()'s, stored.

    build runs outside the lock and must not return None; concurrent first
    callers may each build, and all get the first value stored.
    """
    with _CACHE_LOCK:
        value = _CACHE.get(key)
    if value is None:
        value = build()
        with _CACHE_LOCK:
            value = _CACHE.setdefault(key, value)
    return value


def clear_memo() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()


# Powers up to this many bits are formed exactly before the cap comparison,
# so the error names the exact size wherever forming it is cheap.
_POWER_BITS = 4096


def capped_power(base: int, exp: int, what: str = "", cap: int = None) -> int:
    """base ** exp, or ResourceCapError when it exceeds cap (default: the resource cap).

    base ** exp >= 2 ** (exp * (bit_length(base) - 1)).  When that bound
    passes both the cap and _POWER_BITS, the power is refused without being
    formed and the error names it as base^exp; a huge exponent is refused
    at once.  Otherwise the power has at most 2 * _POWER_BITS bits.
    """
    if cap is None:
        cap = _MAX_ENTRIES.get()
    if exp * (base.bit_length() - 1) > max(cap.bit_length(), _POWER_BITS):
        raise ResourceCapError(f"{base}^{exp}", cap, what)
    power = base ** exp
    if power > cap:
        raise ResourceCapError(power, cap, what)
    return power


def xgcd(a: int, b: int):
    """Extended gcd: returns (x, y, g) with x*a + y*b == g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b) if a and b else 0


def invariant_factor_chain(values) -> tuple:
    """Canonicalize a multiset of cyclic orders into an invariant-factor chain.

    Input entries are nonzero integers (signs ignored).  Output is the
    ascending chain d1 | d2 | ... with factors equal to 1 dropped.
    Uses gcd/lcm exchanges, so no factorization is needed; a list that is
    a chain once sorted, as (Z/r)^2g + Z/d with d | r, costs one pass.
    Otherwise one pass over the pairs i < j, replacing (fs[i], fs[j]) by
    their gcd and lcm, leaves fs[i] | fs[j] for every i < j; its
    n(n-1)/2 pairs are charged to the resource cap first.
    """
    fs = sorted(abs(v) for v in values if abs(v) != 1)
    if fs and fs[0] == 0:
        raise ValidationError("invariant factors must be nonzero")
    if all(b % a == 0 for a, b in zip(fs, fs[1:])):
        return tuple(fs)
    check_cap(len(fs) * (len(fs) - 1) // 2, "invariant factor pairs")
    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            a, b = fs[i], fs[j]
            if b % a:
                g = gcd(a, b)
                fs[i], fs[j] = g, a * b // g
    return tuple(f for f in fs if f != 1)


# ---------------------------------------------------------------------------
# Sparse integer matrices


class IntegerMatrix:
    """Immutable sparse integer matrix.

    Entries are stored as a map (row, col) -> nonzero int.  The column
    view is built lazily and cached.
    """

    __slots__ = ("rows", "cols", "entries", "_col_view")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for (r, c), v in (entries.items() if isinstance(entries, dict) else entries):
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValidationError(f"entry ({r},{c}) out of bounds for {rows}x{cols}")
                if v:
                    clean[(r, c)] = v
        self.entries = clean
        self._col_view = None

    # -- constructors

    @classmethod
    def from_rows(cls, data) -> "IntegerMatrix":
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValidationError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = v
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(rows, cols)

    @classmethod
    def from_columns(cls, rows: int, columns) -> "IntegerMatrix":
        """Build from an iterable of sparse column dicts {row: value}."""
        entries = {}
        ncols = 0
        for c, col in enumerate(columns):
            ncols += 1
            for r, v in col.items():
                if v:
                    entries[(r, c)] = v
        return cls(rows, ncols, entries)

    # -- views

    def col_view(self):
        if self._col_view is None:
            view = {}
            for (r, c), v in self.entries.items():
                view.setdefault(c, {})[r] = v
            self._col_view = view
        return self._col_view

    def column(self, c: int) -> dict:
        return dict(self.col_view().get(c, {}))

    # -- basic queries

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def get(self, r: int, c: int) -> int:
        return self.entries.get((r, c), 0)

    def to_rows(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def diagonal(self):
        n = min(self.rows, self.cols)
        return [self.entries.get((i, i), 0) for i in range(n)]

    def is_diagonal(self) -> bool:
        return all(r == c for (r, c) in self.entries)

    # -- arithmetic

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValidationError("shape mismatch in matrix product")
        left_cols = self.col_view()
        out = {}
        for (r, c), v in other.entries.items():
            col = left_cols.get(r)
            if not col:
                continue
            for rr, w in col.items():
                key = (rr, c)
                nv = out.get(key, 0) + w * v
                if nv:
                    out[key] = nv
                elif key in out:
                    del out[key]
        return IntegerMatrix(self.rows, other.cols, out)

    def apply(self, vec: dict) -> dict:
        """Multiply by a sparse column vector {index: value}."""
        cols = self.col_view()
        out = {}
        for c, v in vec.items():
            col = cols.get(c)
            if not col:
                continue
            for r, w in col.items():
                nv = out.get(r, 0) + w * v
                if nv:
                    out[r] = nv
                elif r in out:
                    del out[r]
        return out

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.cols, self.rows,
                             {(c, r): v for (r, c), v in self.entries.items()})

    def hstack(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.rows != other.rows:
            raise ValidationError("row mismatch in hstack")
        entries = dict(self.entries)
        for (r, c), v in other.entries.items():
            entries[(r, self.cols + c)] = v
        return IntegerMatrix(self.rows, self.cols + other.cols, entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntegerMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.entries.items()))))

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# Finitely generated abelian groups


class FinAbGroup(Record):
    """A finitely generated abelian group in canonical form.

    Torsion is an ascending divisibility chain with no factor equal to 1;
    the free part is recorded separately.  Generator order everywhere in
    this package is: torsion generators (chain order) first, then free
    generators.
    """

    _fields = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int = 0, invariant_factors: tuple = ()):
        if free_rank < 0:
            raise ValidationError("free rank must be nonnegative")
        fs = tuple(invariant_factors)
        for d in fs:
            if d < 2:
                raise ValidationError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise ValidationError(f"broken divisibility chain {fs}")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "invariant_factors", fs)

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(0, ())

    @classmethod
    def cyclic(cls, n: int) -> "FinAbGroup":
        """Z/n for n >= 2, the trivial group for n == 1, Z for n == 0."""
        if n < 0:
            raise ValidationError("cyclic order must be nonnegative")
        if n == 0:
            return cls(1, ())
        if n == 1:
            return cls(0, ())
        return cls(0, (n,))

    @classmethod
    def free(cls, rank: int) -> "FinAbGroup":
        return cls(rank, ())

    @classmethod
    def from_factors(cls, factors, free_rank: int = 0) -> "FinAbGroup":
        """Canonicalize an arbitrary list of cyclic orders (0 counts as Z)."""
        fs = []
        free = free_rank
        for f in factors:
            if f == 0:
                free += 1
            else:
                fs.append(f)
        return cls(free, invariant_factor_chain(fs))

    # -- structure

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def num_generators(self) -> int:
        return self.free_rank + len(self.invariant_factors)

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def exponent(self):
        """Exponent of the torsion part (1 if torsion-free); None if free part nonzero."""
        if self.free_rank:
            return None
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def relation_orders(self) -> tuple:
        """Per-generator relation order: d_i for torsion, 0 for free."""
        return self.invariant_factors + (0,) * self.free_rank

    def direct_sum(self, *others) -> "FinAbGroup":
        factors = list(self.invariant_factors)
        free = self.free_rank
        for other in others:
            factors.extend(other.invariant_factors)
            free += other.free_rank
        return FinAbGroup(free, invariant_factor_chain(factors))

    def __str__(self):
        parts = [f"Z/{d}" for d in self.invariant_factors] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# The elimination engine
#
# Diagonalizes a sparse integer matrix U @ M @ V = diag by unimodular row
# and column operations, logging the row operations when rows is set and
# the column operations when cols is set; _replay_rows rebuilds U and U^-1
# from the row log, and V and V^-1 from the column log, when they are asked
# for.


class _Elim:
    def __init__(self, M: IntegerMatrix, *, rows=False, cols=False):
        check_cap(M.nnz, "matrix nonzeros")
        self.m = M.rows
        self.n = M.cols
        self.rows = {}
        self.col_index = {}
        for (r, c), v in M.entries.items():
            self.rows.setdefault(r, {})[c] = v
            self.col_index.setdefault(c, set()).add(r)
        # (dst, src, q) for row[dst] += q * row[src], (r,) for a negation,
        # (r1, r2, x, y, p, q) for the 2-row transform of _rows_gcd
        self.row_ops = [] if rows else None
        # (dst, src, q) for col[dst] += q * col[src]
        self.col_ops = [] if cols else None
        self.pivots = []      # list of (row, col); value lives in self.rows
        self._pivot_rows = set()
        self._pivot_cols = set()

    # -- lazy identity vectors

    @staticmethod
    def _ident_get(store, key):
        vec = store.get(key)
        if vec is None:
            vec = {key: 1}
            store[key] = vec
        return vec

    @staticmethod
    def _vec_acc(dst: dict, src: dict, q: int):
        for k, v in src.items():
            nv = dst.get(k, 0) + q * v
            if nv:
                dst[k] = nv
            elif k in dst:
                del dst[k]

    # -- elementary row operations (matrix <- E @ matrix)

    def _row_add(self, dst: int, src: int, q: int):
        """row[dst] += q * row[src]."""
        rsrc = self.rows.get(src)
        if rsrc:
            rdst = self.rows.get(dst)
            if rdst is None:
                rdst = {}
                self.rows[dst] = rdst
            index = self.col_index
            for c, v in rsrc.items():
                nv = rdst.get(c, 0) + q * v
                if nv:
                    if c not in rdst:
                        index[c].add(dst)
                    rdst[c] = nv
                else:
                    if c in rdst:
                        del rdst[c]
                        index[c].discard(dst)
        if self.row_ops is not None:
            self.row_ops.append((dst, src, q))

    def _row_negate(self, r: int):
        row = self.rows.get(r)
        if row:
            for c in row:
                row[c] = -row[c]
        if self.row_ops is not None:
            self.row_ops.append((r,))

    def _rows_gcd(self, r1: int, r2: int, c: int):
        """Unimodular 2-row transform making entry (r1,c) = gcd and (r2,c) = 0."""
        a = self.rows[r1][c]
        b = self.rows[r2][c]
        x, y, g = xgcd(a, b)
        p, q = -(b // g), a // g        # [[x, y], [p, q]] has det 1
        row1 = dict(self.rows.get(r1, {}))
        row2 = dict(self.rows.get(r2, {}))
        self._set_row(r1, self._combine(row1, x, row2, y))
        self._set_row(r2, self._combine(row1, p, row2, q))
        if self.row_ops is not None:
            self.row_ops.append((r1, r2, x, y, p, q))

    @staticmethod
    def _combine(v1: dict, a: int, v2: dict, b: int) -> dict:
        out = {}
        for k, v in v1.items():
            nv = a * v
            if nv:
                out[k] = nv
        for k, v in v2.items():
            nv = out.get(k, 0) + b * v
            if nv:
                out[k] = nv
            elif k in out:
                del out[k]
        return out

    def _set_row(self, r: int, new_row: dict):
        old = self.rows.get(r, {})
        index = self.col_index
        for c in old:
            if c not in new_row:
                index[c].discard(r)
        for c in new_row:
            if c not in old:
                index.setdefault(c, set()).add(r)
        if new_row:
            self.rows[r] = new_row
        elif r in self.rows:
            del self.rows[r]

    # -- elementary column operations (matrix <- matrix @ E)

    def _col_add(self, dst: int, src: int, q: int):
        """col[dst] += q * col[src]."""
        src_rows = self.col_index.get(src)
        if src_rows:
            index = self.col_index
            for r in sorted(src_rows):
                row = self.rows[r]
                v = row[src]
                nv = row.get(dst, 0) + q * v
                if nv:
                    if dst not in row:
                        index.setdefault(dst, set()).add(r)
                    row[dst] = nv
                else:
                    if dst in row:
                        del row[dst]
                        index[dst].discard(r)
        if self.col_ops is not None:
            self.col_ops.append((dst, src, q))

    # -- pivoting

    def _select_pivot(self, heap, single_rows, single_cols):
        rows, col_index = self.rows, self.col_index
        while single_rows:
            r = single_rows.pop()
            if r in self._pivot_rows:
                continue
            row = rows.get(r)
            if row and len(row) == 1:
                return r, next(iter(row))
        while single_cols:
            c = single_cols.pop()
            if c in self._pivot_cols:
                continue
            col = col_index.get(c)
            if col and len(col) == 1:
                return next(iter(col)), c
        while heap:
            k, c = heapq.heappop(heap)
            if c in self._pivot_cols:
                continue
            col = col_index.get(c)
            cur = len(col) if col else 0
            if cur == 0:
                continue
            if cur != k:
                heapq.heappush(heap, (cur, c))
                continue
            best = None
            for r in sorted(col):
                v = self.rows[r][c]
                key = (abs(v) != 1, len(self.rows[r]), r)
                if best is None or key < best[0]:
                    best = (key, r)
            return best[1], c
        return None

    def _process_pivot(self, r: int, c: int, single_rows, single_cols):
        """Clear one pivot position by Euclidean reduction.

        The pivot migrates to the entry of smallest absolute value in its
        column/row while clearing with floor-division quotients; this is
        the classical value-controlled scheme (remainders stay below the
        pivot), avoiding the coefficient explosion of xgcd combining.
        """
        rows, col_index = self.rows, self.col_index
        while True:
            # column phase: Euclid-reduce column c until only the pivot is left
            while True:
                col = col_index[c]
                if r not in col:
                    r = min(col)
                v_abs = abs(rows[r][c])
                if v_abs > 1:
                    r_best = min(col, key=lambda rr: (abs(rows[rr][c]),
                                                      len(rows.get(rr, ())), rr))
                    if abs(rows[r_best][c]) < v_abs:
                        r = r_best
                v = rows[r][c]
                others = sorted(col - {r})
                if not others:
                    break
                for r2 in others:
                    row2 = rows.get(r2)
                    if row2 is None:
                        continue
                    a = row2.get(c)
                    if a is None:
                        continue
                    q = a // v
                    if q:
                        self._row_add(r2, r, -q)
                    if r2 in rows and len(rows[r2]) == 1:
                        single_rows.append(r2)
            # row phase: col c is a singleton now, so column ops touch only row r
            row = rows[r]
            if len(row) == 1:
                break
            v = row[c]
            if abs(v) > 1:
                c_best = min(row, key=lambda cc: (abs(row[cc]), cc))
                if abs(row[c_best]) < abs(v):
                    # a strictly smaller value lives elsewhere in the row;
                    # migrate and re-clear its (possibly dirty) column
                    c = c_best
                    continue
            for c2 in sorted(set(row) - {c}):
                b = rows[r].get(c2)
                if b is None:
                    continue
                q = b // v
                if q:
                    self._col_add(c2, c, -q)
                col2 = col_index.get(c2)
                if col2 and len(col2) == 1:
                    single_cols.append(c2)
            row = rows[r]
            if len(row) == 1 and len(col_index.get(c, ())) == 1:
                break
        self.pivots.append((r, c))
        self._pivot_rows.add(r)
        self._pivot_cols.add(c)

    def diagonalize(self):
        single_rows = [r for r, row in self.rows.items() if len(row) == 1]
        single_cols = [c for c, col in self.col_index.items() if len(col) == 1]
        single_rows.sort(reverse=True)
        single_cols.sort(reverse=True)
        heap = [(len(col), c) for c, col in self.col_index.items() if col]
        heapq.heapify(heap)
        while True:
            pick = self._select_pivot(heap, single_rows, single_cols)
            if pick is None:
                # pivot migration can refill a column that already left the
                # heap; rescan before declaring the matrix diagonalized
                leftovers = [(len(col), c) for c, col in self.col_index.items()
                             if col and c not in self._pivot_cols]
                if not leftovers:
                    break
                heap = leftovers
                heapq.heapify(heap)
                continue
            r, c = pick
            self._process_pivot(r, c, single_rows, single_cols)
        return self

    def pivot_value(self, i: int) -> int:
        r, c = self.pivots[i]
        return self.rows[r][c]

    # -- canonicalization (signs, ordering, divisibility chain)

    def normalize_signs(self):
        for r, c in self.pivots:
            if self.rows[r][c] < 0:
                self._row_negate(r)

    def sort_pivots(self):
        self.pivots.sort(key=lambda rc: (abs(self.rows[rc[0]][rc[1]]), rc))

    def fix_divisibility(self):
        """Make pivot i divide pivot j for i < j (pivot list order)."""
        changed = True
        while changed:
            changed = False
            k = len(self.pivots)
            for i in range(k):
                ri, ci = self.pivots[i]
                a = self.rows[ri][ci]
                if a == 1:
                    continue
                for j in range(i + 1, k):
                    rj, cj = self.pivots[j]
                    b = self.rows[rj][cj]
                    if b % a == 0:
                        continue
                    # fold column j into column i and re-split as gcd/lcm
                    self._col_add(ci, cj, 1)
                    self._rows_gcd(ri, rj, ci)
                    leftover = self.rows[ri].get(cj, 0)
                    g = self.rows[ri][ci]
                    if leftover:
                        self._col_add(cj, ci, -(leftover // g))
                    a = self.rows[ri][ci]
                    changed = True
            if changed:
                self.sort_pivots()

    def canonicalize(self):
        """Signs, order and divisibility chain of the pivots, in place.

        Returns (row, d) for every pivot d other than 1, in chain order:
        the torsion of the cokernel is the sum of these Z/d.
        """
        self.normalize_signs()
        self.sort_pivots()
        self.fix_divisibility()
        return [(r, self.rows[r][c]) for r, c in self.pivots if self.rows[r][c] != 1]

    # -- extraction

    def kernel_columns(self):
        """Indices of non-pivot columns (they are zero after diagonalization)."""
        return [c for c in range(self.n) if c not in self._pivot_cols]


def _replay_rows(ops):
    """The transforms of a logged elimination U @ M @ V = diag, from either log.

    Each row operation E is applied in order to lazy identities, U <- E @ U
    (row-major) and U^-1 <- U^-1 @ E^-1 (column-major), giving (rows of U,
    columns of U^-1) keyed by row.  A column add col[dst] += q * col[src]
    acts on V <- V @ E (column-major) and V^-1 <- E^-1 @ V^-1 (row-major) by
    the same two updates, so the column log gives (columns of V, rows of
    V^-1) keyed by column.  A key that is missing is the identity vector.
    """
    urows, uinv_cols = {}, {}
    get, acc, combine = _Elim._ident_get, _Elim._vec_acc, _Elim._combine
    for op in ops:
        if len(op) == 3:
            dst, src, q = op
            acc(get(urows, dst), get(urows, src), q)
            acc(get(uinv_cols, src), get(uinv_cols, dst), -q)
        elif len(op) == 1:
            for store in (urows, uinv_cols):
                u = get(store, op[0])
                for k in u:
                    u[k] = -u[k]
        else:
            # E = [[x, y], [p, q]] on rows r1, r2; E^-1 = [[q, -y], [-p, x]]
            r1, r2, x, y, p, q = op
            u1, u2 = get(urows, r1), get(urows, r2)
            urows[r1] = combine(u1, x, u2, y)
            urows[r2] = combine(u1, p, u2, q)
            c1, c2 = get(uinv_cols, r1), get(uinv_cols, r2)
            uinv_cols[r1] = combine(c1, q, c2, -p)
            uinv_cols[r2] = combine(c1, -y, c2, x)
    return urows, uinv_cols


def _identity_vector(store, key) -> dict:
    return dict(store.get(key, {key: 1}))


# ---------------------------------------------------------------------------
# Column echelon forms and integer spans


class ColumnEchelon:
    """M @ V = [H | 0] by unimodular column operations alone, V tracked.

    M is given by its columns: rows, and a list of sparse columns {row:
    nonzero value}, column c of M at index c.  The echelon consumes them:
    it eliminates in those dicts and keeps them as its H columns, so the
    caller hands them over and holds none of them afterwards.  The
    nonzeros are checked against the resource cap (ResourceCapError)
    before any column is touched, and a stored zero or a row index outside
    [0, rows) is refused (ValidationError).

    Each step takes a row r with the fewest nonzeros among the columns not
    yet retired and Euclid-reduces it across them (col -= q * pivot col,
    floor quotients) until one column is left nonzero at r; that column is
    retired into H with pivot row r.  The pivot of a step is the smallest
    entry of the row, among those the column with the fewest nonzeros,
    which bounds the fill-in, and among those the highest column index.
    The last rule leaves the lowest columns to the kernel, most kernel
    vectors e_c plus higher columns; on a free resolution's boundaries
    (column (i, g) = g times generator i) the greedy choice of the next
    generators keeps about a third fewer of them from such a kernel than
    from the kernel of a diagonalization.  Every column retired later is zero at r, so H
    is triangular in retirement order (pivots: row, column and H column)
    and has full column rank.  Since V is unimodular, the V columns of the
    columns left zero are a basis of the integer kernel lattice of M
    (kernel as copies, kernel_view in place; an empty column c gives e_c),
    and H answers M x = y by forward substitution (solve).  A row with one
    live column left retires it at once, with no pivot rule to apply.
    """

    def __init__(self, rows: int, columns: list):
        check_cap(sum(map(len, columns)), "matrix nonzeros")
        cols, row_index = {}, {}
        for c, col in enumerate(columns):
            if col:
                cols[c] = col
                for r, v in col.items():
                    if not (v and 0 <= r < rows):
                        raise ValidationError(f"entry ({r},{c}) = {v} is zero or out of "
                                              f"bounds for {rows}x{len(columns)}")
                    row_index.setdefault(r, set()).add(c)
        vcols = {}           # lazy identity: a missing column is e_c
        pivots = []          # (row, col, H column) in retirement order
        heap = [(len(cs), r) for r, cs in row_index.items()]
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            k, r = pop(heap)
            live = row_index[r]
            if len(live) != k:
                if live:
                    push(heap, (len(live), r))
                continue
            while len(live) > 1:
                # the pivot rule: least |entry|, then fewest nonzeros, then
                # highest column index
                c = -1
                for cc in live:
                    col = cols[cc]
                    a = col[r]
                    if a < 0:
                        a = -a
                    if c < 0 or a < best or a == best and (
                            len(col) < size or len(col) == size and cc > c):
                        c, best, size = cc, a, len(col)
                pcol = cols[c]
                v = pcol[r]
                pv = vcols.get(c) or {c: 1}
                for c2 in sorted(live):
                    if c2 == c:
                        continue
                    col2 = cols[c2]
                    q = -(col2[r] // v)   # nonzero: |col2[r]| >= |v|
                    for rr, w in pcol.items():
                        old = col2.get(rr)
                        if old is None:
                            cs = row_index[rr]
                            if not cs:   # its heap entries may all be gone
                                push(heap, (1, rr))
                            cs.add(c2)
                            col2[rr] = q * w
                        else:
                            nv = old + q * w
                            if nv:
                                col2[rr] = nv
                            else:
                                del col2[rr]
                                row_index[rr].discard(c2)
                    v2 = vcols.get(c2)
                    if v2 is None:
                        v2 = vcols[c2] = {c2: 1}
                    for i, w in pv.items():
                        nv = v2.get(i, 0) + q * w
                        if nv:
                            v2[i] = nv
                        elif i in v2:
                            del v2[i]
            c = next(iter(live))
            # retire c: every other live column is zero at r now
            col = cols.pop(c)
            for rr in col:
                cs = row_index[rr]
                cs.discard(c)
                if cs:
                    push(heap, (len(cs), rr))
            pivots.append((r, c, col))
        self.pivots = pivots
        self._vcols = vcols
        retired = {c for _, c, _ in pivots}
        self._kernel_columns = [c for c in range(len(columns)) if c not in retired]

    def kernel(self) -> list:
        """A basis of the integer kernel lattice of M, as sparse vectors the
        caller owns: copies of kernel_view's."""
        return [dict(v) for v in self.kernel_view()]

    def kernel_view(self) -> list:
        """kernel()'s basis read in place: the V columns themselves (a fresh
        e_c for an empty column), which the caller must not change."""
        vcols = self._vcols
        return [vcols.get(c) or {c: 1} for c in self._kernel_columns]

    def solve(self, y: dict):
        """An x with M @ x = y, or None when y is not in the column span of M."""
        y = {r: v for r, v in y.items() if v}
        x = {}
        vcols = self._vcols
        for r, c, col in self.pivots:
            a = y.get(r)
            if not a:
                continue
            t, rem = divmod(a, col[r])
            if rem:
                return None
            _Elim._vec_acc(y, col, -t)
            _Elim._vec_acc(x, vcols.get(c) or {c: 1}, t)
        return None if y else x


class IntegerSpan:
    """The integer span of sparse vectors, grown one vector at a time.

    It is held as a column echelon built by insertion: basis[j] = (p, u)
    with u[p] != 0, and u is zero at the pivot index p of every earlier
    basis vector.  A vector is in the span exactly when reducing it by the
    basis vectors in order (forward substitution, one pass over the basis)
    leaves 0: at step j its entry at p must be a multiple of u[p].  A new
    vector whose entry is not such a multiple is merged with u by a
    unimodular gcd step, so the span is over Z, not over Q; what is left
    after the last step becomes a new basis vector, pivoting on its
    smallest entry.  On the pivot indices the basis is triangular, so once
    every u[p] is +-1 the span is saturated (is_saturated), and then it is
    the whole of any saturated lattice of its rank that holds it, such as
    the kernel of a matrix: no vector of that lattice changes it.  Pivots
    are mostly +-1 that way, so merges, and the growth of entries they
    cause, stay rare (a pivot fixed at the first nonzero index reached
    entries of tens of thousands of bits on some kernels).  bits counts
    what the basis vectors hold, each entry by its bit length (at least 1),
    and every time it grows it is checked against the resource cap
    (ResourceCapError), so a span whose entries explode is refused however
    few entries it has.
    """

    def __init__(self):
        self.basis = []
        self.bits = 0
        self._non_units = 0      # basis vectors whose pivot entry is not +-1

    def _hold(self, added: dict, dropped: dict) -> None:
        grown = sum(map(int.bit_length, added.values())) - \
            sum(map(int.bit_length, dropped.values()))
        self.bits += grown
        if grown > 0:
            check_cap(self.bits, "integer span bits")

    def __contains__(self, vec: dict) -> bool:
        return not self._reduce(vec, insert=False)

    def add(self, vec: dict) -> None:
        self._reduce(vec, insert=True)

    def is_saturated(self) -> bool:
        """Whether every pivot is +-1, so that Z^n / span has no torsion."""
        return not self._non_units

    def _reduce(self, vec: dict, insert: bool) -> dict:
        """Reduce vec by the basis vectors in order and return what is left.

        Without insert the reduction stops at the first step it cannot
        clear, so {} comes back exactly when vec is in the span.  With
        insert that step's basis vector and vec are merged, and the rest
        goes on.  One ordered pass over the basis visits the steps whose
        pivot index is nonzero in what is left, and ends once nothing is.
        """
        basis = self.basis
        w = {k: v for k, v in vec.items() if v}
        for j, (p, u) in enumerate(basis):
            b = w.get(p)
            if not b:
                continue
            a = u[p]
            if b % a == 0:
                q = -(b // a)
                for k, x in u.items():
                    nv = w.get(k, 0) + q * x
                    if nv:
                        w[k] = nv
                    elif k in w:
                        del w[k]
                if not w:
                    return w
                continue
            if not insert:
                return w
            x, y, g = xgcd(a, b)
            merged = _Elim._combine(u, x, w, y)
            w = _Elim._combine(u, b // g, w, -(a // g))
            basis[j] = (p, merged)
            self._non_units += (g != 1) - (a not in (1, -1))
            self._hold(merged, u)
        if w and insert:
            # the pivot: least |entry|, then least index
            p = None
            for k, x in w.items():
                if x < 0:
                    x = -x
                if p is None or x < best or x == best and k < p:
                    p, best = k, x
            basis.append((p, w))
            self._non_units += best != 1
            self._hold(w, {})
        return w


# ---------------------------------------------------------------------------
# Subquotients of Z^n (homology of a two-step complex)


# What a Subquotient needs beyond its value to name and reduce classes:
# the cycle and boundary bases (IntegerMatrix), lifts (one ambient cycle
# per canonical generator), solver (cycle test and cycle coordinates) and
# reduce_rows (cycle coordinates -> quotient, one row per generator).
_Classes = namedtuple(
    "_Classes", "cycle_basis boundary_basis lifts solver reduce_rows")


class Subquotient:
    """ker(d_out) / im(d_in) inside Z^ambient_dim, with canonical quotient.

    lifts[i] is an ambient integer vector representing the i-th canonical
    generator of the quotient (torsion generators first, then free).

    The quotient is known on construction.  The classes (cycle and
    boundary bases, lifts, and what reduce and contains_cycle need) are
    either given or deferred: a callable that builds them runs once, on
    the first use of any of them, and may raise (a failed build runs again
    on the next use).
    """

    __slots__ = ("ambient_dim", "quotient", "_classes", "_build", "_lock")

    def __init__(self, ambient_dim: int, quotient: FinAbGroup, classes):
        self.ambient_dim = ambient_dim
        self.quotient = quotient
        deferred = callable(classes)
        self._classes = None if deferred else classes
        self._build = classes if deferred else None
        self._lock = threading.Lock()

    def classes(self) -> _Classes:
        if self._classes is None:
            with self._lock:
                if self._classes is None:
                    self._classes = self._build()
                    self._build = None
        return self._classes

    @property
    def cycle_basis(self) -> IntegerMatrix:
        return self.classes().cycle_basis

    @property
    def boundary_basis(self) -> IntegerMatrix:
        return self.classes().boundary_basis

    @property
    def lifts(self) -> tuple:
        return self.classes().lifts

    def contains_cycle(self, vec: dict) -> bool:
        return self.classes().solver.contains(vec)

    def reduce(self, vec: dict) -> tuple:
        """Quotient coordinates of an ambient cycle vector.

        Torsion coordinates are canonical residues in [0, d); free
        coordinates are exact integers.
        """
        classes = self.classes()
        y = classes.solver.coords(vec)
        orders = self.quotient.relation_orders()
        out = []
        for row, d in zip(classes.reduce_rows, orders):
            s = 0
            for k, coeff in row.items():
                yv = y.get(k)
                if yv:
                    s += coeff * yv
            out.append(s % d if d else s)
        return tuple(out)

    def lift_of(self, coords) -> dict:
        """An ambient cycle representing the class with given coordinates."""
        out = {}
        for coeff, lift in zip(coords, self.lifts):
            if coeff:
                _Elim._vec_acc(out, lift, coeff)
        return out


def _check_chain(d_out: IntegerMatrix, d_in: IntegerMatrix, modulus: int) -> None:
    """Raise ChainCompositionError unless d_out @ d_in == 0 (mod modulus).

    Every entry of the product is checked exactly, one column at a time
    (the column of d_out @ d_in at j is the sum of d_in[k, j] times column
    k of d_out), so the product is never held as a whole.
    """
    if d_out.cols != d_in.rows:
        raise ChainCompositionError(
            f"dimension mismatch: d_out has {d_out.cols} columns, d_in has {d_in.rows} rows")
    if modulus < 0:
        raise ValidationError("modulus must be >= 0")
    out_cols = d_out.col_view()
    for col in d_in.col_view().values():
        acc = {}
        for k, v in col.items():
            for r, w in out_cols.get(k, {}).items():
                acc[r] = acc.get(r, 0) + v * w
        if modulus:
            bad = any(x % modulus for x in acc.values())
        else:
            bad = any(acc.values())
        if bad:
            raise ChainCompositionError("d_out @ d_in != 0")


class _CycleCheck:
    """Cycles of d_out in ambient coordinates, checked but never eliminated."""

    def __init__(self, d_out: IntegerMatrix):
        self.d_out = d_out

    def contains(self, vec: dict) -> bool:
        return not self.d_out.apply(vec)

    def coords(self, vec: dict) -> dict:
        if not self.contains(vec):
            raise NotChainCompatibleError("vector is not a cycle")
        return vec


def finite_homology_at(d_out: IntegerMatrix, d_in: IntegerMatrix) -> Subquotient:
    """ker(d_out)/im(d_in) over Z, for a complex whose homology here is finite.

    Finite homology makes ker(d_out) the saturation of im(d_in): if t*v
    lies in im(d_in) for some t != 0, then t * (d_out @ v) = 0 and v is
    already a cycle.  The homology is then the torsion of coker(d_in), read
    off one elimination U @ d_in @ V = diag of d_in alone: the invariant
    factors are the canonicalized pivots other than 1, known at once.  The
    elimination logs only its row operations, the only ones read; the
    classes are deferred to one replay of that log (_replay_rows) on first
    use: a cycle's coordinates are its U rows at the torsion pivots, and
    the U^-1 columns at the pivot rows span the cycles.  d_out is only
    checked (d_out @ d_in == 0, its entry count against the resource cap),
    never eliminated.  Finiteness is the caller's promise; nothing here can
    detect a free part.
    """
    _check_chain(d_out, d_in, 0)
    check_cap(d_out.nnz, "matrix nonzeros")
    elim = _Elim(d_in, rows=True).diagonalize()
    torsion = elim.canonicalize()
    ops = elim.row_ops
    pivot_rows = [r for r, _ in elim.pivots]
    gen_rows = [r for r, _ in torsion]

    def classes() -> _Classes:
        urows, uinv_cols = _replay_rows(ops)
        return _Classes(
            cycle_basis=IntegerMatrix.from_columns(
                d_in.rows, (_identity_vector(uinv_cols, r) for r in pivot_rows)),
            boundary_basis=d_in,
            lifts=tuple(_identity_vector(uinv_cols, r) for r in gen_rows),
            solver=_CycleCheck(d_out),
            reduce_rows=tuple(_identity_vector(urows, r) for r in gen_rows),
        )

    return Subquotient(d_in.rows, FinAbGroup(0, tuple(d for _, d in torsion)), classes)
